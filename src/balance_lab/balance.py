"""Static structural-balance checkers.

Two notions of balance for signed appraisal networks are covered:

* triad-wise balance: every link is sign-symmetric and every directed
  3-cycle has a positive sign product;
* two-faction balance: no negative links at all, or a bipartition with
  non-negative appraisals inside factions and non-positive across.

Cycle positivity is decided through the two-faction check (Harary 1953).
Only cycle enumeration, exact and exponential, sits behind a small-n guard
with an explicit ``force`` override.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .graphs import AppraisalMatrix, UndirectedSkeleton, is_sign_symmetric

Cycle = tuple[int, ...]

CYCLE_NODE_LIMIT = 12

ASYMMETRIC_PAIR = "asymmetric-pair"
NEGATIVE_TRIAD = "negative-triad"

TWO_FACTION = "two-faction"
NO_NEGATIVE_LINKS = "no-negative-links"


class GuardLimitError(RuntimeError):
    """An exact exponential search was refused because the input is too large."""


@dataclass(frozen=True)
class BalanceViolation:
    """One offending pair or directed triad."""

    kind: str
    nodes: tuple[int, ...]

    def __post_init__(self):
        if self.kind == ASYMMETRIC_PAIR and len(self.nodes) != 2:
            raise ValueError("asymmetric-pair violations name exactly two nodes")
        if self.kind == NEGATIVE_TRIAD and len(self.nodes) != 3:
            raise ValueError("negative-triad violations name exactly three nodes")
        if self.kind not in (ASYMMETRIC_PAIR, NEGATIVE_TRIAD):
            raise ValueError(f"unknown violation kind {self.kind!r}")


@dataclass(frozen=True)
class FactionPartition:
    """Witness for two-faction balance.

    ``kind`` is ``"two-faction"`` for a genuine bipartition (v1 and v2
    disjoint, covering all nodes) or ``"no-negative-links"`` for the
    degenerate all-friendly case, where v2 is empty.
    """

    kind: str
    v1: frozenset[int]
    v2: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.kind not in (TWO_FACTION, NO_NEGATIVE_LINKS):
            raise ValueError(f"unknown partition kind {self.kind!r}")
        if self.kind == NO_NEGATIVE_LINKS and self.v2:
            raise ValueError("no-negative-links witness must have empty v2")
        if self.v1 & self.v2:
            raise ValueError("factions must be disjoint")

    def side_of(self, node: int) -> int:
        if node in self.v1:
            return 0
        if node in self.v2:
            return 1
        raise ValueError(f"node {node} not covered by partition")


def enumerate_triads(x: AppraisalMatrix) -> list[Cycle]:
    """All directed 3-cycles, one per orientation, min node first.

    A triple {a, b, c} contributes (a, b, c) when X_ab, X_bc, X_ca are all
    nonzero and (a, c, b) when X_ac, X_cb, X_ba are; a fully bilateral
    triangle therefore shows up twice, once per direction.
    """
    rows = x.rows
    labels = x.labels
    n = x.n
    triads: list[Cycle] = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                if rows[a][b] and rows[b][c] and rows[c][a]:
                    triads.append((labels[a], labels[b], labels[c]))
                if rows[a][c] and rows[c][b] and rows[b][a]:
                    triads.append((labels[a], labels[c], labels[b]))
    return triads


def is_triad_wise_balanced(
    x: AppraisalMatrix,
) -> tuple[bool, list[BalanceViolation]]:
    """Check sign-symmetric links and positive triads; list every violation.

    A pair {i, j} violates when some direction is nonzero but the product
    X_ij * X_ji is not positive.  A directed triad violates when its sign
    product is negative.
    """
    rows = x.rows
    labels = x.labels
    violations: list[BalanceViolation] = []
    for a in range(x.n):
        for b in range(a + 1, x.n):
            fwd, rev = rows[a][b], rows[b][a]
            if (fwd or rev) and fwd * rev <= 0:
                violations.append(
                    BalanceViolation(ASYMMETRIC_PAIR, (labels[a], labels[b]))
                )
    for tri in enumerate_triads(x):
        i, j, k = tri
        if x.entry(i, j) * x.entry(j, k) * x.entry(k, i) < 0:
            violations.append(BalanceViolation(NEGATIVE_TRIAD, tri))
    return (not violations, violations)


def _partition_respects_signs(x: AppraisalMatrix, part: FactionPartition) -> bool:
    # Direct scan of the two-faction definition: X_ij >= 0 inside a faction,
    # X_ij <= 0 across, for every ordered pair.
    for a, i in enumerate(x.labels):
        for b, j in enumerate(x.labels):
            if a == b:
                continue
            v = x.rows[a][b]
            if part.side_of(i) == part.side_of(j):
                if v < 0:
                    return False
            elif v > 0:
                return False
    return True


def detect_two_faction(x: AppraisalMatrix) -> Optional[FactionPartition]:
    """Find a two-faction witness, or None when no valid bipartition exists.

    Each unordered pair contributes a "same faction" constraint when either
    direction is positive and a "different faction" constraint when either
    is negative; a pair carrying both is immediately infeasible.  Components
    of the constraint graph are then 2-colored independently and merged,
    which scales well past the cycle-enumeration guard.  The returned
    partition is re-verified against the definition before being returned.
    """
    rows = x.rows
    labels = x.labels
    n = x.n
    if not any(v < 0 for row in rows for v in row):
        return FactionPartition(NO_NEGATIVE_LINKS, frozenset(labels))
    constraint: dict[tuple[int, int], int] = {}
    for a in range(n):
        for b in range(a + 1, n):
            same = rows[a][b] > 0 or rows[b][a] > 0
            diff = rows[a][b] < 0 or rows[b][a] < 0
            if same and diff:
                return None
            if same:
                constraint[(a, b)] = 1
            elif diff:
                constraint[(a, b)] = -1
    adjacency: dict[int, list[tuple[int, int]]] = {a: [] for a in range(n)}
    for (a, b), rel in constraint.items():
        adjacency[a].append((b, rel))
        adjacency[b].append((a, rel))
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            a = queue.popleft()
            for b, rel in adjacency[a]:
                want = color[a] if rel == 1 else 1 - color[a]
                if color[b] == -1:
                    color[b] = want
                    queue.append(b)
                elif color[b] != want:
                    return None
    part = FactionPartition(
        TWO_FACTION,
        frozenset(labels[a] for a in range(n) if color[a] == 0),
        frozenset(labels[a] for a in range(n) if color[a] == 1),
    )
    if not _partition_respects_signs(x, part):
        raise RuntimeError("internal error: constraint coloring produced an invalid partition")
    return part


def cycle_sign(x: AppraisalMatrix, cycle: Cycle) -> int:
    """Sign product of the directed entries traversed along ``cycle``.

    Raises when the traversal crosses a zero entry (the cycle is not a
    cycle of the appraisal network).
    """
    if len(cycle) < 2:
        raise ValueError("a cycle needs at least two nodes")
    if len(set(cycle)) != len(cycle):
        raise ValueError("cycle nodes must be distinct")
    sign = 1
    for idx, i in enumerate(cycle):
        j = cycle[(idx + 1) % len(cycle)]
        v = x.entry(i, j)
        if v == 0:
            raise ValueError(f"cycle traverses zero entry ({i}, {j})")
        sign *= v
    return sign


def _iter_simple_cycles(g: UndirectedSkeleton, max_len: int | None):
    # Each cycle is emitted exactly once: rooted at its smallest node, with
    # the smaller neighbor second (kills the reflected traversal).
    for s in g.nodes:
        path = [s]
        on_path = {s}

        def extend(v: int):
            for w in g.neighbors(v):
                if w == s and len(path) >= 3:
                    if path[1] < path[-1]:
                        yield tuple(path)
                elif w > s and w not in on_path:
                    if max_len is not None and len(path) >= max_len:
                        continue
                    path.append(w)
                    on_path.add(w)
                    yield from extend(w)
                    path.pop()
                    on_path.remove(w)

        yield from extend(s)


def enumerate_simple_cycles(
    g: UndirectedSkeleton, max_len: int | None = None, force: bool = False
) -> list[Cycle]:
    """Every simple cycle of length >= 3, once up to rotation and reflection.

    Exponential in general; refuses graphs with more than
    ``CYCLE_NODE_LIMIT`` nodes unless ``force`` is set.
    """
    if g.n > CYCLE_NODE_LIMIT and not force:
        raise GuardLimitError(
            f"cycle enumeration refused for n={g.n} > {CYCLE_NODE_LIMIT}; "
            "pass force to override"
        )
    return sorted(_iter_simple_cycles(g, max_len), key=lambda c: (len(c), c))


def all_cycles_positive(x: AppraisalMatrix) -> bool:
    """True iff every simple cycle of the skeleton has positive sign.

    Requires a sign-symmetric matrix so the undirected cycle sign is
    well-defined; refuses anything else rather than guessing a
    symmetrization.  By Harary's theorem (1953) every cycle of a
    sign-symmetric network is positive exactly when it splits into two
    factions, so this is ``detect_two_faction`` in O(n^2) with no guard.
    """
    if not is_sign_symmetric(x):
        raise ValueError("cycle positivity requires a sign-symmetric matrix")
    return detect_two_faction(x) is not None


def _two_faction_colouring(rows: tuple[tuple[int, ...], ...], members: list[int]) -> bool:
    """True iff the positions ``members`` of ``rows`` split into two factions.

    A sign-parity 2-colouring: a member reached over a link takes its
    neighbour's colour times the link's sign.  Each member, once taken off
    the stack, is tested against every member coloured so far, in both
    directions, so every pair is tested against the final colouring: inside
    a faction no entry is negative, across no entry is positive.  A colour
    is forced within its component of links, so a failed test means no
    colouring exists.
    """
    colour = [0] * len(rows)
    for start in members:
        if colour[start]:
            continue
        colour[start] = 1
        stack = [start]
        while stack:
            u = stack.pop()
            cu, row = colour[u], rows[u]
            for v in members:
                fwd, rev = row[v], rows[v][u]
                cv = colour[v]
                if cv:
                    side = cu * cv
                    if fwd * side < 0 or rev * side < 0:
                        return False
                elif fwd or rev:
                    colour[v] = cu * (fwd or rev)
                    stack.append(v)
    return True


def ego_networks_two_faction(x: AppraisalMatrix) -> dict[int, bool]:
    """Each node's label mapped to whether its ego network is two-faction balanced.

    The verdict for node ``i`` is ``detect_two_faction(ego_network(x, i)[1])
    is not None``, decided on ``x.rows`` directly: one sign-parity colouring
    over ``i`` and everyone ``i`` appraises (Harary 1953), with no submatrix
    or witness built.
    """
    rows = x.rows
    return {
        label: _two_faction_colouring(rows, [b for b, v in enumerate(rows[a]) if v or b == a])
        for a, label in enumerate(x.labels)
    }


def all_ego_networks_two_faction(x: AppraisalMatrix) -> bool:
    """True iff every node's ego-network admits a two-faction witness."""
    return all(ego_networks_two_faction(x).values())
