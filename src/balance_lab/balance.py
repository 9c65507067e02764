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

from collections import namedtuple
from operator import mul
from typing import Iterator, Optional, Sequence

from .graphs import (
    AppraisalMatrix,
    UndirectedSkeleton,
    _checked_replace,
    _linked_pairs,
    _skeleton_masks,
    _triangle_walk,
    is_sign_symmetric,
)

Cycle = tuple[int, ...]

CYCLE_NODE_LIMIT = 12

ASYMMETRIC_PAIR = "asymmetric-pair"
NEGATIVE_TRIAD = "negative-triad"

TWO_FACTION = "two-faction"
NO_NEGATIVE_LINKS = "no-negative-links"


class GuardLimitError(RuntimeError):
    """An exact exponential search was refused because the input is too large."""


class BalanceViolation(namedtuple("BalanceViolation", "kind nodes")):
    """One offending pair or directed triad.

    An immutable tuple: the constructor checks the kind and the node count,
    while ``is_triad_wise_balanced``, whose violations are well formed by
    construction, builds them through the unchecked ``BalanceViolation._make``.
    """

    __slots__ = ()
    _replace = __replace__ = _checked_replace

    def __new__(cls, kind: str, nodes: tuple[int, ...]):
        if kind == ASYMMETRIC_PAIR and len(nodes) != 2:
            raise ValueError("asymmetric-pair violations name exactly two nodes")
        if kind == NEGATIVE_TRIAD and len(nodes) != 3:
            raise ValueError("negative-triad violations name exactly three nodes")
        if kind not in (ASYMMETRIC_PAIR, NEGATIVE_TRIAD):
            raise ValueError(f"unknown violation kind {kind!r}")
        return super().__new__(cls, kind, nodes)


class FactionPartition(namedtuple("FactionPartition", "kind v1 v2")):
    """Witness for two-faction balance.

    ``kind`` is ``"two-faction"`` for a genuine bipartition (v1 and v2
    disjoint, covering all nodes) or ``"no-negative-links"`` for the
    degenerate all-friendly case, where v2 is empty.  An immutable tuple
    whose constructor checks the kind and the factions.
    """

    __slots__ = ()
    _replace = __replace__ = _checked_replace

    def __new__(cls, kind: str, v1: frozenset[int], v2: frozenset[int] = frozenset()):
        if kind not in (TWO_FACTION, NO_NEGATIVE_LINKS):
            raise ValueError(f"unknown partition kind {kind!r}")
        if kind == NO_NEGATIVE_LINKS and v2:
            raise ValueError("no-negative-links witness must have empty v2")
        if v1 & v2:
            raise ValueError("factions must be disjoint")
        return super().__new__(cls, kind, v1, v2)

    def side_of(self, node: int) -> int:
        if node in self.v1:
            return 0
        if node in self.v2:
            return 1
        raise ValueError(f"node {node} not covered by partition")


def _directed_triads(
    rows: tuple[tuple[int, ...], ...], adj: list[int]
) -> Iterator[tuple[int, int, int]]:
    # Directed 3-cycles as positions, over the triangles of the skeleton
    # masks ``adj``: (a, b, c) then (a, c, b) for each a < b < c.
    for a, b, c in _triangle_walk(adj):
        if rows[a][b] and rows[b][c] and rows[c][a]:
            yield a, b, c
        if rows[a][c] and rows[c][b] and rows[b][a]:
            yield a, c, b


def enumerate_triads(x: AppraisalMatrix) -> list[Cycle]:
    """All directed 3-cycles, one per orientation, min node first.

    A triple {a, b, c} contributes (a, b, c) when X_ab, X_bc, X_ca are all
    nonzero and (a, c, b) when X_ac, X_cb, X_ba are; a fully bilateral
    triangle therefore shows up twice, once per direction.  Triples come in
    lexicographic order.  Only the triangles of the skeleton are visited,
    found by intersecting per-node link masks, so the cost grows with links
    and triangles rather than with n^3.
    """
    rows, labels = x.rows, x.labels
    return [
        (labels[a], labels[b], labels[c]) for a, b, c in _directed_triads(rows, _skeleton_masks(x))
    ]


def is_triad_wise_balanced(
    x: AppraisalMatrix,
) -> tuple[bool, list[BalanceViolation]]:
    """Check sign-symmetric links and positive triads; list every violation.

    A pair {i, j} violates when some direction is nonzero but the product
    X_ij * X_ji is not positive.  A directed triad violates when its sign
    product is negative.  Pairs come first, in label order, then triads in
    ``enumerate_triads`` order; both are read positionally off the
    matrix's shared link masks, so the cost grows with links and triangles.
    """
    rows = x.rows
    labels = x.labels
    adj = _skeleton_masks(x)
    make = BalanceViolation._make
    violations = [
        make((ASYMMETRIC_PAIR, (labels[a], labels[b])))
        for a, b in _linked_pairs(adj)
        if rows[a][b] * rows[b][a] <= 0
    ]
    violations += [
        make((NEGATIVE_TRIAD, (labels[a], labels[b], labels[c])))
        for a, b, c in _directed_triads(rows, adj)
        if rows[a][b] * rows[b][c] * rows[c][a] < 0
    ]
    return (not violations, violations)


def _partition_respects_signs(x: AppraisalMatrix, part: FactionPartition) -> bool:
    # Direct scan of the two-faction definition: X_ij >= 0 inside a faction,
    # X_ij <= 0 across, for every ordered pair.  With side +1 for v1 and -1
    # for v2, that is X_ij * side_i * side_j >= 0; the sides are looked up
    # once per node, and the diagonal is zero.
    sides = [1 - 2 * part.side_of(i) for i in x.labels]
    flipped = [-s for s in sides]
    for side, row in zip(sides, x.rows):
        if min(map(mul, row, sides if side > 0 else flipped)) < 0:
            return False
    return True


def detect_two_faction(x: AppraisalMatrix) -> Optional[FactionPartition]:
    """Find a two-faction witness, or None when no valid bipartition exists.

    A matrix with no negative entry gets the ``no-negative-links`` witness.
    Otherwise one sign-parity colouring of all positions decides
    (``_two_faction_colouring``, Harary 1953), which scales well past the
    cycle-enumeration guard.  The witness is read off the colouring: ``v1``
    holds the first position of each link component and every node coloured
    like it, so an isolated node lands in ``v1``.  The partition is
    re-verified against the definition, pair by pair, before it is returned.
    """
    rows = x.rows
    labels = x.labels
    if not x.negative_count():
        return FactionPartition(NO_NEGATIVE_LINKS, frozenset(labels))
    colour = _two_faction_colouring(rows, range(x.n))
    if colour is None:
        return None
    part = FactionPartition(
        TWO_FACTION,
        frozenset(label for label, c in zip(labels, colour) if c > 0),
        frozenset(label for label, c in zip(labels, colour) if c < 0),
    )
    if not _partition_respects_signs(x, part):
        raise RuntimeError("internal error: sign-parity colouring produced an invalid partition")
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
    # the smaller neighbour second (kills the reflected traversal).  One
    # explicit-stack walk per root over the skeleton's position masks:
    # ``untried[k]`` holds the positions still to try after ``path[k]``.
    nodes, masks = g.nodes, g._masks
    limit = len(nodes) if max_len is None else max_len
    for s in range(len(nodes)):
        above = -1 << s + 1
        path, on_path, untried = [s], 1 << s, [masks[s] & above]
        while untried:
            left = untried[-1]
            if not left:
                untried.pop()
                on_path ^= 1 << path.pop()
                continue
            low = left & -left
            untried[-1] = left ^ low
            w = low.bit_length() - 1
            path.append(w)
            on_path |= low
            if len(path) >= 3 and masks[w] >> s & 1 and path[1] < w:
                yield tuple(map(nodes.__getitem__, path))
            untried.append(masks[w] & above & ~on_path if len(path) < limit else 0)


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


def _two_faction_colouring(
    rows: tuple[tuple[int, ...], ...], members: Sequence[int]
) -> Optional[list[int]]:
    """A two-faction colouring of the positions ``members`` of ``rows``, or None.

    The colouring holds +1 or -1 at each member position and 0 at every
    other position; None means the members split into no two factions.  It
    is a sign-parity 2-colouring (Harary 1953).  Members are taken in the
    given order: one not yet reached starts its link component at +1, and a
    member reached over a link, in either direction, takes its neighbour's
    colour times the link's sign (the outgoing link's when both exist).

    Each member ``u``, once taken off the stack, tests its own row against
    every member coloured so far: inside a faction no entry is negative,
    across no entry is positive.  Every member comes off the stack, so every
    entry is tested against the final colouring, except an entry of ``u``
    that just coloured its target and agrees with it by construction.  A
    colour is forced within its link component, so a failed test means no
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
                cv = colour[v]
                if cv:
                    if row[v] * cu * cv < 0:
                        return None
                else:
                    link = row[v] or rows[v][u]
                    if link:
                        colour[v] = cu * link
                        stack.append(v)
    return colour


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
        is not None
        for a, label in enumerate(x.labels)
    }


def all_ego_networks_two_faction(x: AppraisalMatrix) -> bool:
    """True iff every node's ego-network admits a two-faction witness."""
    return all(ego_networks_two_faction(x).values())
