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
from operator import or_
from typing import Iterator, Optional, Sequence

from .graphs import (
    AppraisalMatrix,
    UndirectedSkeleton,
    _checked_replace,
    _linked_pairs,
    _positions,
    _skeleton_masks,
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
    x: AppraisalMatrix, adj: Sequence[int], negative: bool = False
) -> Iterator[tuple[int, int, int]]:
    # Directed 3-cycles as positions, over the triangles of the skeleton
    # masks ``adj``: (a, b, c) then (a, c, b) for each a < b < c, read off
    # one mask intersection per skeleton edge {a, b}.  With ``negative``,
    # only those whose sign product is negative: a forward (a, b, c) whose
    # links b->c and c->a differ in sign when a->b is +1, or agree when it
    # is -1, and likewise for the backward (a, c, b) around b->a.
    out, into = x._masks
    minus, in_minus = x._signs[1], x._incoming[1]
    for a, b in _linked_pairs(adj):
        above = -1 << b + 1
        forward = out[b] & into[a] & above if out[a] >> b & 1 else 0
        backward = out[a] & into[b] & above if into[a] >> b & 1 else 0
        if negative:
            flip = minus[b] ^ in_minus[a]
            forward &= ~flip if minus[a] >> b & 1 else flip
            flip = minus[a] ^ in_minus[b]
            backward &= ~flip if in_minus[a] >> b & 1 else flip
        both = forward | backward
        while both:
            low = both & -both
            both ^= low
            c = low.bit_length() - 1
            if forward & low:
                yield a, b, c
            if backward & low:
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
    labels = x.labels
    return [
        (labels[a], labels[b], labels[c]) for a, b, c in _directed_triads(x, _skeleton_masks(x))
    ]


def is_triad_wise_balanced(
    x: AppraisalMatrix,
) -> tuple[bool, list[BalanceViolation]]:
    """Check sign-symmetric links and positive triads; list every violation.

    A pair {i, j} violates when some direction is nonzero but the product
    X_ij * X_ji is not positive.  A directed triad violates when its sign
    product is negative.  Pairs come first, in label order, then triads in
    ``enumerate_triads`` order; both are read off the matrix's sign masks,
    a pair as a skeleton edge outside the mask of same-signed both-way
    links, so the cost grows with links and triangles.
    """
    labels = x.labels
    adj = _skeleton_masks(x)
    (plus, minus), (in_plus, in_minus) = x._signs, x._incoming
    asymmetric = [
        linked & ~(p & ip | m & im)
        for linked, p, m, ip, im in zip(adj, plus, minus, in_plus, in_minus)
    ]
    make = BalanceViolation._make
    violations = [
        make((ASYMMETRIC_PAIR, (labels[a], labels[b]))) for a, b in _linked_pairs(asymmetric)
    ]
    violations += [
        make((NEGATIVE_TRIAD, (labels[a], labels[b], labels[c])))
        for a, b, c in _directed_triads(x, adj, negative=True)
    ]
    return (not violations, violations)


def _partition_respects_signs(x: AppraisalMatrix, part: FactionPartition) -> bool:
    # The two-faction definition, link by link: X_ij >= 0 inside a faction,
    # X_ij <= 0 across.  With ``v1`` and ``v2`` as position masks, no +1
    # link of a node may reach the other faction and no -1 link its own.
    # Each node's side is looked up once, so an uncovered node raises.
    v1 = sum(1 << a for a, i in enumerate(x.labels) if part.side_of(i) == 0)
    v2 = (1 << x.n) - 1 ^ v1
    for a, (plus, minus) in enumerate(zip(*x._signs)):
        own, other = (v1, v2) if v1 >> a & 1 else (v2, v1)
        if plus & other or minus & own:
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
    re-verified against the definition, link by link, before it is returned.
    """
    labels = x.labels
    if not x.negative_count():
        return FactionPartition(NO_NEGATIVE_LINKS, frozenset(labels))
    colour = _two_faction_colouring(*_sign_neighbours(x), (1 << x.n) - 1)
    if colour is None:
        return None
    part = FactionPartition(
        TWO_FACTION,
        frozenset(map(labels.__getitem__, _positions(colour[0]))),
        frozenset(map(labels.__getitem__, _positions(colour[1]))),
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
    factions, so this is ``detect_two_faction``, by links, with no guard.
    """
    if not is_sign_symmetric(x):
        raise ValueError("cycle positivity requires a sign-symmetric matrix")
    return detect_two_faction(x) is not None


def _sign_neighbours(x: AppraisalMatrix) -> tuple[list[int], list[int]]:
    """Per position, the masks of its friends and its enemies, linked either way at +1 or -1."""
    (plus, minus), (in_plus, in_minus) = x._signs, x._incoming
    return list(map(or_, plus, in_plus)), list(map(or_, minus, in_minus))


def _two_faction_colouring(
    friends: Sequence[int], enemies: Sequence[int], members: int
) -> Optional[tuple[int, int]]:
    """A two-faction colouring of the positions in the mask ``members``, or None.

    The colouring is a pair of disjoint masks, the +1 and the -1 faction,
    that cover ``members``; None means the members split into no two
    factions.  It is a sign-parity 2-colouring (Harary 1953) of the links
    among the members, read off the neighbour masks of ``_sign_neighbours``.
    The lowest member not yet reached starts its link component at +1.  Each
    coloured member ``u``, once taken, tests its friends and enemies among
    the members against the colouring so far, all at once: no friend in the
    other faction and no enemy in its own.  Then it colours the rest,
    friends like itself and enemies unlike, to be taken in turn.  Colours
    never change, so every link ends up tested against the final colouring
    (a member both friend and enemy lands in both factions and fails its own
    test); a colour is forced within its link component, so a failed test
    means no colouring exists.  O(members + their links) mask operations.
    """
    side = [0, 0]  # the +1 and the -1 faction
    left = members
    while left:
        # ``pending`` holds the coloured members not yet taken.
        pending = left & -left
        side[0] |= pending
        while pending:
            low = pending & -pending
            pending ^= low
            u = low.bit_length() - 1
            k = 0 if side[0] & low else 1
            own, rival = side[k], side[1 - k]
            same, other = friends[u] & members, enemies[u] & members
            if same & rival or other & own:
                return None
            pending |= (same | other) & ~(own | rival)
            side[k], side[1 - k] = own | same, rival | other
        left &= ~(side[0] | side[1])
    return side[0], side[1]


def ego_networks_two_faction(x: AppraisalMatrix) -> dict[int, bool]:
    """Each node's label mapped to whether its ego network is two-faction balanced.

    The verdict for node ``i`` is ``detect_two_faction(ego_network(x, i)[1])
    is not None``, decided on the matrix's masks directly: one sign-parity
    colouring over ``i`` and everyone ``i`` appraises (Harary 1953), with no
    submatrix or witness built.
    """
    friends, enemies = _sign_neighbours(x)
    return {
        label: _two_faction_colouring(friends, enemies, out | 1 << a) is not None
        for a, (label, out) in enumerate(zip(x.labels, x._masks[0]))
    }


def all_ego_networks_two_faction(x: AppraisalMatrix) -> bool:
    """True iff every node's ego-network admits a two-faction witness."""
    return all(ego_networks_two_faction(x).values())
