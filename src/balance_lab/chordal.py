"""Chordal-graph machinery and the balance-equivalence certificate.

A cycle is *subchordal* when some subgraph on exactly its nodes contains all
cycle edges and is chordal; such a witness supports a fan triangulation of
the cycle's polygon and forces the cycle sign positive in any triad-wise
balanced assignment.  A cycle is subchordal exactly when the chords
available in the graph contain a triangulation of its polygon.  One
dynamic program finds such a triangulation, in one table per cycle over
the arcs that the cycle's edges close: at most two arcs per chord, O(m)
each, so O(m * chords) time, and no table at all for a cycle of more than
three nodes with no chord.  The table decides subchordality, and for the
certificate it also holds both sides of every chord; run on a witness's
own chords, it gives the fan triangulation and the ear (a triangle on
three consecutive cycle nodes).
A skeleton on which every maximal cyclic subgraph admits a subchordal
covering cycle whose chords split nicely guarantees that triad-wise and
two-faction balance coincide for every sign assignment.  This module
certifies that condition, and decides the equivalence itself exactly over
GF(2): by one rank count of the triangle vectors against the cycle rank,
and, when they differ, by the parity of null vectors against fundamental
cycles; the exhaustive search over sign assignments on small graphs stays
as its oracle.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

from .balance import (
    Cycle,
    GuardLimitError,
    detect_two_faction,
    enumerate_simple_cycles,
)
from .graphs import (
    AppraisalMatrix,
    UndirectedSkeleton,
    _checked_replace,
    _linked_pairs,
    _positions,
    _triangle_walk,
)

EXHAUSTIVE_EDGE_LIMIT = 14


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _cycle_edges(cycle: Cycle) -> frozenset[tuple[int, int]]:
    return frozenset(_pair(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def _validate_cycle(g: UndirectedSkeleton, cycle: Cycle) -> None:
    if len(cycle) < 3:
        raise ValueError("cycle must have at least three nodes")
    if len(set(cycle)) != len(cycle):
        raise ValueError("cycle nodes must be distinct")
    for v in cycle:
        if v not in g._pos:
            raise ValueError(f"cycle node {v} not in graph")
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if not g.has_edge(a, b):
            raise ValueError(f"cycle edge {{{a}, {b}}} missing from graph")


def _chord_arcs(g: UndirectedSkeleton, cycle: Cycle) -> list[tuple[int, int]]:
    # The chords of a cycle of g, read off the neighbour masks with one
    # intersection per node, as the arcs (p, q - p) that the chord {p, q},
    # p < q, closes between its cycle positions (see _triangulation).
    at = {g._pos[v]: p for p, v in enumerate(cycle)}  # graph position -> cycle position
    on_cycle = sum(1 << u for u in at)
    m = len(cycle)
    return [
        (p, q - p)
        for u, p in at.items()
        for q in map(at.__getitem__, _positions(g._masks[u] & on_cycle))
        if 1 < q - p < m - 1
    ]


def find_chords(g: UndirectedSkeleton, cycle: Cycle) -> list[tuple[int, int]]:
    """Edges of ``g`` joining two non-consecutive nodes of ``cycle``."""
    _validate_cycle(g, cycle)
    return sorted(_pair(cycle[p], cycle[p + s]) for p, s in _chord_arcs(g, cycle))


def split_by_chord(cycle: Cycle, chord: tuple[int, int]) -> tuple[Cycle, Cycle]:
    """Split a cycle at a chord into the two cycles sharing its endpoints.

    For cycle (i_1, ..., i_m) and chord {i_p, i_q} with q > p + 1, the parts
    are (i_1, ..., i_p, i_q, ..., i_m) and (i_p, ..., i_q); their lengths sum
    to m + 2.
    """
    a, b = chord
    try:
        p, q = sorted((cycle.index(a), cycle.index(b)))
    except ValueError:
        raise ValueError(f"chord {chord} endpoints not on cycle") from None
    m = len(cycle)
    if q - p < 2 or (p == 0 and q == m - 1):
        raise ValueError(f"chord {chord} joins consecutive cycle nodes")
    return (cycle[: p + 1] + cycle[q:], cycle[p : q + 1])


def is_chordal(g: UndirectedSkeleton) -> bool:
    """Chordality via maximum-cardinality search (Tarjan & Yannakakis 1984).

    MCS visits the node with the most visited neighbors first, the lowest
    on ties; the reverse visit order is a perfect elimination ordering iff
    the graph is chordal.  That is checked as each node is visited, by one
    mask test: its visited neighbors, but for the last one visited, must
    be neighbors of that one.  Trees and single triangles pass vacuously.
    """
    masks = g._masks
    weight = [0] * g.n  # visited neighbours of each unvisited position; -1 once visited
    latest = [0] * g.n  # the last visited of those neighbours
    visited = 0
    for _ in range(g.n):
        v = weight.index(max(weight))
        weight[v] = -1
        u, prior = latest[v], masks[v] & visited
        if prior and prior & ~masks[u] != 1 << u:
            return False
        visited |= 1 << v
        for w in _positions(masks[v] & ~visited):
            weight[w] += 1
            latest[w] = v
    return True


class SubchordalWitness(namedtuple("SubchordalWitness", "cycle extra_edges")):
    """A chordal subgraph on exactly a cycle's nodes containing its edges.

    An immutable tuple: the constructor stores the cycle as a tuple and the
    extra edges as pairs ``(a, b)`` with ``a < b``, and refuses a witness
    that is not chordal.  ``is_subchordal``, whose witnesses are
    triangulations and so chordal, builds them through the unchecked
    ``SubchordalWitness._make``.
    """

    __slots__ = ()
    _replace = __replace__ = _checked_replace

    def __new__(cls, cycle: Cycle, extra_edges: frozenset[tuple[int, int]]):
        self = super().__new__(
            cls, tuple(cycle), frozenset(_pair(a, b) for a, b in extra_edges)
        )
        cycle, extra_edges = self
        nodes = set(cycle)
        if len(cycle) < 3 or len(nodes) != len(cycle):
            raise ValueError("witness cycle must be a simple cycle of length >= 3")
        base = _cycle_edges(cycle)
        for e in extra_edges:
            if e[0] not in nodes or e[1] not in nodes:
                raise ValueError(f"witness edge {e} leaves the cycle's node set")
            if e in base:
                raise ValueError(f"witness edge {e} duplicates a cycle edge")
        if not is_chordal(self.graph()):
            raise ValueError("witness edges do not form a chordal graph")
        return self

    @property
    def all_edges(self) -> frozenset[tuple[int, int]]:
        return _cycle_edges(self.cycle) | self.extra_edges

    def graph(self) -> UndirectedSkeleton:
        return UndirectedSkeleton(self.cycle, self.all_edges)


class TriangulationFan(namedtuple("TriangulationFan", "triads")):
    """The ``m - 2`` triangles of a triangulation of an m-cycle's polygon."""

    __slots__ = ()


def _triangulation(m: int, arcs: list[tuple[int, int]]) -> Optional[dict[tuple[int, int], int]]:
    # Klincsek's (1980) polygon-triangulation DP, on the arcs an edge closes.
    # Arc (a, s) is the s + 1 nodes from cycle position a, closed by the
    # edge {a, (a + s) % m}: each single edge (a, 1), each chord {p, p + s}
    # on its two sides (p, s) and (p + s, m - s), and the cycle's last edge
    # on the root (0, m - 1).  An arc of s >= 2 is triangulable when some
    # apex t splits it into the triangulable arcs (a, t) and
    # ((a + t) % m, s - t).  The table holds the single edges, the given
    # chord-closed arcs, which must include every chord-closed arc inside
    # one of them, and the root.  Filled by length, it maps each
    # triangulable arc to its lowest apex (0 for a single edge); it is None
    # when the root has none.  O(m) per arc.
    apex = {(a, 1): 0 for a in range(m)}
    for s, a in sorted((s, a) for a, s in arcs) + [(m - 1, 0)]:
        t = next((t for t in range(1, s) if (a, t) in apex and ((a + t) % m, s - t) in apex), None)
        if t is not None:
            apex[a, s] = t
    return apex if (0, m - 1) in apex else None


def _root_triangles(apex: dict[tuple[int, int], int], m: int) -> list[tuple[int, int, int]]:
    # The triangles (a, k, b), a < k < b, read off the apexes from the root
    # (0, m - 1) down; no arc below the root wraps past position 0.
    triangles = []
    pending = [(0, m - 1)]
    while pending:
        a, s = pending.pop()
        t = apex[a, s]
        triangles.append((a, a + t, a + s))
        pending.extend(arc for arc in ((a, t), (a + t, s - t)) if arc[1] >= 2)
    return triangles


def is_subchordal(g: UndirectedSkeleton, cycle: Cycle) -> Optional[SubchordalWitness]:
    """A chordal witness over the chords available in ``g``, or None.

    A chordal graph containing the cycle has a chord of it that splits the
    cycle into two cycles, each again chordal inside the graph, so recursing
    yields ``m - 3`` non-crossing chords: a triangulation of the polygon.
    Conversely every triangulation is chordal.  So the cycle is subchordal
    iff the polygon-triangulation DP over ``g``'s edges succeeds, and the
    witness is that triangulation's chords.  The chords come from one scan of
    the neighbour masks.  A cycle of more than three nodes with none is not
    subchordal, and no table is built; otherwise one table over the arc each
    chord closes on the root's side, O(m) each: O(m * chords), at most
    O(m^3), time, no guard.
    """
    _validate_cycle(g, cycle)
    m = len(cycle)
    arcs = _chord_arcs(g, cycle)
    apex = _triangulation(m, arcs) if arcs or m == 3 else None
    if apex is None:
        return None
    # Each chord is the (a, k) or (k, b) side of exactly one triangle.  A
    # triangulation is chordal by construction, so the witness skips the
    # constructor's check, with its pairs ordered as the constructor orders them.
    extra = frozenset(
        _pair(cycle[p], cycle[q])
        for a, k, b in _root_triangles(apex, m)
        for p, q in ((a, k), (k, b))
        if q - p >= 2
    )
    return SubchordalWitness._make((tuple(cycle), extra))


def _witness_triangles(witness: SubchordalWitness) -> list[tuple[int, int, int]]:
    # The DP on the witness's own chords.  It always succeeds: a chordal graph
    # holding a Hamiltonian cycle triangulates the cycle's polygon.
    at = {v: p for p, v in enumerate(witness.cycle)}
    arcs = [(min(at[a], at[b]), abs(at[a] - at[b])) for a, b in witness.extra_edges]
    apex = _triangulation(len(at), arcs)
    return _root_triangles(apex, len(at))


def fan_triangulation(witness: SubchordalWitness) -> TriangulationFan:
    """A triangulation of the witness cycle's polygon by the witness's edges.

    Produces exactly ``len(cycle) - 2`` triangles, each sorted, in sorted
    order; together they partition the convex polygon spanned by the cycle,
    each cycle edge used once and each cutting chord shared by exactly two
    triangles.  A witness with crossing chords has several triangulations;
    this is the one the triangulation DP finds.
    """
    c = witness.cycle
    triads = sorted(tuple(sorted((c[a], c[k], c[b]))) for a, k, b in _witness_triangles(witness))
    return TriangulationFan(tuple(triads))


def consecutive_triad(witness: SubchordalWitness) -> tuple[int, int, int]:
    """A witness triangle on three consecutive nodes of the cycle (an ear).

    A triangulation of a polygon with more than three sides has two ears,
    and at most one of them holds the edge that closes the cycle, so some
    triangle ``(a, k, b)`` of the DP's triangulation has ``b - a == 2``.
    """
    c = witness.cycle
    a = next(a for a, _, b in _witness_triangles(witness) if b - a == 2)
    return (c[a], c[a + 1], c[a + 2])


def _maximal_cycle_groups(
    g: UndirectedSkeleton, force: bool
) -> list[tuple[frozenset[int], list[Cycle]]]:
    # One enumeration, grouped by node set.  Every cycle on a maximal node
    # set S covers S, so each group is exactly the covering cycles of S, in
    # the enumeration's (length, tuple) order.
    groups: dict[frozenset[int], list[Cycle]] = {}
    for c in enumerate_simple_cycles(g, force=force):
        groups.setdefault(frozenset(c), []).append(c)
    maximal = [(s, cs) for s, cs in groups.items() if not any(s < t for t in groups)]
    return sorted(maximal, key=lambda item: sorted(item[0]))


def maximal_cyclic_subgraphs(
    g: UndirectedSkeleton, force: bool = False
) -> list[frozenset[int]]:
    """Node sets traversed exactly by some cycle and by no longer cycle.

    Computed by enumerating all simple cycles, collecting their node sets,
    and keeping the inclusion-maximal ones.  Exact and exponential, guarded
    like cycle enumeration.
    """
    return [node_set for node_set, _ in _maximal_cycle_groups(g, force)]


class SubgraphCertificate(
    namedtuple("SubgraphCertificate", "nodes certified cycle reason", defaults=(None,))
):
    """Per-maximal-cyclic-subgraph outcome of the equivalence conditions.

    ``nodes`` is the subgraph's sorted node tuple, ``cycle`` the certifying
    covering cycle or None, and ``reason`` why no cycle was needed or none
    certifies, or None.
    """

    __slots__ = ()


def check_equivalence_conditions(
    g: UndirectedSkeleton, force: bool = False
) -> tuple[bool, list[SubgraphCertificate]]:
    """Certify the sufficient condition for balance-notion equivalence.

    For each maximal cyclic subgraph with more than three nodes, search for
    one covering cycle that (i) is subchordal and (ii) has, for every chord
    in the ambient graph, at least one subchordal side after splitting.
    Both conditions must be met by the same cycle.  The report lists, per
    subgraph, the certifying cycle or the failure reason.  The condition is
    sufficient; on every connected graph with 3 to 7 nodes, and on a seeded
    sample of connected 8-node graphs, it is also necessary (it agrees with
    ``equivalence_counterexample``), and whether that holds in general is
    open.

    One pass of cycle enumeration yields both the maximal cyclic subgraphs
    and their covering cycles, tried in ``(length, tuple)`` order; ``force``
    overrides only that enumeration's node guard, since the rest is
    polynomial.  Each covering cycle gets one chord scan of the neighbour
    masks and, if it has a chord, one run of the triangulation DP of
    ``is_subchordal`` over both sides of every chord: O(m) per arc.  Its
    one table holds the cycle, at its root arc, and those sides, so no
    split cycle is built and no witness either: enumerated cycles are
    valid cycles of ``g`` by construction.
    """
    if not g.is_connected():
        raise ValueError("equivalence conditions are defined for connected graphs")
    ok = True
    report: list[SubgraphCertificate] = []
    for node_set, covering in _maximal_cycle_groups(g, force):
        nodes = tuple(sorted(node_set))
        if len(nodes) <= 3:
            report.append(
                SubgraphCertificate(nodes, True, None, "three nodes or fewer: nothing to check")
            )
            continue
        found = None
        any_subchordal = False
        m = len(nodes)
        for cycle in covering:
            # A covering cycle of more than three nodes with no chord is not
            # subchordal.  Otherwise its table holds both sides of every chord.
            arcs = _chord_arcs(g, cycle)
            apex = _triangulation(m, arcs + [(p + s, m - s) for p, s in arcs]) if arcs else None
            if apex is not None:
                any_subchordal = True
                if all((p, s) in apex or (p + s, m - s) in apex for p, s in arcs):
                    found = cycle
                    break
        if found is not None:
            report.append(SubgraphCertificate(nodes, True, found))
        else:
            ok = False
            reason = (
                "every subchordal covering cycle has a chord with both split "
                "cycles non-subchordal"
                if any_subchordal
                else "no covering cycle is subchordal"
            )
            report.append(SubgraphCertificate(nodes, False, None, reason))
    return ok, report


def _fundamental_cycles(masks: tuple[int, ...], index: dict[tuple[int, int], int]) -> list[int]:
    # Edge bit vectors of the fundamental cycles of a spanning forest, one
    # per non-forest edge: m - n + c of them, a basis of the cycle space.
    path: dict[int, int] = {}  # position -> edge bits of its forest path to its root
    for root in range(len(masks)):
        if root in path:
            continue
        path[root] = 0
        reached = [root]
        for u in reached:
            for v in _positions(masks[u]):
                if v not in path:
                    path[v] = path[u] | 1 << index[_pair(u, v)]
                    reached.append(v)
    cycles = (path[u] ^ path[v] ^ 1 << t for (u, v), t in index.items())
    return [z for z in cycles if z]


def _signed(
    g: UndirectedSkeleton, pairs: list[tuple[int, int]], negative: list[int]
) -> AppraisalMatrix:
    # Sign-symmetric matrix on g: position pair pairs[t] is -1 where negative[t] is truthy, else +1.
    plus, minus = [0] * g.n, [0] * g.n
    for (a, b), neg in zip(pairs, negative):
        masks = minus if neg else plus
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return AppraisalMatrix._make(g.nodes, (tuple(plus), tuple(minus)))


def equivalence_counterexample(g: UndirectedSkeleton) -> Optional[AppraisalMatrix]:
    """A sign-symmetric assignment that is triad-wise but not two-faction balanced.

    Signs are GF(2) bits over ``sorted(g.edges)`` (negative = 1): triad-wise
    balanced assignments form the null space of the triangle vectors, and
    two-faction balanced ones the assignments with an even number of
    negative edges on every cycle (Harary 1953), that is, even parity
    against each fundamental cycle of a spanning forest.  The triangles are
    cycles, so when their rank equals the number of fundamental cycles,
    m - n + c, they span the cycle space, the two subspaces coincide, and
    the answer is None at once: the notions coincide on ``g`` (asymmetric
    assignments fail both).  Otherwise, with the triangle vectors fully
    reduced on their highest edge index, the null vector of a free edge
    ``f`` has no set bit before ``f``, so the last free edge whose null
    vector has odd parity against some fundamental cycle gives the
    lexicographically first separating assignment (edges in order, plus
    before minus), the one the exhaustive search returns.  Only that
    assignment is built, and ``detect_two_faction`` confirms it.
    Polynomial, no guard.
    """
    pairs = list(_linked_pairs(g._masks))  # position pairs, in sorted(g.edges) order
    index = {e: t for t, e in enumerate(pairs)}
    rows: dict[int, int] = {}  # pivot (highest edge index) -> reduced triangle combination
    for a, b, c in _triangle_walk(g._masks):
        v = 1 << index[a, b] | 1 << index[a, c] | 1 << index[b, c]
        while v and v.bit_length() - 1 in rows:
            v ^= rows[v.bit_length() - 1]
        if v:
            rows[v.bit_length() - 1] = v
    cycles = _fundamental_cycles(g._masks, index)
    if len(rows) == len(cycles):
        return None
    for p in sorted(rows):
        for q in rows:
            if q > p and rows[q] >> p & 1:
                rows[q] ^= rows[p]
    for f in reversed(range(len(pairs))):
        if f in rows:
            continue
        null = 1 << f | sum(1 << p for p, row in rows.items() if row >> f & 1)
        if any((null & z).bit_count() & 1 for z in cycles):
            x = _signed(g, pairs, [null >> t & 1 for t in range(len(pairs))])
            if detect_two_faction(x) is not None:
                raise RuntimeError("internal error: an odd-parity cycle left a two-faction witness")
            return x
    raise RuntimeError("internal error: triangle rank below the cycle rank, yet no null vector separates")


def _exhaustive_counterexample(g: UndirectedSkeleton) -> Optional[AppraisalMatrix]:
    # Literal oracle: backtracks over edge signs (+ before -), pruning any branch
    # that closes a negative triangle; returns the first leaf with no witness.
    pairs = list(_linked_pairs(g._masks))  # position pairs, in sorted(g.edges) order
    if len(pairs) > EXHAUSTIVE_EDGE_LIMIT:
        raise GuardLimitError(
            f"exhaustive verification refused with {len(pairs)} edges "
            f"> {EXHAUSTIVE_EDGE_LIMIT}"
        )
    index = {e: t for t, e in enumerate(pairs)}
    # A triangle a < b < c closes on its last edge {b, c}, after {a, b} and {a, c}.
    closing: list[list[tuple[int, int]]] = [[] for _ in pairs]
    for a, b, c in _triangle_walk(g._masks):
        closing[index[b, c]].append((index[a, c], index[a, b]))
    signs = [0] * len(pairs)

    def search(t: int) -> Optional[AppraisalMatrix]:
        if t == len(pairs):
            x = _signed(g, pairs, [s < 0 for s in signs])
            return x if detect_two_faction(x) is None else None
        for s in (1, -1):
            signs[t] = s
            if all(signs[e1] * signs[e2] * s > 0 for e1, e2 in closing[t]):
                found = search(t + 1)
                if found is not None:
                    return found
        signs[t] = 0
        return None

    return search(0)


def verify_equivalence_exhaustive(g: UndirectedSkeleton) -> bool:
    """True iff triad-wise and two-faction balance agree on every assignment.

    The literal backtracking search, kept as the oracle for
    ``equivalence_counterexample``; refuses above ``EXHAUSTIVE_EDGE_LIMIT`` edges.
    """
    return _exhaustive_counterexample(g) is None
