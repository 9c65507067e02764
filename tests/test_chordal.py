import itertools
import random

import networkx as nx
import pytest

from balance_lab.balance import (
    GuardLimitError,
    detect_two_faction,
    enumerate_simple_cycles,
    is_triad_wise_balanced,
)
from balance_lab.chordal import (
    SubchordalWitness,
    SubgraphCertificate,
    check_equivalence_conditions,
    consecutive_triad,
    equivalence_counterexample,
    fan_triangulation,
    find_chords,
    is_chordal,
    is_subchordal,
    maximal_cyclic_subgraphs,
    split_by_chord,
    verify_equivalence_exhaustive,
)
from balance_lab import chordal
from balance_lab.graphs import (
    AppraisalMatrix,
    UndirectedSkeleton,
    _triangle_walk,
    induced_subgraph,
    skeleton,
)

from conftest import (
    PENTAGON,
    atlas_and_random_skeletons,
    complete_skeleton,
    counterexample_by_free_edge_scan,
    cycle_skeleton,
    random_connected_skeleton,
    skeleton_triangles_by_triple_loop,
)

EPRIME = UndirectedSkeleton.from_edges(
    (3, 4, 5, 6, 7),
    [(3, 4), (4, 5), (5, 6), (6, 7), (7, 3), (4, 7), (5, 7)],
)

HEXAGON_LONG_CHORD = UndirectedSkeleton.from_edges(
    6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)]
)


def to_nx(g: UndirectedSkeleton) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from(g.edges)
    return h


def chordal_by_definition(g: UndirectedSkeleton) -> bool:
    """Oracle: every simple cycle longer than three has at least one chord."""
    for cycle in enumerate_simple_cycles(g, force=True):
        if len(cycle) > 3 and not find_chords(g, cycle):
            return False
    return True


def subchordal_by_subsets(g: UndirectedSkeleton, cycle) -> bool:
    """Oracle: exhaustive subset enumeration over the available chords."""
    chords = find_chords(g, cycle)
    nodes = tuple(sorted(set(cycle)))
    base = {tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])}
    for r in range(len(chords) + 1):
        for subset in itertools.combinations(chords, r):
            candidate = UndirectedSkeleton(nodes, frozenset(base) | frozenset(subset))
            if chordal_by_definition(candidate):
                return True
    return False


def certificate_by_definitions(g: UndirectedSkeleton):
    """Oracle: the equivalence certificate with a cycle enumeration per
    maximal cyclic subgraph and subset enumeration for subchordality."""
    node_sets = {frozenset(c) for c in enumerate_simple_cycles(g)}
    maximal = sorted((s for s in node_sets if not any(s < t for t in node_sets)), key=sorted)
    ok, report = True, []
    for node_set in maximal:
        nodes = tuple(sorted(node_set))
        if len(nodes) <= 3:
            report.append(
                SubgraphCertificate(nodes, True, None, "three nodes or fewer: nothing to check")
            )
            continue
        sub = induced_subgraph(g, node_set)
        covering = [c for c in enumerate_simple_cycles(sub) if len(c) == len(nodes)]
        found, any_subchordal = None, False
        for cycle in covering:
            if not subchordal_by_subsets(g, cycle):
                continue
            any_subchordal = True
            splits_ok = True
            for chord in find_chords(g, cycle):
                first, second = split_by_chord(cycle, chord)
                if not subchordal_by_subsets(g, first) and not subchordal_by_subsets(g, second):
                    splits_ok = False
                    break
            if splits_ok:
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


def triangulation_by_intervals(cycle, has_edge):
    """Oracle: Klincsek's (1980) interval DP over an m-by-m table of cycle positions.

    ``split[a][b]`` holds the lowest apex k when {cycle[a], cycle[b]} is an
    edge and the sub-polygons a..k and k..b are single edges or triangulable.
    Returns the triangles (a, k, b), a < k < b, read off the apexes from the
    root (0, m - 1) down, or None when the polygon has no triangulation.
    """
    m = len(cycle)
    split = [[None] * m for _ in range(m)]

    def solved(a, b):
        return b - a == 1 or split[a][b] is not None

    for span in range(2, m):
        for a in range(m - span):
            b = a + span
            if has_edge(cycle[a], cycle[b]):
                split[a][b] = next(
                    (k for k in range(a + 1, b) if solved(a, k) and solved(k, b)), None
                )
    if split[0][m - 1] is None:
        return None
    triangles = []
    pending = [(0, m - 1)]
    while pending:
        a, b = pending.pop()
        k = split[a][b]
        triangles.append((a, k, b))
        pending.extend((p, q) for p, q in ((a, k), (k, b)) if q - p >= 2)
    return triangles


def witness_chords_by_intervals(g: UndirectedSkeleton, cycle):
    """Oracle for the ``extra_edges`` of ``is_subchordal``'s witness: the
    chords of the interval DP's triangulation, or None."""
    triangles = triangulation_by_intervals(cycle, g.has_edge)
    if triangles is None:
        return None
    return frozenset(
        tuple(sorted((cycle[p], cycle[q])))
        for a, k, b in triangles
        for p, q in ((a, k), (k, b))
        if q - p >= 2
    )


def certificate_by_split_cycles(g: UndirectedSkeleton):
    """Oracle: the certificate with one interval DP per covering cycle and
    two per chord, each on a cycle that ``split_by_chord`` builds."""
    ok, report = True, []
    for node_set, covering in chordal._maximal_cycle_groups(g, False):
        nodes = tuple(sorted(node_set))
        if len(nodes) <= 3:
            report.append(
                SubgraphCertificate(nodes, True, None, "three nodes or fewer: nothing to check")
            )
            continue
        found, any_subchordal = None, False
        for cycle in covering:
            if triangulation_by_intervals(cycle, g.has_edge) is None:
                continue
            any_subchordal = True
            splits_ok = True
            for chord in find_chords(g, cycle):
                first, second = split_by_chord(cycle, chord)
                if (
                    triangulation_by_intervals(first, g.has_edge) is None
                    and triangulation_by_intervals(second, g.has_edge) is None
                ):
                    splits_ok = False
                    break
            if splits_ok:
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


class TestFindChords:
    def test_graph1_pentagon_chords(self, graph1):
        assert find_chords(graph1, PENTAGON) == [(3, 5), (3, 6), (5, 7)]

    def test_triangle_has_none(self):
        assert find_chords(cycle_skeleton(3), (1, 2, 3)) == []

    def test_chordless_square_has_none(self):
        assert find_chords(cycle_skeleton(4), (1, 2, 3, 4)) == []

    def test_invalid_cycle_rejected(self, graph1):
        with pytest.raises(ValueError):
            find_chords(graph1, (3, 4, 6))


class TestSplitByChord:
    def test_pentagon_split_at_3_6(self):
        assert split_by_chord(PENTAGON, (3, 6)) == ((3, 6, 7), (3, 4, 5, 6))

    def test_square_split(self):
        assert split_by_chord((1, 2, 3, 4), (1, 3)) == ((1, 3, 4), (1, 2, 3))

    def test_lengths_sum_to_m_plus_2(self):
        rng = random.Random(2)
        for _ in range(30):
            m = rng.randrange(4, 9)
            cycle = tuple(rng.sample(range(1, 20), m))
            p = rng.randrange(0, m - 2)
            q = rng.randrange(p + 2, m if p > 0 else m - 1)
            first, second = split_by_chord(cycle, (cycle[p], cycle[q]))
            assert len(first) + len(second) == m + 2

    def test_consecutive_endpoints_rejected(self):
        with pytest.raises(ValueError, match="consecutive"):
            split_by_chord((1, 2, 3, 4), (1, 2))
        with pytest.raises(ValueError, match="consecutive"):
            split_by_chord((1, 2, 3, 4), (1, 4))


class TestIsChordal:
    def test_pentagon_witness_graph(self):
        assert is_chordal(EPRIME)

    def test_single_triangle(self):
        assert is_chordal(cycle_skeleton(3))

    def test_chordless_square(self):
        assert not is_chordal(cycle_skeleton(4))

    def test_graph1_chordal_graph2_not(self, graph1, graph2):
        assert is_chordal(graph1)
        assert not is_chordal(graph2)

    def test_exhaustive_small_graphs_match_definition(self):
        # Every labeled graph on up to 5 nodes.
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for mask in range(2 ** len(pairs)):
                edges = [e for idx, e in enumerate(pairs) if mask >> idx & 1]
                g = UndirectedSkeleton.from_edges(n, edges)
                assert is_chordal(g) == chordal_by_definition(g)

    def test_random_n6_n7_match_definition_and_networkx(self):
        rng = random.Random(31)
        for _ in range(250):
            g = random_connected_skeleton(rng, rng.choice((6, 7)), extra_p=rng.random())
            expected = chordal_by_definition(g)
            assert is_chordal(g) == expected
            assert nx.is_chordal(to_nx(g)) == expected


class TestSparseNodeIds:
    def test_answers_on_gapped_ids_are_the_answers_on_1_to_k_mapped_back(self):
        # Skeletons keep positions in sorted-id order, so each answer on ids
        # such as {2, 5, 9, 14, ...} must be the answer on the same graph
        # relabelled 1..k, mapped back, and agree with networkx where it
        # has the function.
        rng = random.Random(89)
        tally = {"connected": 0, "disconnected": 0, "chordal": 0, "counterexample": 0}
        for _ in range(200):
            k = rng.randrange(6, 10)
            ids = sorted(rng.sample(range(2, 50), k))
            back = dict(zip(range(1, k + 1), ids))
            p = rng.uniform(0.2, 0.6)
            pairs = [e for e in itertools.combinations(range(1, k + 1), 2) if rng.random() < p]
            dense = UndirectedSkeleton.from_edges(k, pairs)
            sparse = UndirectedSkeleton.from_edges(ids, [(back[a], back[b]) for a, b in pairs])
            h = to_nx(sparse)

            def mapped(nodes):
                return tuple(back[v] for v in nodes)

            def edge_lists(cycles):
                return sorted(sorted(map(sorted, zip(c, c[1:] + c[:1]))) for c in cycles)

            for v in range(1, k + 1):
                assert sparse.neighbors(back[v]) == mapped(dense.neighbors(v))
                assert sparse.neighbors(back[v]) == tuple(sorted(h[back[v]]))
            connected = sparse.is_connected()
            assert connected == dense.is_connected() == nx.is_connected(h)
            chordal_now = is_chordal(sparse)
            assert chordal_now == is_chordal(dense) == nx.is_chordal(h)
            cycles = enumerate_simple_cycles(sparse)
            assert cycles == [mapped(c) for c in enumerate_simple_cycles(dense)]
            assert edge_lists(cycles) == edge_lists(nx.simple_cycles(h))
            if connected:
                ok, report = check_equivalence_conditions(sparse)
                dense_ok, dense_report = check_equivalence_conditions(dense)
                assert ok == dense_ok
                assert report == [
                    c._replace(nodes=mapped(c.nodes), cycle=c.cycle and mapped(c.cycle))
                    for c in dense_report
                ]
            x, dense_x = equivalence_counterexample(sparse), equivalence_counterexample(dense)
            assert (x is None) == (dense_x is None)
            if x is not None:
                assert (x.labels, x.rows) == (tuple(ids), dense_x.rows)
                assert_separating(sparse, x)
            tally["connected" if connected else "disconnected"] += 1
            tally["chordal"] += chordal_now
            tally["counterexample"] += x is not None
        assert min(tally.values()) >= 20, tally


class TestIsSubchordal:
    def test_graph2_pentagon_witness(self, graph2):
        witness = is_subchordal(graph2, PENTAGON)
        assert witness is not None
        assert witness.extra_edges == frozenset({(4, 7), (5, 7)})
        assert is_chordal(witness.graph())

    def test_graph2_square_has_no_witness(self, graph2):
        assert is_subchordal(graph2, (3, 4, 5, 6)) is None

    def test_triangle_trivial_witness(self):
        witness = is_subchordal(cycle_skeleton(3), (1, 2, 3))
        assert witness is not None and witness.extra_edges == frozenset()

    def test_agrees_with_subset_enumeration_oracle(self):
        rng = random.Random(37)
        found, missing = 0, 0
        for _ in range(150):
            g = random_connected_skeleton(rng, rng.randrange(4, 10), extra_p=0.3)
            cycles = enumerate_simple_cycles(g)
            others = cycles[:-2]
            # The two longest cycles and two others.  The oracle costs
            # 2^chords, so cycles with more than ten chords are skipped.
            for cycle in cycles[-2:] + rng.sample(others, min(2, len(others))):
                if len(find_chords(g, cycle)) > 10:
                    continue
                witness = is_subchordal(g, cycle)
                expected = subchordal_by_subsets(g, cycle)
                assert (witness is not None) == expected
                if witness is None:
                    missing += 1
                    continue
                found += 1
                # A triangulation of the cycle's polygon from available chords.
                assert len(witness.extra_edges) == len(cycle) - 3
                assert witness.extra_edges <= set(find_chords(g, cycle))
        assert found > 100 and missing > 30

    def test_chordless_cycle_builds_no_table(self, monkeypatch):
        # A cycle of more than three nodes with no chord is refused after the
        # chord scan, before any triangulation table exists.
        ring, cycle = cycle_skeleton(3000), tuple(range(1, 3001))

        def refuse(m, arcs):
            raise AssertionError(f"triangulation table built for {m} nodes")

        with monkeypatch.context() as patched:
            patched.setattr(chordal, "_triangulation", refuse)
            assert find_chords(ring, cycle) == []
            assert is_subchordal(ring, cycle) is None
            ok, report = check_equivalence_conditions(cycle_skeleton(40), force=True)
            assert (ok, [entry.reason for entry in report]) == (
                False,
                ["no covering cycle is subchordal"],
            )
        # A triangle has no chord either, yet triangulates.
        witness = is_subchordal(cycle_skeleton(3), (1, 2, 3))
        assert witness is not None and witness.extra_edges == frozenset()

    def test_chord_guard(self):
        # No chord guard: the 27 chords of K9's 9-cycle are decided directly.
        k9 = complete_skeleton(9)
        long_cycle = tuple(range(1, 10))
        witness = is_subchordal(k9, long_cycle)
        assert witness is not None
        assert len(witness.extra_edges) == 6

    def test_invalid_witness_rejected(self):
        with pytest.raises(ValueError, match="chordal"):
            SubchordalWitness((1, 2, 3, 4, 5), frozenset())

    def test_unchecked_witnesses_equal_the_checked_constructor(self):
        # ``is_subchordal`` builds its witnesses without the chordality check:
        # each must still be chordal and equal, field by field, what the
        # checking constructor builds.  Graphs with a cycle rank above 10 are
        # skipped: that still leaves over 26,000 witnesses.
        witnesses = 0
        for g in atlas_and_random_skeletons():
            if len(g.edges) - g.n + 1 > 10:
                continue
            for cycle in enumerate_simple_cycles(g):
                witness = is_subchordal(g, list(cycle))
                if witness is None:
                    continue
                checked = SubchordalWitness(cycle, witness.extra_edges)
                assert tuple(witness) == tuple(checked), (sorted(g.edges), cycle)
                assert type(witness.cycle) is tuple
                assert all(a < b for a, b in witness.extra_edges)
                assert is_chordal(witness.graph())
                witnesses += 1
        assert witnesses > 10_000, witnesses


def _assert_fan(witness):
    """m - 2 triangles on witness edges, each sorted, in sorted order; cycle
    edges used once, cutting chords twice."""
    fan = fan_triangulation(witness)
    assert list(fan.triads) == sorted(tuple(sorted(t)) for t in fan.triads)
    cycle = witness.cycle
    assert len(fan.triads) == len(cycle) - 2
    witness_edges = witness.all_edges
    counts = {}
    for tri in fan.triads:
        for e in itertools.combinations(sorted(tri), 2):
            assert e in witness_edges
            counts[e] = counts.get(e, 0) + 1
    cycle_edges = {
        tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])
    }
    for e, c in counts.items():
        assert c == (1 if e in cycle_edges else 2)
    assert len(counts) == len(cycle) + len(cycle) - 3


def _complete_witnesses(m):
    """Every chord of the cycle in K_m, for two node orders of the cycle."""
    for cycle in (tuple(range(1, m + 1)), tuple(range(1, m + 1, 2)) + tuple(range(2, m + 1, 2))):
        yield SubchordalWitness(cycle, frozenset(find_chords(complete_skeleton(m), cycle)))


def _all_chord_witnesses(seed):
    """Witnesses holding every chord ``g`` has on a cycle, where that is chordal.

    Unlike ``is_subchordal``'s witnesses, these may carry crossing chords, so
    their polygon has more than one triangulation.
    """
    rng = random.Random(seed)
    crossing = 0
    for _ in range(60):
        g = random_connected_skeleton(rng, rng.randrange(5, 9), extra_p=0.6)
        for cycle in enumerate_simple_cycles(g)[-20:]:
            chords = find_chords(g, cycle)
            if len(cycle) < 5 or len(chords) <= len(cycle) - 3:
                continue
            try:
                witness = SubchordalWitness(cycle, frozenset(chords))
            except ValueError:
                continue
            crossing += 1
            yield witness
    assert crossing > 100


class TestFanTriangulation:
    def test_pentagon_witness_fan(self, graph2):
        witness = is_subchordal(graph2, PENTAGON)
        assert fan_triangulation(witness).triads == ((3, 4, 7), (4, 5, 7), (5, 6, 7))

    def test_triangle_fan_is_itself(self):
        witness = is_subchordal(cycle_skeleton(3), (1, 2, 3))
        assert fan_triangulation(witness).triads == ((1, 2, 3),)

    def test_square_plus_chord_gives_two_triangles(self):
        witness = SubchordalWitness((1, 2, 3, 4), frozenset({(1, 3)}))
        fan = fan_triangulation(witness)
        assert len(fan.triads) == 2
        assert all((1, 3) in itertools.combinations(t, 2) for t in fan.triads)

    def test_partition_edge_multiset(self):
        # m - 2 triangles; cycle edges used once, cutting chords twice.
        rng = random.Random(41)
        checked = 0
        for _ in range(80):
            g = random_connected_skeleton(rng, rng.randrange(4, 8), extra_p=0.4)
            cycles = [c for c in enumerate_simple_cycles(g) if len(c) >= 4]
            if not cycles:
                continue
            cycle = cycles[rng.randrange(len(cycles))]
            witness = is_subchordal(g, cycle)
            if witness is None:
                continue
            checked += 1
            _assert_fan(witness)
        assert checked > 20

    @pytest.mark.parametrize("m", [5, 6, 7])
    def test_crossing_chords_of_complete_graph(self, m):
        # Many triangulations; the one returned must still keep the contract.
        for witness in _complete_witnesses(m):
            _assert_fan(witness)

    def test_random_witnesses_with_crossing_chords(self):
        for witness in _all_chord_witnesses(61):
            _assert_fan(witness)


class TestConsecutiveTriad:
    def _assert_contract(self, witness):
        tri = consecutive_triad(witness)
        cycle = witness.cycle
        m = len(cycle)
        positions = sorted(cycle.index(v) for v in tri)
        consecutive = any(
            {positions[0], positions[1], positions[2]}
            == {(k - 1) % m, k % m, (k + 1) % m}
            for k in range(m)
        )
        assert consecutive
        edges = witness.all_edges
        for a, b in itertools.combinations(tri, 2):
            assert tuple(sorted((a, b))) in edges

    def test_pentagon_witness(self, graph2):
        witness = is_subchordal(graph2, PENTAGON)
        self._assert_contract(witness)

    def test_triangle_returns_itself(self):
        witness = is_subchordal(cycle_skeleton(3), (1, 2, 3))
        assert consecutive_triad(witness) == (1, 2, 3)

    def test_square_with_chord(self):
        witness = SubchordalWitness((1, 2, 3, 4), frozenset({(1, 3)}))
        assert consecutive_triad(witness) in ((1, 2, 3), (1, 3, 4), (3, 4, 1))
        self._assert_contract(witness)

    @pytest.mark.parametrize("m", [5, 6, 7])
    def test_crossing_chords_of_complete_graph(self, m):
        for witness in _complete_witnesses(m):
            self._assert_contract(witness)

    def test_random_witnesses_with_crossing_chords(self):
        for witness in _all_chord_witnesses(67):
            self._assert_contract(witness)

    def test_random_witnesses(self):
        rng = random.Random(43)
        checked = 0
        for _ in range(80):
            g = random_connected_skeleton(rng, rng.randrange(4, 9), extra_p=0.5)
            cycles = [c for c in enumerate_simple_cycles(g) if len(c) >= 4]
            if not cycles:
                continue
            witness = is_subchordal(g, cycles[rng.randrange(len(cycles))])
            if witness is None:
                continue
            checked += 1
            self._assert_contract(witness)
        assert checked > 20


class TestMaximalCyclicSubgraphs:
    def test_graph1_fixture(self, graph1):
        result = maximal_cyclic_subgraphs(graph1)
        assert result == [frozenset({3, 4, 5, 6, 7})]
        assert frozenset({3, 4, 5, 6}) not in result

    def test_tree_has_none(self):
        tree = UndirectedSkeleton.from_edges(5, [(1, 2), (2, 3), (2, 4), (4, 5)])
        assert maximal_cyclic_subgraphs(tree) == []

    def test_single_square(self):
        assert maximal_cyclic_subgraphs(cycle_skeleton(4)) == [frozenset({1, 2, 3, 4})]

    def test_guard(self):
        with pytest.raises(GuardLimitError):
            maximal_cyclic_subgraphs(cycle_skeleton(13))


class TestInducedChordalProperty:
    def test_every_induced_subgraph_of_chordal_is_chordal(self):
        rng = random.Random(47)
        chordal_seen = 0
        while chordal_seen < 40:
            g = random_connected_skeleton(rng, rng.randrange(4, 8), extra_p=0.5)
            if not is_chordal(g):
                continue
            chordal_seen += 1
            for _ in range(5):
                size = rng.randrange(1, g.n + 1)
                members = rng.sample(list(g.nodes), size)
                assert is_chordal(induced_subgraph(g, members))


class TestSubchordalCycleProperties:
    def test_split_sides_subchordal_within_witness(self):
        rng = random.Random(53)
        checked = 0
        for _ in range(60):
            g = random_connected_skeleton(rng, rng.randrange(4, 8), extra_p=0.4)
            cycles = [c for c in enumerate_simple_cycles(g) if len(c) >= 4]
            if not cycles:
                continue
            witness = is_subchordal(g, cycles[rng.randrange(len(cycles))])
            if witness is None:
                continue
            wgraph = witness.graph()
            for chord in find_chords(wgraph, witness.cycle):
                first, second = split_by_chord(witness.cycle, chord)
                assert is_subchordal(wgraph, first) is not None
                assert is_subchordal(wgraph, second) is not None
                checked += 1
        assert checked > 10

    def test_balanced_assignments_make_subchordal_cycles_positive(self):
        from conftest import planted_two_faction_matrix
        from balance_lab.balance import cycle_sign
        from balance_lab.graphs import skeleton as to_skeleton

        rng = random.Random(59)
        checked = 0
        for _ in range(60):
            x = planted_two_faction_matrix(rng, rng.randrange(4, 8), p=0.7)
            assert is_triad_wise_balanced(x)[0]
            g = to_skeleton(x)
            for cycle in enumerate_simple_cycles(g)[:10]:
                if is_subchordal(g, cycle) is not None:
                    assert cycle_sign(x, cycle) == 1
                    checked += 1
        assert checked > 10


class TestEquivalenceConditions:
    def test_chordal_graph_certified(self, graph1):
        ok, report = check_equivalence_conditions(graph1)
        assert ok
        assert all(entry.certified for entry in report)

    def test_chordless_square_fails(self):
        ok, report = check_equivalence_conditions(cycle_skeleton(4))
        assert not ok
        assert report[0].reason == "no covering cycle is subchordal"

    def test_disconnected_rejected(self):
        g = UndirectedSkeleton.from_edges(4, [(1, 2), (3, 4)])
        with pytest.raises(ValueError, match="connected"):
            check_equivalence_conditions(g)

    def test_matches_certificate_rebuilt_from_definitions(self):
        rng = random.Random(71)
        outcomes = set()
        for _ in range(160):
            g = random_connected_skeleton(rng, rng.randrange(4, 9), extra_p=0.3)
            ok, report = check_equivalence_conditions(g)
            assert (ok, report) == certificate_by_definitions(g)
            outcomes.update((entry.certified, entry.reason) for entry in report)
        assert outcomes == {
            (True, None),
            (True, "three nodes or fewer: nothing to check"),
            (False, "no covering cycle is subchordal"),
            (
                False,
                "every subchordal covering cycle has a chord with both split "
                "cycles non-subchordal",
            ),
        }

    def test_graph2_core_against_exhaustive_oracle(self, graph2):
        core = induced_subgraph(graph2, {3, 4, 5, 6, 7})
        ok, _ = check_equivalence_conditions(core)
        # Ground truth fixed by the exhaustive sign-assignment search.
        exhaustive = verify_equivalence_exhaustive(core)
        assert exhaustive == ok

    def test_conditions_imply_exhaustive_equivalence(self):
        rng = random.Random(61)
        certified = 0
        for _ in range(120):
            g = random_connected_skeleton(rng, rng.randrange(3, 7), extra_p=0.4)
            if len(g.edges) > 14:
                continue
            ok, _ = check_equivalence_conditions(g)
            if ok:
                certified += 1
                assert verify_equivalence_exhaustive(g)
        assert certified > 30

    def test_conditions_decide_equivalence_on_the_atlas(self):
        # The paper's condition is only shown sufficient, yet on every
        # connected graph with 3 to 7 nodes it agrees with the exact answer.
        graphs = certified = 0
        for h in nx.graph_atlas_g():
            if not 3 <= h.number_of_nodes() <= 7 or not nx.is_connected(h):
                continue
            g = UndirectedSkeleton.from_edges(
                h.number_of_nodes(), [(a + 1, b + 1) for a, b in h.edges]
            )
            ok, _ = check_equivalence_conditions(g)
            assert ok == (equivalence_counterexample(g) is None), sorted(g.edges)
            graphs += 1
            certified += ok
        assert (graphs, certified) == (994, 503)

    def test_conditions_decide_equivalence_on_sampled_8_node_graphs(self):
        # A seeded sample of the 8-node candidates.  Every 8-node graph is a
        # 7-node atlas graph plus an eighth node joined to a non-empty subset
        # of it; 2,200 of those 1,044 * 127 candidates are drawn, and the
        # connected ones checked.  The seed was fixed before any result was
        # seen.  A disagreement would be a graph on which the paper's
        # condition is strictly weaker than the truth: pin it as a fixture.
        atlas7 = [h for h in nx.graph_atlas_g() if h.number_of_nodes() == 7]
        rng = random.Random(887)
        graphs = certified = 0
        for index in rng.sample(range(len(atlas7) * 127), 2200):
            h, joined = atlas7[index // 127], index % 127 + 1
            g = UndirectedSkeleton.from_edges(
                8,
                [(a + 1, b + 1) for a, b in h.edges]
                + [(v + 1, 8) for v in range(7) if joined >> v & 1],
            )
            if not g.is_connected():
                continue
            ok, _ = check_equivalence_conditions(g)
            assert ok == (equivalence_counterexample(g) is None), sorted(g.edges)
            graphs += 1
            certified += ok
        assert (graphs, certified) == (1982, 765)

    def test_matches_interval_dp_on_split_cycles(self):
        # One table per covering cycle against the m-by-m interval DP run on
        # the cycle and on both split cycles of every chord: the same verdict,
        # certifying cycles and reasons, and the same witness on every cycle.
        # Random graphs with a cycle rank above K7's 15 are skipped; their
        # cycles run to millions.
        outcomes, witnesses = set(), {True: 0, False: 0}
        for g in atlas_and_random_skeletons():
            if not g.is_connected() or len(g.edges) - g.n + 1 > 15:
                continue
            ok, report = check_equivalence_conditions(g)
            assert (ok, report) == certificate_by_split_cycles(g), sorted(g.edges)
            outcomes.update((entry.certified, entry.reason) for entry in report)
            for cycle in enumerate_simple_cycles(g):
                witness = is_subchordal(g, cycle)
                chords = None if witness is None else witness.extra_edges
                assert chords == witness_chords_by_intervals(g, cycle), (sorted(g.edges), cycle)
                witnesses[witness is not None] += 1
        assert len(outcomes) == 4, outcomes
        assert witnesses == {True: 49003, False: 15162}


class TestExhaustiveVerification:
    def test_triangle_equivalence_holds(self):
        assert verify_equivalence_exhaustive(cycle_skeleton(3))

    def test_chordless_square_counterexample(self):
        x = equivalence_counterexample(cycle_skeleton(4))
        assert x is not None
        assert is_triad_wise_balanced(x)[0]
        assert detect_two_faction(x) is None

    def test_hexagon_with_long_chord_counterexample(self):
        x = equivalence_counterexample(HEXAGON_LONG_CHORD)
        assert x is not None
        assert is_triad_wise_balanced(x)[0]
        assert detect_two_faction(x) is None
        ok, _ = check_equivalence_conditions(HEXAGON_LONG_CHORD)
        assert not ok

    def test_edge_guard(self):
        with pytest.raises(GuardLimitError):
            verify_equivalence_exhaustive(complete_skeleton(6))

    def test_matches_direct_enumeration_oracle(self):
        # Direct oracle: loop over all sign-symmetric assignments.
        rng = random.Random(67)
        for _ in range(25):
            g = random_connected_skeleton(rng, rng.randrange(3, 6), extra_p=0.4)
            edges = sorted(g.edges)
            expected = True
            for assignment in itertools.product((1, -1), repeat=len(edges)):
                entries = []
                for (a, b), s in zip(edges, assignment):
                    entries.extend([(a, b, s), (b, a, s)])
                x = AppraisalMatrix.from_edge_list(g.n, entries)
                if is_triad_wise_balanced(x)[0] and detect_two_faction(x) is None:
                    expected = False
                    break
            assert verify_equivalence_exhaustive(g) == expected


CHORDED_TEN_RING = UndirectedSkeleton.from_edges(
    10,
    [(i, i % 10 + 1) for i in range(1, 11)] + [(1, 3), (3, 5), (5, 7), (7, 9), (1, 9)],
)


def random_small_skeleton(rng: random.Random, kind: str) -> UndirectedSkeleton:
    """At most 14 edges on 3..9 nodes: any density, a tree, or bipartite (triangle-free)."""
    n = rng.randrange(3, 10)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if kind == "tree":
        edges = [(rng.randrange(1, v), v) for v in range(2, n + 1)]
    elif kind == "bipartite":
        side = {v: rng.randrange(2) for v in range(1, n + 1)}
        edges = [(i, j) for i, j in pairs if side[i] != side[j] and rng.random() < 0.7]
    else:
        p = rng.random()
        edges = [e for e in pairs if rng.random() < p]
    rng.shuffle(edges)
    return UndirectedSkeleton.from_edges(n, edges[:14])


def triangles(g: UndirectedSkeleton) -> list[tuple[int, int, int]]:
    """Every triangle once, as sorted nodes."""
    return [
        (a, b, c) for a, b in sorted(g.edges) for c in g.neighbors(b) if c > b and g.has_edge(a, c)
    ]


def triangles_by_mask_walk(g: UndirectedSkeleton) -> list[tuple[int, int, int]]:
    """Every triangle once, as sorted nodes in lexicographic order, by the
    neighbour-mask walk that the GF(2) code reads."""
    return [tuple(map(g.nodes.__getitem__, t)) for t in _triangle_walk(g._masks)]


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of int bit vectors, eliminating on the lowest set bit."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            low = v & -v
            if low not in basis:
                basis[low] = v
                break
            v ^= basis[low]
    return len(basis)


def assert_separating(g: UndirectedSkeleton, x: AppraisalMatrix) -> None:
    assert skeleton(x) == g
    assert all(abs(s) == 1 for _, _, s in x.nonzero_links())
    assert is_triad_wise_balanced(x)[0]
    assert detect_two_faction(x) is None


class TestEdgesViewUnbuilt:
    def test_equivalence_reads_masks_and_never_the_edges_view(self, monkeypatch):
        # Skeletons keep only masks; the certificate and the counterexample
        # must not build the label-pair view, on the input or on any
        # skeleton made along the way.  Graphs with a cycle rank above 8 are
        # skipped, to keep cycle enumeration short.
        inputs = [
            g for g in atlas_and_random_skeletons()
            if g.is_connected() and g.edge_count() - g.n + 1 <= 8
        ]

        def refuse(g):
            raise AssertionError("edges view built")

        monkeypatch.setattr(UndirectedSkeleton, "edges", property(refuse))
        tally = {"certified": 0, "refused": 0, "counterexample": 0}
        for g in inputs:
            ok, _ = check_equivalence_conditions(g)
            x = equivalence_counterexample(g)
            tally["certified" if ok else "refused"] += 1
            tally["counterexample"] += x is not None
            assert "edges" not in vars(g)
        assert min(tally.values()) >= 50, tally


class TestEliminationCounterexample:
    def test_triangles_match_triple_loop_oracle(self):
        found = 0
        for g in atlas_and_random_skeletons():
            triangles = triangles_by_mask_walk(g)
            assert triangles == skeleton_triangles_by_triple_loop(g), sorted(g.edges)
            found += len(triangles)
        assert found > 10_000, found

    def test_matches_free_edge_scan_oracle(self):
        tally = {"none": 0, "found": 0, "disconnected": 0}
        for g in atlas_and_random_skeletons():
            x = equivalence_counterexample(g)
            assert x == counterexample_by_free_edge_scan(g), sorted(g.edges)
            tally["none" if x is None else "found"] += 1
            tally["disconnected"] += not g.is_connected()
        assert min(tally.values()) >= 100, tally

    def test_equals_exhaustive_search_on_small_skeletons(self):
        rng = random.Random(71)
        kinds = ("none", "found", "disconnected", "isolated", "tree", "triangle-free")
        tally = dict.fromkeys(kinds, 0)
        for trial in range(1200):
            kind = ("any", "any", "tree", "bipartite")[trial % 4]
            g = random_small_skeleton(rng, kind)
            assert len(g.edges) <= chordal.EXHAUSTIVE_EDGE_LIMIT
            x = equivalence_counterexample(g)
            assert x == chordal._exhaustive_counterexample(g), sorted(g.edges)
            tally["none" if x is None else "found"] += 1
            tally["disconnected"] += not g.is_connected()
            tally["isolated"] += any(not g.neighbors(v) for v in g.nodes)
            tally["tree"] += kind == "tree"
            tally["triangle-free"] += not triangles(g)
        assert min(tally.values()) >= 100, tally

    @pytest.mark.parametrize("n", [6, 9])
    def test_complete_graphs_above_edge_guard_have_none(self, n):
        assert len(complete_skeleton(n).edges) > chordal.EXHAUSTIVE_EDGE_LIMIT
        assert equivalence_counterexample(complete_skeleton(n)) is None

    def test_chorded_ten_ring_above_edge_guard(self):
        assert len(CHORDED_TEN_RING.edges) == 15
        x = equivalence_counterexample(CHORDED_TEN_RING)
        assert x is not None
        assert_separating(CHORDED_TEN_RING, x)

    def test_valid_on_larger_random_skeletons(self):
        # Above the search's reach: a returned assignment must separate the
        # two notions, and None must mean the triangles span the cycle
        # space (rank m - n + c, by Harary's theorem).
        rng = random.Random(73)
        outcomes = {True: 0, False: 0}
        for _ in range(100):
            n = rng.randrange(10, 41)
            p = rng.uniform(1.0, 16.0) / n
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            g = UndirectedSkeleton.from_edges(n, [e for e in pairs if rng.random() < p])
            x = equivalence_counterexample(g)
            index = {e: t for t, e in enumerate(sorted(g.edges))}
            rank = gf2_rank(
                1 << index[(a, b)] | 1 << index[(a, c)] | 1 << index[(b, c)]
                for a, b, c in triangles(g)
            )
            spans = rank == len(g.edges) - g.n + nx.number_connected_components(to_nx(g))
            assert (x is None) == spans
            if x is not None:
                assert_separating(g, x)
            outcomes[spans] += 1
        assert min(outcomes.values()) >= 20, outcomes


_SQUARE = cycle_skeleton(4)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: find_chords(_SQUARE, (1, 2)), "cycle must have at least three nodes"),
        (lambda: find_chords(_SQUARE, (1, 2, 1)), "cycle nodes must be distinct"),
        (lambda: find_chords(_SQUARE, (1, 2, 9)), "cycle node 9 not in graph"),
        (lambda: find_chords(_SQUARE, (1, 2, 4)), "cycle edge {2, 4} missing from graph"),
        (lambda: split_by_chord((1, 2, 3, 4, 5), (2, 9)), "chord (2, 9) endpoints not on cycle"),
        (lambda: SubchordalWitness((1, 2), frozenset()),
         "witness cycle must be a simple cycle of length >= 3"),
        (lambda: SubchordalWitness((1, 2, 1, 3), frozenset()),
         "witness cycle must be a simple cycle of length >= 3"),
        (lambda: SubchordalWitness((1, 2, 3, 4), frozenset({(1, 6)})),
         "witness edge (1, 6) leaves the cycle's node set"),
        (lambda: SubchordalWitness((1, 2, 3, 4), frozenset({(3, 2)})),
         "witness edge (2, 3) duplicates a cycle edge"),
    ],
    ids=[
        "cycle-too-short", "cycle-repeats-node", "cycle-node-outside", "cycle-edge-missing",
        "chord-off-cycle", "witness-short-cycle", "witness-repeated-node",
        "witness-edge-outside", "witness-edge-duplicates-cycle",
    ],
)
def test_refusal_names_its_fault(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert type(caught.value) is ValueError
    assert str(caught.value) == message
