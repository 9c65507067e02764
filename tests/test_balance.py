import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from balance_lab import balance
from balance_lab.balance import (
    ASYMMETRIC_PAIR,
    CYCLE_NODE_LIMIT,
    NEGATIVE_TRIAD,
    NO_NEGATIVE_LINKS,
    TWO_FACTION,
    BalanceViolation,
    FactionPartition,
    GuardLimitError,
    all_cycles_positive,
    all_ego_networks_two_faction,
    cycle_sign,
    detect_two_faction,
    ego_networks_two_faction,
    enumerate_simple_cycles,
    enumerate_triads,
    is_triad_wise_balanced,
)
from balance_lab.experiments import count_triads
from balance_lab.graphs import AppraisalMatrix, UndirectedSkeleton, ego_network, skeleton

from conftest import (
    MATRIX_KINDS,
    complete_skeleton,
    cycle_skeleton,
    cycles_positive_by_enumeration,
    planted_two_faction_matrix,
    random_connected_symmetric,
    random_matrix,
    random_symmetric_matrix,
    triad_wise_by_triple_loop,
    triads_by_triple_loop,
    two_faction_by_union_find,
    two_faction_colouring_by_row_scan,
    varied_matrix,
)


def symmetric(n, pairs):
    """Sign-symmetric matrix from (i, j, sign) unordered pairs."""
    entries = []
    for i, j, s in pairs:
        entries.append((i, j, s))
        entries.append((j, i, s))
    return AppraisalMatrix.from_edge_list(n, entries)


def to_nx(g: UndirectedSkeleton) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from(g.edges)
    return h


def brute_force_two_faction(x: AppraisalMatrix) -> bool:
    """Oracle: try all bipartitions against the definition directly."""
    if all(v >= 0 for row in x.rows for v in row):
        return True
    n = x.n
    for mask in range(2 ** n):
        ok = True
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                same = ((mask >> a) & 1) == ((mask >> b) & 1)
                v = x.rows[a][b]
                if same and v < 0 or not same and v > 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


class TestEnumerateTriads:
    def test_complete_bilateral_triangle_has_both_orientations(self):
        x = symmetric(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        assert enumerate_triads(x) == [(1, 2, 3), (1, 3, 2)]

    def test_one_directional_cycle_gives_single_triad(self):
        x = AppraisalMatrix.from_edge_list(3, [(1, 2, 1), (2, 3, 1), (3, 1, 1)])
        assert enumerate_triads(x) == [(1, 2, 3)]

    def test_random_bilateral_count_matches_networkx_triangles(self):
        rng = random.Random(11)
        for _ in range(30):
            x = random_symmetric_matrix(rng, 6)
            triangles = sum(nx.triangles(to_nx(skeleton(x))).values()) // 3
            assert len(enumerate_triads(x)) == 2 * triangles

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_matches_triple_loop_oracle(self, kind):
        rng = random.Random(f"triads:{kind}")
        found = 0
        for _ in range(150):
            x = varied_matrix(rng, kind)
            triads = enumerate_triads(x)
            assert triads == triads_by_triple_loop(x), x
            found += len(triads)
        assert (found == 0) == (kind == "empty"), found


class TestTriadWiseBalance:
    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_matches_triple_loop_oracle(self, kind):
        rng = random.Random(f"triad-wise:{kind}")
        kinds = set()
        for _ in range(150):
            x = varied_matrix(rng, kind)
            verdict = is_triad_wise_balanced(x)
            assert verdict == triad_wise_by_triple_loop(x), x
            kinds.update(v.kind for v in verdict[1])
        expected = {
            "independent": {ASYMMETRIC_PAIR, NEGATIVE_TRIAD},
            "bilateral": {ASYMMETRIC_PAIR, NEGATIVE_TRIAD},
            "complete": {ASYMMETRIC_PAIR, NEGATIVE_TRIAD},
            "one-way": {ASYMMETRIC_PAIR, NEGATIVE_TRIAD},
            "empty": set(),
        }
        assert kinds == expected[kind]

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_every_violation_passes_the_checked_constructor(self, kind):
        # The producer builds violations unchecked; each must still be one the
        # checking constructor accepts, with the same fields, type and repr.
        rng = random.Random(f"violation-checks:{kind}")
        seen = 0
        for _ in range(150):
            x = varied_matrix(rng, kind)
            for v in is_triad_wise_balanced(x)[1]:
                checked = BalanceViolation(v.kind, v.nodes)
                assert v == checked and type(v) is type(checked) is BalanceViolation, (x, v)
                assert repr(v) == f"BalanceViolation(kind={v.kind!r}, nodes={v.nodes!r})"
                assert type(v.nodes) is tuple and all(type(i) is int for i in v.nodes)
                seen += 1
        assert (seen == 0) == (kind == "empty"), seen

    def test_all_positive_triangle(self):
        x = symmetric(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        assert is_triad_wise_balanced(x) == (True, [])

    def test_two_negative_one_positive_pairs_balanced(self):
        x = symmetric(3, [(1, 2, -1), (2, 3, -1), (1, 3, 1)])
        ok, violations = is_triad_wise_balanced(x)
        assert ok and not violations

    def test_one_negative_pair_unbalanced(self):
        x = symmetric(3, [(1, 2, -1), (2, 3, 1), (1, 3, 1)])
        ok, violations = is_triad_wise_balanced(x)
        assert not ok
        assert {v.kind for v in violations} == {NEGATIVE_TRIAD}
        assert all(set(v.nodes) == {1, 2, 3} for v in violations)

    def test_sign_asymmetric_pair(self):
        x = AppraisalMatrix.from_edge_list(2, [(1, 2, 1), (2, 1, -1)])
        ok, violations = is_triad_wise_balanced(x)
        assert not ok
        assert violations == [BalanceViolation(ASYMMETRIC_PAIR, (1, 2))]

    def test_half_pair_is_asymmetric(self):
        x = AppraisalMatrix.from_edge_list(2, [(1, 2, 1)])
        assert is_triad_wise_balanced(x)[0] is False


class TestDetectTwoFaction:
    def test_all_positive_reports_degenerate_witness(self):
        x = symmetric(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        part = detect_two_faction(x)
        assert part.kind == NO_NEGATIVE_LINKS
        assert part.v1 == frozenset({1, 2, 3}) and not part.v2

    def test_zero_matrix_reports_degenerate_witness(self):
        part = detect_two_faction(AppraisalMatrix.zeros(3))
        assert part.kind == NO_NEGATIVE_LINKS

    def test_mutual_enemies_split(self):
        x = symmetric(2, [(1, 2, -1)])
        part = detect_two_faction(x)
        assert part.kind == TWO_FACTION
        assert {part.v1, part.v2} == {frozenset({1}), frozenset({2})}

    def test_square_with_single_negative_pair_infeasible(self):
        x = symmetric(4, [(1, 2, -1), (2, 3, 1), (3, 4, 1), (4, 1, 1)])
        assert detect_two_faction(x) is None
        assert brute_force_two_faction(x) is False

    def test_conflicting_pair_infeasible(self):
        x = AppraisalMatrix.from_edge_list(2, [(1, 2, 1), (2, 1, -1)])
        assert detect_two_faction(x) is None

    def test_disconnected_components_merge(self):
        x = symmetric(4, [(1, 2, -1), (3, 4, -1)])
        part = detect_two_faction(x)
        assert part is not None and part.kind == TWO_FACTION
        assert part.v1 | part.v2 == frozenset({1, 2, 3, 4})

    def test_agreement_with_brute_force_oracle(self):
        rng = random.Random(5)
        for _ in range(200):
            x = random_matrix(rng, rng.randrange(2, 6), p_nonzero=0.5)
            assert (detect_two_faction(x) is not None) == brute_force_two_faction(x)

    def test_agreement_with_union_find_oracle(self):
        rng = random.Random(7)
        verdicts = {True: 0, False: 0}
        for n in range(1, 13):
            for _ in range(40):
                x = random_matrix(rng, n, rng.choice((0.05, 0.15, 0.3, 0.6)))
                want = two_faction_by_union_find(x)
                assert (detect_two_faction(x) is not None) == want, x.rows
                verdicts[want] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0

    def test_witness_orientation(self):
        # v1 takes the lowest-positioned node of every link component, so an
        # isolated node (a component of one) lands in v1; labels are
        # increasing, so lowest position means lowest label.
        rng = random.Random(8)
        split = isolated = 0
        for _ in range(200):
            n = rng.randrange(2, 16)
            rows = [list(r) for r in planted_two_faction_matrix(rng, n, rng.choice((0.1, 0.2, 0.4))).rows]
            for a in rng.sample(range(n), rng.randrange(n // 3 + 1)):
                for b in range(n):
                    rows[a][b] = rows[b][a] = 0
            for a, b in itertools.permutations(range(n), 2):
                if rows[a][b] and rng.random() < 0.25:
                    rows[a][b] = 0
            x = AppraisalMatrix.from_rows(rows, sorted(rng.sample(range(1, 100), n)))
            part = detect_two_faction(x)
            assert part is not None
            assert part.v1 | part.v2 == frozenset(x.labels)
            components = list(nx.connected_components(to_nx(skeleton(x))))
            for component in components:
                assert min(component) in part.v1
            isolated += sum(len(c) == 1 for c in components)
            if part.kind == TWO_FACTION and sum(len(c) > 1 for c in components) > 1:
                split += 1
        assert split > 0 and isolated > 0

    def test_returned_partition_respects_definition(self):
        rng = random.Random(6)
        seen = 0
        for _ in range(300):
            x = random_symmetric_matrix(rng, 6, p=0.4, p_neg=0.3)
            part = detect_two_faction(x)
            if part is None or part.kind != TWO_FACTION:
                continue
            seen += 1
            for i in x.labels:
                for j in x.labels:
                    if i == j:
                        continue
                    if part.side_of(i) == part.side_of(j):
                        assert x.entry(i, j) >= 0
                    else:
                        assert x.entry(i, j) <= 0
        assert seen > 0

    def test_a_wrong_colouring_is_caught_by_the_recheck(self, monkeypatch):
        # Everyone coloured alike puts the enemies 1 and 2 in one faction; the
        # re-check against the definition must refuse that witness.
        everyone_alike = lambda friends, enemies, members: (members, 0)
        monkeypatch.setattr(balance, "_two_faction_colouring", everyone_alike)
        with pytest.raises(RuntimeError, match="invalid partition"):
            detect_two_faction(symmetric(3, [(1, 2, -1), (2, 3, 1)]))

    def test_recheck_matches_the_pairwise_definition(self):
        # Any split, valid or not, on gapped labels: the re-check answers as a
        # literal scan of every ordered pair through ``side_of`` does.
        rng = random.Random(10)
        verdicts = {True: 0, False: 0}
        for _ in range(400):
            n = rng.randrange(1, 9)
            x = random_matrix(rng, n, rng.choice((0.1, 0.3, 0.6)))
            x = AppraisalMatrix.from_rows(x.rows, sorted(rng.sample(range(1, 50), n)))
            v1 = frozenset(i for i in x.labels if rng.random() < 0.5)
            part = FactionPartition(TWO_FACTION, v1, frozenset(x.labels) - v1)
            want = all(
                x.entry(i, j) >= 0 if part.side_of(i) == part.side_of(j) else x.entry(i, j) <= 0
                for i, j in itertools.permutations(x.labels, 2)
            )
            assert balance._partition_respects_signs(x, part) == want
            verdicts[want] += 1
        assert min(verdicts.values()) > 50


class TestCycleSign:
    def test_all_positive_triangle(self):
        x = symmetric(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        assert cycle_sign(x, (1, 2, 3)) == 1

    def test_one_negative_link_on_traversal(self):
        x = AppraisalMatrix.from_edge_list(
            3, [(1, 2, -1), (2, 3, 1), (3, 1, 1), (2, 1, 1), (3, 2, 1), (1, 3, 1)]
        )
        assert cycle_sign(x, (1, 2, 3)) == -1

    def test_zero_entry_is_an_error(self):
        x = AppraisalMatrix.from_edge_list(3, [(1, 2, 1), (2, 3, 1)])
        with pytest.raises(ValueError, match="zero entry"):
            cycle_sign(x, (1, 2, 3))

    def test_matches_negative_link_parity(self):
        rng = random.Random(9)
        for _ in range(40):
            x = random_symmetric_matrix(rng, 6, p=1.0, p_neg=0.5)
            cycle = tuple(rng.sample(range(1, 7), 6))
            negatives = sum(
                1
                for idx in range(6)
                if x.entry(cycle[idx], cycle[(idx + 1) % 6]) < 0
            )
            assert cycle_sign(x, cycle) == (1 if negatives % 2 == 0 else -1)


class TestEnumerateSimpleCycles:
    def test_triangle(self):
        assert enumerate_simple_cycles(cycle_skeleton(3)) == [(1, 2, 3)]

    def test_square(self):
        assert enumerate_simple_cycles(cycle_skeleton(4)) == [(1, 2, 3, 4)]

    def test_k5_has_37_cycles(self):
        # 10 triangles + 15 squares + 12 pentagons.
        cycles = enumerate_simple_cycles(complete_skeleton(5))
        by_len = {m: sum(1 for c in cycles if len(c) == m) for m in (3, 4, 5)}
        assert by_len == {3: 10, 4: 15, 5: 12}
        assert len(cycles) == 37

    def test_matches_networkx_enumeration(self):
        rng = random.Random(3)
        for _ in range(20):
            g = skeleton(random_symmetric_matrix(rng, 7, p=0.45))
            ours = {frozenset(zip(c, c[1:] + c[:1])) for c in enumerate_simple_cycles(g)}
            theirs = {
                frozenset(zip(c, c[1:] + c[:1]))
                for c in nx.simple_cycles(to_nx(g))
                if len(c) >= 3
            }
            normalize = lambda cycles: {
                frozenset(frozenset(e) for e in c) for c in cycles
            }
            assert normalize(ours) == normalize(theirs)

    def test_max_len_bound(self):
        cycles = enumerate_simple_cycles(complete_skeleton(5), max_len=4)
        assert all(len(c) <= 4 for c in cycles)
        assert len(cycles) == 25

    def test_guard_refuses_large_graphs(self):
        big = cycle_skeleton(13)
        with pytest.raises(GuardLimitError):
            enumerate_simple_cycles(big)
        assert len(enumerate_simple_cycles(big, force=True)) == 1

    def test_ring_deeper_than_the_default_recursion_limit(self):
        # The walk keeps its own stack: a 1,100-node cycle is deeper than
        # CPython's default recursion limit of 1000 and is listed like any other.
        ring = cycle_skeleton(1100)
        assert enumerate_simple_cycles(ring, force=True) == [tuple(range(1, 1101))]
        assert enumerate_simple_cycles(ring, max_len=1099, force=True) == []


class TestAllCyclesPositive:
    def test_all_positive(self):
        x = symmetric(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        assert all_cycles_positive(x)

    def test_all_negative_triangle(self):
        x = symmetric(3, [(1, 2, -1), (2, 3, -1), (1, 3, -1)])
        assert not all_cycles_positive(x)

    def test_rejects_sign_asymmetric_input(self):
        x = AppraisalMatrix.from_edge_list(2, [(1, 2, 1), (2, 1, -1)])
        with pytest.raises(ValueError, match="sign-symmetric"):
            all_cycles_positive(x)

    def test_cross_oracle_with_two_faction_detection(self):
        # On connected sign-symmetric inputs both checks must agree with the
        # sign of every enumerated cycle.
        rng = random.Random(17)
        agreements = {True: 0, False: 0}
        for trial in range(150):
            if trial % 2:
                x = planted_two_faction_matrix(rng, rng.randrange(3, 8))
                if skeleton(x).is_connected() is False:
                    continue
            else:
                x = random_connected_symmetric(rng, rng.randrange(3, 8))
            result = cycles_positive_by_enumeration(x)
            assert (detect_two_faction(x) is not None) == result
            assert all_cycles_positive(x) == result
            agreements[result] += 1
        assert agreements[True] > 0 and agreements[False] > 0

    def test_answers_above_the_cycle_enumeration_guard(self):
        ring = [(i, i % 40 + 1, -1 if i == 1 else 1) for i in range(1, 41)]
        assert not all_cycles_positive(symmetric(40, ring))
        planted = planted_two_faction_matrix(random.Random(19), 40)
        assert skeleton(planted).n > CYCLE_NODE_LIMIT
        assert all_cycles_positive(planted)


class TestEgoNetworkBalance:
    def test_balanced_matrix_passes(self):
        x = symmetric(3, [(1, 2, -1), (2, 3, -1), (1, 3, 1)])
        assert all_ego_networks_two_faction(x)

    def test_conflicting_pair_fails_at_node_one(self):
        x = AppraisalMatrix.from_edge_list(2, [(1, 2, 1), (2, 1, -1)])
        assert not all_ego_networks_two_faction(x)
        assert ego_networks_two_faction(x) == {1: False, 2: False}

    @staticmethod
    def _case(rng, n, kind):
        """A matrix of the given kind; every kind but ``independent`` starts planted."""
        if kind == "independent":
            return random_matrix(rng, n, rng.random())
        rows = [list(r) for r in planted_two_faction_matrix(rng, n, rng.random()).rows]
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b and rows[a][b]]
        if kind == "opposite" and pairs:
            a, b = rng.choice(pairs)
            rows[a][b] = -rows[b][a]
        elif kind == "one-way":
            for a, b in rng.sample(pairs, len(pairs) // 2):
                rows[a][b] = 0
        elif kind == "isolated":
            for a in rng.sample(range(n), (n + 1) // 2):
                for b in range(n):
                    rows[a][b] = rows[b][a] = 0
        return AppraisalMatrix.from_rows(rows)

    @pytest.mark.parametrize("kind", ["independent", "planted", "opposite", "one-way", "isolated"])
    def test_matches_detect_two_faction_on_each_ego_network(self, kind):
        rng = random.Random(f"ego-{kind}")
        verdicts = {True: 0, False: 0}
        for n in range(1, 13):
            for _ in range(15):
                x = self._case(rng, n, kind)
                got = ego_networks_two_faction(x)
                egos = {i: ego_network(x, i)[1] for i in x.labels}
                want = {i: detect_two_faction(ego) is not None for i, ego in egos.items()}
                assert got == want, x.rows
                assert got == {i: two_faction_by_union_find(ego) for i, ego in egos.items()}, x.rows
                assert all_ego_networks_two_faction(x) == all(got.values())
                for ok in got.values():
                    verdicts[ok] += 1
        assert verdicts[True] > 0
        if kind in ("independent", "opposite"):
            assert verdicts[False] > 0


class TestColouringAgainstRowScan:
    """The mask colouring answers as the row-scan colouring it replaced."""

    @staticmethod
    def _cases():
        rng = random.Random("colouring-oracle")
        for n in range(1, 14):
            for _ in range(12):
                yield varied_matrix(rng, rng.choice(MATRIX_KINDS))
                yield random_symmetric_matrix(rng, n, rng.random(), rng.random())
                planted = planted_two_faction_matrix(rng, n, rng.random())
                yield AppraisalMatrix.from_rows(planted.rows, sorted(rng.sample(range(1, 40), n)))

    def test_global_colouring_and_witness(self):
        verdicts = {True: 0, False: 0}
        for x in self._cases():
            want = two_faction_colouring_by_row_scan(x.rows, range(x.n))
            got = balance._two_faction_colouring(*balance._sign_neighbours(x), (1 << x.n) - 1)
            if want is None:
                assert got is None, x.rows
            else:
                assert got == (
                    sum(1 << a for a, c in enumerate(want) if c > 0),
                    sum(1 << a for a, c in enumerate(want) if c < 0),
                ), x.rows
            part = detect_two_faction(x)
            if x.negative_count():
                assert (part is None) == (want is None), x.rows
                if part is not None:
                    assert part.v1 == {i for i, c in zip(x.labels, want) if c > 0}
                    assert part.v2 == {i for i, c in zip(x.labels, want) if c < 0}
            verdicts[want is not None] += 1
        assert min(verdicts.values()) > 100, verdicts

    def test_ego_verdicts(self):
        verdicts = {True: 0, False: 0}
        for x in self._cases():
            rows = x.rows
            want = {
                i: two_faction_colouring_by_row_scan(
                    rows, [b for b, v in enumerate(rows[a]) if v or b == a]
                )
                is not None
                for a, i in enumerate(x.labels)
            }
            assert ego_networks_two_faction(x) == want, rows
            for ok in want.values():
                verdicts[ok] += 1
        assert min(verdicts.values()) > 100, verdicts


class TestStructuralProperties:
    def test_two_faction_implies_triad_wise_on_bilateral(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(300):
            x = planted_two_faction_matrix(rng, rng.randrange(2, 8))
            part = detect_two_faction(x)
            assert part is not None
            checked += 1
            assert is_triad_wise_balanced(x)[0]
        assert checked == 300

    def test_triad_wise_implies_ego_two_faction_random(self):
        rng = random.Random(29)
        hits = 0
        for _ in range(400):
            x = random_symmetric_matrix(rng, rng.randrange(2, 8), p=0.5, p_neg=0.3)
            if is_triad_wise_balanced(x)[0]:
                hits += 1
                assert all_ego_networks_two_faction(x)
        assert hits > 0

    def test_triad_wise_implies_ego_two_faction_exhaustive_n3(self):
        # All 3^6 three-node matrices.
        cells = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        for values in itertools.product((-1, 0, 1), repeat=6):
            rows = [[0] * 3 for _ in range(3)]
            for (a, b), v in zip(cells, values):
                rows[a][b] = v
            x = AppraisalMatrix.from_rows(rows)
            if is_triad_wise_balanced(x)[0]:
                assert all_ego_networks_two_faction(x)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_violation_list_empty_iff_balanced(seed):
    x = random_matrix(random.Random(seed), 5)
    ok, violations = is_triad_wise_balanced(x)
    assert ok == (not violations)


class TestCostByLinks:
    def test_empty_1024_node_matrix_is_fast(self):
        # A node-triple scan took about 14 s here; a walk over link masks
        # has no links to follow.  The bound is loose on purpose.
        x = AppraisalMatrix.zeros(1024)
        for check, expected in (
            (is_triad_wise_balanced, (True, [])),
            (enumerate_triads, []),
            (count_triads, 0),
        ):
            start = time.perf_counter()
            assert check(x) == expected
            assert time.perf_counter() - start < 5.0, check.__name__


_PARTITION = FactionPartition(TWO_FACTION, frozenset({1, 2}), frozenset({3}))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BalanceViolation(ASYMMETRIC_PAIR, (1, 2, 3)),
         "asymmetric-pair violations name exactly two nodes"),
        (lambda: BalanceViolation(NEGATIVE_TRIAD, (1, 2)),
         "negative-triad violations name exactly three nodes"),
        (lambda: BalanceViolation("negative-pair", (1, 2)), "unknown violation kind 'negative-pair'"),
        (lambda: FactionPartition("three-faction", frozenset({1})),
         "unknown partition kind 'three-faction'"),
        (lambda: FactionPartition(NO_NEGATIVE_LINKS, frozenset({1}), frozenset({2})),
         "no-negative-links witness must have empty v2"),
        (lambda: FactionPartition(TWO_FACTION, frozenset({1, 2}), frozenset({2, 3})),
         "factions must be disjoint"),
        (lambda: _PARTITION.side_of(4), "node 4 not covered by partition"),
        (lambda: cycle_sign(AppraisalMatrix.zeros(3), (1,)), "a cycle needs at least two nodes"),
        (lambda: cycle_sign(AppraisalMatrix.zeros(3), (1, 2, 1)), "cycle nodes must be distinct"),
    ],
    ids=[
        "violation-pair-of-three", "violation-triad-of-two", "violation-unknown-kind",
        "partition-unknown-kind", "partition-no-negative-with-v2", "partition-overlap",
        "side-of-uncovered", "cycle-sign-one-node", "cycle-sign-repeated-node",
    ],
)
def test_refusal_names_its_fault(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert type(caught.value) is ValueError
    assert str(caught.value) == message
