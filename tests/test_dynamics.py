import itertools
import json
import math
import random
from collections import Counter, deque

import pytest

from balance_lab import dynamics
from balance_lab.balance import detect_two_faction, is_triad_wise_balanced
from balance_lab.dynamics import (
    HOMOPHILY,
    INFLUENCE,
    OPINION_GOSSIP,
    PERSON_OPINION_HOMOPHILY,
    SYMMETRY,
    AbsorptionRecord,
    SihParams,
    SiohParams,
    SiohState,
    UpdateEvent,
    constructive_sih_sequence,
    constructive_sioh_sequence,
    is_sih_equilibrium,
    is_sioh_equilibrium,
    potential_h,
    potential_h_xy,
    run_sih,
    run_sioh,
    sih_candidate_pairs,
    sih_step,
    sioh_step,
)
from balance_lab.experiments import conflict_ratio
from balance_lab.graphs import AppraisalMatrix, induced_subgraph, is_bilateral, skeleton

import reference_dynamics as ref
from conftest import random_matrix, random_symmetric_matrix


def symmetric(n, pairs):
    entries = []
    for i, j, s in pairs:
        entries.extend([(i, j, s), (j, i, s)])
    return AppraisalMatrix.from_edge_list(n, entries)


ALL_NEGATIVE_TRIANGLE = symmetric(3, [(1, 2, -1), (2, 3, -1), (1, 3, -1)])


class ScriptedRng:
    """Feeds predetermined values to randrange/random calls."""

    def __init__(self, script):
        self.script = deque(script)

    def randrange(self, stop):
        kind, value = self.script.popleft()
        assert kind == "randrange" and 0 <= value < stop
        return value

    def random(self):
        kind, value = self.script.popleft()
        assert kind == "random"
        return value


# ---------------------------------------------------------------------------
# Independent event-legality validators (re-implementations for testing).
# ---------------------------------------------------------------------------


def replay_sih(x0, events):
    """Replay events, checking each against the update-rule preconditions."""
    state = {
        (i, j): x0.entry(i, j)
        for i in x0.labels
        for j in x0.labels
        if i != j
    }
    nodes = x0.labels
    for ev in events:
        i, j = ev.i, ev.j
        assert state[(i, j)] != 0 or state[(j, i)] != 0, "pair has no link"
        assert ev.old == state[(i, j)]
        common = [
            k for k in nodes if k not in (i, j) and state[(i, k)] * state[(j, k)] != 0
        ]
        if ev.mechanism == SYMMETRY:
            assert ev.new == state[(j, i)]
        elif ev.mechanism == INFLUENCE:
            assert ev.k in common
            assert ev.new == state[(i, ev.k)] * state[(ev.k, j)]
        elif ev.mechanism == HOMOPHILY:
            assert ev.k in common
            assert ev.new == state[(i, ev.k)] * state[(j, ev.k)]
        else:
            raise AssertionError(f"unexpected mechanism {ev.mechanism}")
        if ev.mechanism in (INFLUENCE, HOMOPHILY):
            assert common, "influence/homophily need a common neighbor"
        state[(i, j)] = ev.new
    return state


def replay_sioh(state0, events):
    x0, y0 = state0.x, state0.y
    nodes = x0.labels
    x = {(i, j): x0.entry(i, j) for i in nodes for j in nodes if i != j}
    y = {node: y0[x0.index_of(node)] for node in nodes}
    for ev in events:
        i, j = ev.i, ev.j
        assert x[(i, j)] != 0 or x[(j, i)] != 0
        if ev.mechanism == OPINION_GOSSIP:
            assert x[(i, j)] != 0
            assert ev.old == y[i] and ev.new == x[(i, j)] * y[j]
            y[i] = ev.new
            continue
        if ev.mechanism == PERSON_OPINION_HOMOPHILY:
            assert x[(i, j)] != 0
            assert ev.old == x[(i, j)] and ev.new == y[i] * y[j]
            x[(i, j)] = ev.new
            continue
        common = [k for k in nodes if k not in (i, j) and x[(i, k)] * x[(j, k)] != 0]
        assert ev.old == x[(i, j)]
        if ev.mechanism == SYMMETRY:
            assert ev.new == x[(j, i)]
        elif ev.mechanism == INFLUENCE:
            assert ev.k in common and ev.new == x[(i, ev.k)] * x[(ev.k, j)]
        elif ev.mechanism == HOMOPHILY:
            assert ev.k in common and ev.new == x[(i, ev.k)] * x[(j, ev.k)]
        else:
            raise AssertionError(ev.mechanism)
        x[(i, j)] = ev.new
    return x, y


class TestParams:
    def test_defaults_are_valid(self):
        SihParams()
        SiohParams()

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="^p1 must be positive$"):
            SihParams(0.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="^q2 must be positive$"):
            SiohParams(1.0, -0.5, 0.5)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match=r"^p1, p2 and p3 must sum to 1 \(no renormalization\)$"):
            SihParams(0.5, 0.4, 0.2)
        with pytest.raises(ValueError, match=r"^q1, q2 and q3 must sum to 1 \(no renormalization\)$"):
            SiohParams(0.5, 0.3, 0.2000000005)

    def test_opinions_validated(self):
        x = AppraisalMatrix.zeros(2)
        with pytest.raises(ValueError):
            SiohState(x, (1, 0))
        with pytest.raises(ValueError):
            SiohState(x, (1,))


class TestCandidatePairs:
    def test_zero_matrix_has_none(self):
        assert sih_candidate_pairs(AppraisalMatrix.zeros(3)) == []

    def test_half_pair_yields_both_orders(self):
        x = AppraisalMatrix.from_edge_list(2, [(1, 2, 1)])
        assert sih_candidate_pairs(x) == [(1, 2), (2, 1)]

    def test_complete_bilateral_triangle(self):
        x = symmetric(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        assert len(sih_candidate_pairs(x)) == 6


class TestSihStep:
    def test_forced_symmetry_without_common_neighbor(self):
        x = AppraisalMatrix.from_edge_list(2, [(1, 2, 1)])
        # candidates [(1,2),(2,1)]; index 1 picks (2,1); no common neighbor.
        rng = ScriptedRng([("randrange", 1)])
        x2, event = sih_step(x, SihParams(), rng)
        assert x2.entry(2, 1) == 1
        assert event.mechanism == SYMMETRY and event.k is None
        assert (event.i, event.j, event.old, event.new) == (2, 1, 0, 1)

    def test_homophily_on_negative_triangle(self):
        # pair index 0 -> (1,2); draw 0.9 -> homophily; neighbor index 0 -> 3.
        rng = ScriptedRng([("randrange", 0), ("random", 0.9), ("randrange", 0)])
        x2, event = sih_step(ALL_NEGATIVE_TRIANGLE, SihParams(), rng)
        assert event.mechanism == HOMOPHILY and event.k == 3
        assert x2.entry(1, 2) == 1  # (-1) * (-1)

    def test_influence_uses_neighbor_appraisal_of_target(self):
        x = symmetric(3, [(1, 2, 1), (2, 3, -1), (1, 3, 1)])
        rng = ScriptedRng([("randrange", 0), ("random", 0.5), ("randrange", 0)])
        x2, event = sih_step(x, SihParams(), rng)
        assert event.mechanism == INFLUENCE and event.k == 3
        assert x2.entry(1, 2) == x.entry(1, 3) * x.entry(3, 2) == -1

    def test_no_candidates_is_an_error(self):
        with pytest.raises(ValueError, match="no candidate"):
            sih_step(AppraisalMatrix.zeros(2), SihParams(), random.Random(0))

    def test_mechanism_frequencies_match_weights(self):
        x = symmetric(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        params = SihParams(0.2, 0.3, 0.5)
        rng = random.Random(12345)
        n_steps = 100_000
        counts = Counter()
        for _ in range(n_steps):
            _, event = sih_step(x, params, rng)
            counts[event.mechanism] += 1
        for mech, p in ((SYMMETRY, 0.2), (INFLUENCE, 0.3), (HOMOPHILY, 0.5)):
            sigma = math.sqrt(n_steps * p * (1 - p))
            assert abs(counts[mech] - n_steps * p) <= 3 * sigma


class TestSihEquilibrium:
    def test_all_positive_bilateral(self):
        assert is_sih_equilibrium(symmetric(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)]))

    def test_unbalanced_triangle_is_not(self):
        assert not is_sih_equilibrium(symmetric(3, [(1, 2, -1), (2, 3, 1), (1, 3, 1)]))

    def test_zero_matrix_is_equilibrium(self):
        assert is_sih_equilibrium(AppraisalMatrix.zeros(3))

    def test_exhaustive_n3_matches_triad_wise_balance(self):
        cells = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        for values in itertools.product((-1, 0, 1), repeat=6):
            rows = [[0] * 3 for _ in range(3)]
            for (a, b), v in zip(cells, values):
                rows[a][b] = v
            x = AppraisalMatrix.from_rows(rows)
            assert is_sih_equilibrium(x) == is_triad_wise_balanced(x)[0]

    def test_exhaustive_n4_matches_triad_wise_balance(self):
        # All 3^12 four-node matrices.
        cells = [(a, b) for a in range(4) for b in range(4) if a != b]
        mismatches = 0
        for values in itertools.product((-1, 0, 1), repeat=12):
            rows = [[0] * 4 for _ in range(4)]
            for (a, b), v in zip(cells, values):
                rows[a][b] = v
            x = AppraisalMatrix.from_rows(rows)
            if is_sih_equilibrium(x) != is_triad_wise_balanced(x)[0]:
                mismatches += 1
        assert mismatches == 0

    def test_random_up_to_n8_matches_triad_wise_balance(self):
        rng = random.Random(71)
        for _ in range(2000):
            x = random_matrix(rng, rng.randrange(2, 9), p_nonzero=rng.random())
            assert is_sih_equilibrium(x) == is_triad_wise_balanced(x)[0]


def near_equilibrium_state(rng, n):
    """A random (rows, opinions, labels), often absorbed for SIH or SIOH.

    Half start from factions: sign-symmetric links, positive inside a faction
    and negative across, with the faction signs as opinions on half of those.
    The other half are arbitrary matrices.  Then, each with some chance: one
    entry flipped, one link made one-way, some rows zeroed, gapped labels.
    """
    if rng.random() < 0.5:
        side = [rng.choice((-1, 1)) for _ in range(n)]
        p = rng.random()
        rows = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < p:
                    rows[a][b] = rows[b][a] = side[a] * side[b]
        y = tuple(side) if rng.random() < 0.5 else tuple(rng.choice((-1, 1)) for _ in range(n))
    else:
        rows = [list(r) for r in random_matrix(rng, n, p_nonzero=rng.random()).rows]
        y = tuple(rng.choice((-1, 1)) for _ in range(n))
    linked = [(a, b) for a in range(n) for b in range(n) if rows[a][b]]
    if linked and rng.random() < 0.2:
        a, b = rng.choice(linked)
        rows[a][b] = -rows[a][b]
    if linked and rng.random() < 0.2:
        a, b = rng.choice(linked)
        rows[a][b] = 0
    if rng.random() < 0.2:
        for a in rng.sample(range(n), rng.randrange(1, n + 1)):
            rows[a] = [0] * n
    labels = sorted(rng.sample(range(1, 4 * n), n)) if rng.random() < 0.5 else None
    return rows, y, labels


class TestEquilibriumMatchesReference:
    """The link walk gives the verdicts of the dense scan it replaced.

    ``reference_dynamics._equilibrium`` is the frozen dense check: every
    ordered pair, and every third node under each linked pair.
    """

    def test_every_three_node_state(self):
        cells = [(a, b) for a in range(3) for b in range(3) if a != b]
        opinions = list(itertools.product((-1, 1), repeat=3))
        verdicts = Counter()
        for values in itertools.product((-1, 0, 1), repeat=6):
            rows = [[0] * 3 for _ in range(3)]
            for (a, b), v in zip(cells, values):
                rows[a][b] = v
            x = AppraisalMatrix.from_rows(rows)
            got = is_sih_equilibrium(x)
            assert got == ref._equilibrium(x, None), rows
            verdicts["sih", got] += 1
            for y in opinions:
                got = is_sioh_equilibrium(SiohState(x, y))
                assert got == ref._equilibrium(x, y), (rows, y)
                verdicts["sioh", got] += 1
        assert sum(verdicts.values()) == 729 + 5832
        assert min(verdicts.values()) > 0, verdicts

    def test_random_states(self):
        rng = random.Random(3030)
        verdicts = Counter()
        for case in range(2000):
            rows, y, labels = near_equilibrium_state(rng, rng.randrange(2, 13))
            x = AppraisalMatrix.from_rows(rows, labels)
            got = is_sih_equilibrium(x), is_sioh_equilibrium(SiohState(x, y))
            assert got == (ref._equilibrium(x, None), ref._equilibrium(x, y)), (case, rows, y)
            verdicts.update(zip(("sih", "sioh"), got))
        # Both verdicts are common for both processes, so neither side is vacuous.
        assert min(verdicts.values()) >= 200, verdicts


def reachable_absorbing_states(x0):
    """Oracle: BFS over every legal update outcome of the whole chain."""
    n = x0.n

    def outcomes(rows):
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not (rows[i][j] or rows[j][i]):
                    continue
                ks = [
                    k
                    for k in range(n)
                    if k not in (i, j) and rows[i][k] * rows[j][k] != 0
                ]
                values = {rows[j][i]}
                for k in ks:
                    values.add(rows[i][k] * rows[k][j])
                    values.add(rows[i][k] * rows[j][k])
                for v in values:
                    out.append((i, j, v))
        return out

    start = tuple(tuple(r) for r in x0.rows)
    seen = {start}
    frontier = [start]
    absorbing = set()
    while frontier:
        state = frontier.pop()
        rows = [list(r) for r in state]
        moves = outcomes(rows)
        changed = False
        for i, j, v in moves:
            if v == state[i][j]:
                continue
            changed = True
            nxt = [list(r) for r in state]
            nxt[i][j] = v
            key = tuple(tuple(r) for r in nxt)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
        if not moves or not changed:
            absorbing.add(state)
    return absorbing


class TestRunSih:
    def test_balanced_input_absorbs_at_zero(self):
        x = symmetric(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        record = run_sih(x, SihParams(), seed=1)
        assert record.absorbed and record.steps == 0 and record.final_x == x

    def test_all_negative_triangle_absorbs_into_enumerated_set(self):
        # The enumeration finds the three one-positive-pair states plus the
        # all-positive state: sign-asymmetric intermediate states let
        # influence flip additional pairs.
        absorbing = reachable_absorbing_states(ALL_NEGATIVE_TRIANGLE)
        profiles = set()
        for state in absorbing:
            x = AppraisalMatrix.from_rows(state)
            assert is_triad_wise_balanced(x)[0]
            positives = sum(1 for row in state for v in row if v > 0)
            negatives = sum(1 for row in state for v in row if v < 0)
            profiles.add((positives, negatives))
        assert profiles == {(2, 4), (6, 0)}
        assert len(absorbing) == 4
        for seed in range(20):
            record = run_sih(ALL_NEGATIVE_TRIANGLE, SihParams(), seed=seed)
            assert record.absorbed
            assert record.final_x.rows in absorbing

    def test_all_negative_triangle_matches_the_exact_chain(self):
        # The exact means of the 60-transient-state chain from the
        # all-negative triangle under SihParams(), solved once with
        # Fractions: E[steps] = 229/19 and E[c_inf] = 4077340/6763763.  Each
        # sample mean over seeds 0..9999 must lie within 4 standard errors.
        expected = {"steps": 229 / 19, "c_inf": 4077340 / 6763763}
        samples = {"steps": [], "c_inf": []}
        for seed in range(10_000):
            record = run_sih(ALL_NEGATIVE_TRIANGLE, SihParams(), seed=seed)
            assert record.absorbed
            samples["steps"].append(record.steps)
            samples["c_inf"].append(conflict_ratio(record.final_x))
        for name, values in samples.items():
            mean = sum(values) / len(values)
            sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
            z = (mean - expected[name]) / (sd / math.sqrt(len(values)))
            assert abs(z) < 4, (name, mean, z)

    def test_deterministic_given_seed(self):
        x0 = random_symmetric_matrix(random.Random(1), 6, p=0.6, p_neg=0.6)
        a = run_sih(x0, SihParams(), seed=99, log=True)
        b = run_sih(x0, SihParams(), seed=99, log=True)
        assert a == b

    def test_log_replays_to_final_state(self):
        rng = random.Random(4)
        for seed in range(10):
            x0 = random_matrix(rng, 5, p_nonzero=0.6)
            record = run_sih(x0, SihParams(), seed=seed, log=True)
            state = replay_sih(x0, record.events)
            assert record.steps == len(record.events)
            for i in x0.labels:
                for j in x0.labels:
                    if i != j:
                        assert state[(i, j)] == record.final_x.entry(i, j)
            if record.absorbed:
                assert is_triad_wise_balanced(record.final_x)[0]

    def test_max_steps_reports_non_absorption(self):
        record = run_sih(ALL_NEGATIVE_TRIANGLE, SihParams(), seed=0, max_steps=1)
        assert not record.absorbed and record.steps == 1

    def test_bilateral_skeleton_constant(self):
        rng = random.Random(8)
        for seed in range(15):
            x0 = random_symmetric_matrix(rng, 6, p=0.5, p_neg=0.5)
            record = run_sih(x0, SihParams(), seed=seed, log=True)
            assert is_bilateral(record.final_x)
            assert skeleton(record.final_x) == skeleton(x0)
            # No event may zero a link or create one once bilateral.
            for ev in record.events:
                assert ev.new != 0

    def test_absorbed_states_have_two_faction_ego_networks(self):
        from balance_lab.balance import all_ego_networks_two_faction
        from balance_lab.experiments import ErParams, gen_er_signed

        for seed in range(50):
            x0 = gen_er_signed(ErParams(8, 0.4, 0.5), seed=seed)
            record = run_sih(x0, SihParams(), seed=seed)
            assert record.absorbed
            assert all_ego_networks_two_faction(record.final_x)

    def test_zero_pairs_stay_zero_from_any_start(self):
        rng = random.Random(13)
        for seed in range(15):
            x0 = random_matrix(rng, 6, p_nonzero=0.4)
            record = run_sih(x0, SihParams(), seed=seed, max_steps=3000)
            for i in x0.labels:
                for j in x0.labels:
                    if i != j and x0.entry(i, j) == 0 and x0.entry(j, i) == 0:
                        assert record.final_x.entry(i, j) == 0


class TestLedgerConfirmedByScan:
    """Every absorbed result is confirmed by a structural scan, step 0 included."""

    def test_symmetric_start_absorbed_by_a_lying_ledger_raises(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_bad_tris_through", lambda *args: 0)
        with pytest.raises(RuntimeError, match="balance scan"):
            run_sih(ALL_NEGATIVE_TRIANGLE, SihParams(), seed=0)

    def test_sioh_start_absorbed_by_a_lying_ledger_raises(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_bad_links_at", lambda *args: 0)
        state = SiohState(symmetric(2, [(1, 2, -1)]), (1, 1))
        with pytest.raises(RuntimeError, match="alignment scan"):
            run_sioh(state, SiohParams(), seed=0)

    def test_asymmetric_start_raises_once_the_lying_ledger_absorbs(self, monkeypatch):
        # With no triad ever counted, the ledger absorbs as soon as the
        # matrix is symmetric; a run may only return a balanced state.
        monkeypatch.setattr(dynamics, "_bad_tris_through", lambda *args: 0)
        x0 = ALL_NEGATIVE_TRIANGLE.with_entry(3, 1, 1)
        raised = []
        for seed in range(10):
            try:
                record = run_sih(x0, SihParams(), seed=seed)
            except RuntimeError as exc:
                assert "balance scan" in str(exc)
                raised.append(seed)
            else:
                assert record.absorbed and is_triad_wise_balanced(record.final_x)[0]
        assert raised


class TestConstructiveSih:
    def test_balanced_input_gives_empty_sequence(self):
        x = symmetric(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        record = constructive_sih_sequence(x)
        assert record.steps == 0 and record.events == ()

    def test_all_negative_triangle_trace(self):
        record = constructive_sih_sequence(ALL_NEGATIVE_TRIANGLE)
        assert record.absorbed and record.steps == 2
        assert potential_h(ALL_NEGATIVE_TRIANGLE) == 6
        assert potential_h(record.final_x) == 4
        mechanisms = [e.mechanism for e in record.events]
        assert mechanisms == [HOMOPHILY, SYMMETRY]

    def test_random_inputs_converge_with_monotone_potential(self):
        rng = random.Random(21)
        for _ in range(80):
            x0 = random_matrix(rng, rng.randrange(2, 9), p_nonzero=0.5)
            record = constructive_sih_sequence(x0)
            assert record.absorbed
            assert is_triad_wise_balanced(record.final_x)[0]
            state = replay_sih(x0, record.events)
            for i in x0.labels:
                for j in x0.labels:
                    if i != j:
                        assert state[(i, j)] == record.final_x.entry(i, j)
            phase2 = [e for e in record.events if e.old != 0]
            n = x0.n
            assert len(phase2) < n * (n - 1)
            for e in phase2:
                assert e.old == -1 and e.new == 1


class TestSiohStep:
    def test_opinion_gossip_formula(self):
        x = symmetric(2, [(1, 2, 1)])
        state = SiohState(x, (1, -1))
        # pair (1,2) at index 0; draw 0.1 < q1 -> gossip.
        rng = ScriptedRng([("randrange", 0), ("random", 0.1)])
        new_state, event = sioh_step(state, SiohParams(), rng)
        assert event.mechanism == OPINION_GOSSIP
        assert new_state.y == (-1, -1)  # y_1 <- X_12 * y_2

    def test_person_opinion_homophily_formula(self):
        x = symmetric(2, [(1, 2, 1)])
        state = SiohState(x, (1, -1))
        rng = ScriptedRng([("randrange", 0), ("random", 0.5)])
        new_state, event = sioh_step(state, SiohParams(), rng)
        assert event.mechanism == PERSON_OPINION_HOMOPHILY
        assert new_state.x.entry(1, 2) == -1  # y_1 * y_2

    def test_zero_entry_forces_symmetry(self):
        x = AppraisalMatrix.from_edge_list(2, [(2, 1, -1)])
        state = SiohState(x, (1, 1))
        rng = ScriptedRng([("randrange", 0)])  # pair (1,2) has X_12 = 0
        new_state, event = sioh_step(state, SiohParams(), rng)
        assert event.mechanism == SYMMETRY
        assert new_state.x.entry(1, 2) == -1

    def test_branch_frequencies_match_weights(self):
        x = symmetric(2, [(1, 2, 1)])
        state = SiohState(x, (1, -1))
        params = SiohParams(0.5, 0.3, 0.2)
        rng = random.Random(777)
        n_steps = 100_000
        counts = Counter()
        for _ in range(n_steps):
            _, event = sioh_step(state, params, rng)
            if event.mechanism == OPINION_GOSSIP:
                counts["q1"] += 1
            elif event.mechanism == PERSON_OPINION_HOMOPHILY:
                counts["q2"] += 1
            else:
                counts["q3"] += 1
        for key, p in (("q1", 0.5), ("q2", 0.3), ("q3", 0.2)):
            sigma = math.sqrt(n_steps * p * (1 - p))
            assert abs(counts[key] - n_steps * p) <= 3 * sigma


class TestSiohEquilibrium:
    def test_aligned_positive_pair(self):
        state = SiohState(symmetric(2, [(1, 2, 1)]), (1, 1))
        assert is_sioh_equilibrium(state)

    def test_opposed_negative_pair(self):
        state = SiohState(symmetric(2, [(1, 2, -1)]), (1, -1))
        assert is_sioh_equilibrium(state)

    def test_misaligned_positive_pair(self):
        state = SiohState(symmetric(2, [(1, 2, 1)]), (1, -1))
        assert not is_sioh_equilibrium(state)

    def test_exhaustive_n3_matches_structural_form(self):
        cells = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        for values in itertools.product((-1, 0, 1), repeat=6):
            rows = [[0] * 3 for _ in range(3)]
            for (a, b), v in zip(cells, values):
                rows[a][b] = v
            x = AppraisalMatrix.from_rows(rows)
            for y in itertools.product((-1, 1), repeat=3):
                state = SiohState(x, y)
                structural = all(
                    rows[a][b] == rows[b][a] for a in range(3) for b in range(3)
                ) and all(
                    rows[a][b] == 0 or rows[a][b] == y[a] * y[b]
                    for a in range(3)
                    for b in range(3)
                    if a != b
                )
                assert is_sioh_equilibrium(state) == structural

    def test_random_up_to_n8_matches_structural_form(self):
        # 1,000 states aligned by construction, links X_ij = X_ji = y_i * y_j
        # on a random pair set, each also checked with one entry or one
        # opinion changed: 2,000 verdicts against the structural form.
        rng = random.Random(2811)
        verdicts = Counter()
        for _ in range(1000):
            n = rng.randrange(4, 9)
            y = [rng.choice((-1, 1)) for _ in range(n)]
            rows = [[0] * n for _ in range(n)]
            p = rng.random()
            for a, b in itertools.combinations(range(n), 2):
                if rng.random() < p:
                    rows[a][b] = rows[b][a] = y[a] * y[b]
            changed_rows, changed_y = [list(r) for r in rows], list(y)
            if rng.random() < 0.5:
                a, b = rng.sample(range(n), 2)
                changed_rows[a][b] = rng.choice([v for v in (-1, 0, 1) if v != rows[a][b]])
            else:
                changed_y[rng.randrange(n)] *= -1
            for r, yv in ((rows, y), (changed_rows, changed_y)):
                structural = all(
                    r[a][b] == r[b][a] and r[a][b] in (0, yv[a] * yv[b])
                    for a in range(n)
                    for b in range(n)
                    if a != b
                )
                state = SiohState(AppraisalMatrix.from_rows(r), yv)
                assert is_sioh_equilibrium(state) == structural
                verdicts[structural] += 1
        # Every aligned state holds; a change breaks alignment unless it
        # flips the opinion of a node without links.
        assert verdicts[True] >= 1000 and verdicts[False] > 500


def sioh_reachable_absorbing(state0):
    """BFS oracle over the tiny two-node chain."""
    n = state0.x.n
    assert n == 2

    def moves(x12, x21, y1, y2):
        out = []
        for (i, j), xij, xji, yi, yj in (
            ((0, 1), x12, x21, y1, y2),
            ((1, 0), x21, x12, y2, y1),
        ):
            if xij == 0 and xji == 0:
                continue
            if xij == 0:
                out.append((i, j, "x", xji))
                continue
            out.append((i, "y", "y", xij * yj))
            out.append((i, j, "x", yi * yj))
            out.append((i, j, "x", xji))  # embedded SIH symmetry
        return out

    start = (state0.x.entry(1, 2), state0.x.entry(2, 1), state0.y[0], state0.y[1])
    seen = {start}
    frontier = [start]
    absorbing = set()
    while frontier:
        s = frontier.pop()
        x12, x21, y1, y2 = s
        changed = False
        for move in moves(x12, x21, y1, y2):
            nxt = list(s)
            if move[1] == "y":
                idx = 2 + move[0]
                if nxt[idx] == move[3]:
                    continue
                nxt[idx] = move[3]
            else:
                i, j, _, v = move
                idx = 0 if (i, j) == (0, 1) else 1
                if nxt[idx] == v:
                    continue
                nxt[idx] = v
            changed = True
            key = tuple(nxt)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
        if not changed:
            absorbing.add(s)
    return absorbing


class TestRunSioh:
    def test_equilibrium_absorbs_at_zero(self):
        state = SiohState(symmetric(2, [(1, 2, 1)]), (1, 1))
        record = run_sioh(state, SiohParams(), seed=3)
        assert record.absorbed and record.steps == 0

    def test_two_node_chain_absorbs_into_enumerated_set(self):
        state0 = SiohState(symmetric(2, [(1, 2, 1)]), (1, -1))
        absorbing = sioh_reachable_absorbing(state0)
        assert absorbing == {(1, 1, 1, 1), (1, 1, -1, -1), (-1, -1, 1, -1), (-1, -1, -1, 1)}
        for seed in range(25):
            record = run_sioh(state0, SiohParams(), seed=seed)
            assert record.absorbed
            final = (
                record.final_x.entry(1, 2),
                record.final_x.entry(2, 1),
                record.final_y[0],
                record.final_y[1],
            )
            assert final in absorbing

    def test_deterministic_given_seed(self):
        x0 = random_symmetric_matrix(random.Random(2), 5, p=0.6, p_neg=0.5)
        state0 = SiohState(x0, (1, -1, 1, -1, 1))
        a = run_sioh(state0, SiohParams(), seed=55, log=True)
        b = run_sioh(state0, SiohParams(), seed=55, log=True)
        assert a == b

    def test_log_replays_and_final_is_equilibrium(self):
        rng = random.Random(6)
        for seed in range(10):
            x0 = random_matrix(rng, 4, p_nonzero=0.6)
            y0 = tuple(rng.choice((-1, 1)) for _ in range(4))
            state0 = SiohState(x0, y0)
            record = run_sioh(state0, SiohParams(), seed=seed, log=True)
            x, y = replay_sioh(state0, record.events)
            for i in x0.labels:
                for j in x0.labels:
                    if i != j:
                        assert x[(i, j)] == record.final_x.entry(i, j)
                assert y[i] == record.final_y[x0.index_of(i)]
            if record.absorbed:
                assert is_sioh_equilibrium(SiohState(record.final_x, record.final_y))
                assert detect_two_faction(record.final_x) is not None


class TestConstructiveSioh:
    def test_equilibrium_gives_empty_sequence(self):
        state = SiohState(symmetric(2, [(1, 2, -1)]), (1, -1))
        record = constructive_sioh_sequence(state)
        assert record.steps == 0

    def test_negative_pair_with_agreeing_opinions(self):
        state = SiohState(symmetric(2, [(1, 2, -1)]), (1, 1))
        record = constructive_sioh_sequence(state)
        assert record.absorbed
        assert [e.mechanism for e in record.events] == [
            PERSON_OPINION_HOMOPHILY,
            SYMMETRY,
        ]
        assert potential_h_xy(SiohState(record.final_x, record.final_y)) == 0

    def test_random_inputs_converge_with_strictly_decreasing_potential(self):
        rng = random.Random(31)
        for _ in range(80):
            n = rng.randrange(2, 9)
            x0 = random_matrix(rng, n, p_nonzero=0.5)
            y0 = tuple(rng.choice((-1, 1)) for _ in range(n))
            state0 = SiohState(x0, y0)
            record = constructive_sioh_sequence(state0)
            assert record.absorbed
            assert is_sioh_equilibrium(SiohState(record.final_x, record.final_y))
            replay_sioh(state0, record.events)
            # Recompute the potential along the trajectory.
            h = potential_h_xy(state0)
            phase2_seen = 0
            state = state0
            for ev in record.events:
                if ev.mechanism == OPINION_GOSSIP:
                    state = SiohState(
                        state.x,
                        tuple(
                            ev.new if node == ev.i else state.opinion(node)
                            for node in state.x.labels
                        ),
                    )
                else:
                    state = SiohState(state.x.with_entry(ev.i, ev.j, ev.new), state.y)
                h_next = potential_h_xy(state)
                is_phase2 = ev.mechanism == OPINION_GOSSIP or ev.old != 0
                if is_phase2:
                    phase2_seen += 1
                    assert h_next == h - 1
                h = h_next
            assert phase2_seen == sum(
                1 for e in record.events if e.mechanism == OPINION_GOSSIP or e.old != 0
            )


class TestConstructiveMatchesReference:
    """The mask-walk sequences give the dense rescanning engine's records.

    ``reference_dynamics`` keeps that engine; the whole AbsorptionRecord,
    events and final state included, must be the same.
    """

    @staticmethod
    def assert_same(x0, y0):
        assert constructive_sih_sequence(x0) == ref.constructive_sih_sequence(x0)
        state0 = SiohState(x0, y0)
        assert constructive_sioh_sequence(state0) == ref.constructive_sioh_sequence(state0)

    def test_every_three_node_state(self):
        offdiagonal = [(a, b) for a in range(3) for b in range(3) if a != b]
        for values in itertools.product((-1, 0, 1), repeat=6):
            rows = [[0] * 3 for _ in range(3)]
            for (a, b), v in zip(offdiagonal, values):
                rows[a][b] = v
            x0 = AppraisalMatrix.from_rows(rows)
            assert constructive_sih_sequence(x0) == ref.constructive_sih_sequence(x0)
            for y0 in itertools.product((-1, 1), repeat=3):
                state0 = SiohState(x0, y0)
                assert constructive_sioh_sequence(state0) == ref.constructive_sioh_sequence(state0)

    def test_random_states(self):
        # Every third state keeps a random subset of its nodes, so labels skip ids.
        rng = random.Random(2611)
        for case in range(500):
            x0 = random_matrix(rng, rng.randrange(1, 17), p_nonzero=rng.random())
            if case % 3 == 0:
                x0 = induced_subgraph(x0, rng.sample(x0.labels, rng.randrange(1, x0.n + 1)))
            self.assert_same(x0, tuple(rng.choice((-1, 1)) for _ in range(x0.n)))

    def test_sparse_input_built_like_the_ci_file(self):
        # 375 random pairs on 256 nodes linked both ways, each direction's sign
        # drawn on its own, two positive to one negative.
        n, rng = 256, random.Random(256)
        pairs = sorted({tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(381)})[:375]
        x0 = AppraisalMatrix.from_edge_list(
            n, [(i, j, rng.choice((1, 1, -1))) for i, j in sorted(pairs + [(b, a) for a, b in pairs])]
        )
        self.assert_same(x0, tuple(rng.choice((-1, 1)) for _ in range(n)))


class TestRequireLegal:
    """The constructive sequences re-validate every update they build."""

    LINK = [[0, -1, 1], [-1, 0, 0], [1, 0, 0]]  # links {0, 1} and {0, 2} only

    @staticmethod
    def require_legal(rows, y, *update):
        # The check reads the sign masks of ``rows`` and the mask of the +1 opinions.
        up = None if y is None else sum(1 << a for a, v in enumerate(y) if v > 0)
        dynamics._require_legal(AppraisalMatrix.from_rows(rows)._signs, up, *update)

    @pytest.mark.parametrize(
        "i, j, mechanism, k, new, y, match",
        [
            (1, 2, SYMMETRY, None, 0, None, "no link"),
            (0, 1, INFLUENCE, 2, 1, None, "common neighbor"),
            (0, 1, HOMOPHILY, None, 1, None, "common neighbor"),
            (0, 1, SYMMETRY, None, 1, None, "does not match"),
            (0, 1, OPINION_GOSSIP, None, -1, None, "no mechanism"),
            (0, 1, PERSON_OPINION_HOMOPHILY, None, 1, None, "no mechanism"),
            (0, 1, "teleport", None, 1, [1, 1, 1], "no mechanism"),
            (0, 1, OPINION_GOSSIP, None, 1, [1, 1, 1], "does not match"),
            (0, 1, PERSON_OPINION_HOMOPHILY, None, -1, [1, 1, 1], "does not match"),
        ],
    )
    def test_illegal_update_raises(self, i, j, mechanism, k, new, y, match):
        with pytest.raises(RuntimeError, match=match):
            self.require_legal(self.LINK, y, i, j, mechanism, k, new)

    @pytest.mark.parametrize("mechanism", [OPINION_GOSSIP, PERSON_OPINION_HOMOPHILY, INFLUENCE])
    def test_sioh_zero_entry_takes_only_symmetry(self, mechanism):
        # X_01 = 0 with X_10 = 1: under SIOH only symmetry may act on (0, 1),
        # even where SIH influence through node 2 would be legal.
        rows = [[0, 0, 1], [1, 0, 1], [1, 1, 0]]
        k = 2 if mechanism == INFLUENCE else None
        self.require_legal(rows, None, 0, 1, INFLUENCE, 2, 1)
        self.require_legal(rows, [1, 1, 1], 0, 1, SYMMETRY, None, 1)
        with pytest.raises(RuntimeError, match="zero entry"):
            self.require_legal(rows, [1, 1, 1], 0, 1, mechanism, k, 1)

    def test_legal_updates_pass(self):
        rows = [[0, -1, 1], [-1, 0, 1], [1, 1, 0]]
        y = [1, -1, 1]
        for update in (
            (0, 1, SYMMETRY, None, -1),
            (0, 1, INFLUENCE, 2, 1),
            (0, 1, HOMOPHILY, 2, 1),
            (0, 1, OPINION_GOSSIP, None, 1),
            (0, 1, PERSON_OPINION_HOMOPHILY, None, -1),
        ):
            self.require_legal(rows, y, *update)

    def test_constructive_refuses_an_illegal_fix(self):
        # Influence through k = i: the pair's own endpoint is no common neighbor.
        with pytest.raises(RuntimeError, match="common neighbor"):
            dynamics._constructive(
                ALL_NEGATIVE_TRIANGLE, None, lambda minus, adj, up: (0, 1, INFLUENCE, 0, 1)
            )

    def test_constructive_sih_that_stops_short_raises(self):
        with pytest.raises(RuntimeError, match="ended unbalanced"):
            dynamics._constructive(ALL_NEGATIVE_TRIANGLE, None, lambda minus, adj, up: None)

    def test_constructive_sioh_that_stops_short_raises(self):
        x = symmetric(2, [(1, 2, -1)])
        with pytest.raises(RuntimeError, match="ended unaligned"):
            dynamics._constructive(x, (1, 1), lambda minus, adj, up: None)

    def test_fixes_past_the_potential_raise(self):
        # An aligned state has potential 0, so its first fix is one too many,
        # even a legal no-op: gossip on a +1 link from a +1 toward a +1 node.
        fixes = iter([(0, 1, OPINION_GOSSIP, None, 1)] * 1000)
        with pytest.raises(RuntimeError, match="internal error: constructive fixes outlast"):
            dynamics._constructive(
                symmetric(2, [(1, 2, 1)]), (1, 1), lambda minus, adj, up: next(fixes, None)
            )


class TestPotentials:
    def test_all_positive_is_zero(self):
        assert potential_h(symmetric(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])) == 0

    def test_negative_triangle_is_six(self):
        assert potential_h(ALL_NEGATIVE_TRIANGLE) == 6

    def test_xy_adds_negative_opinions(self):
        state = SiohState(ALL_NEGATIVE_TRIANGLE, (-1, -1, -1))
        assert potential_h_xy(state) == 9


class TestEventSerialization:
    def test_round_trip_through_json(self):
        event = UpdateEvent(3, 1, 2, INFLUENCE, 4, -1, 1)
        blob = json.dumps(event.to_dict(), sort_keys=True)
        assert json.loads(blob) == {
            "step": 3, "i": 1, "j": 2, "mechanism": "influence",
            "k": 4, "old": -1, "new": 1,
        }

    def test_neighbor_field_consistency_enforced(self):
        with pytest.raises(ValueError):
            UpdateEvent(0, 1, 2, SYMMETRY, 3, 0, 1)
        with pytest.raises(ValueError):
            UpdateEvent(0, 1, 2, HOMOPHILY, None, 0, 1)

    def test_json_line_template_matches_json_dumps_for_every_mechanism(self):
        events = []
        for mechanism in (SYMMETRY, INFLUENCE, HOMOPHILY, OPINION_GOSSIP, PERSON_OPINION_HOMOPHILY):
            k = 17 if mechanism in (INFLUENCE, HOMOPHILY) else None
            for step, i, j, old, new in ((0, 1, 2, -1, 1), (999_999, 31, 4, 0, -1), (5, 10**6, 3, 1, 1)):
                events.append(UpdateEvent(step, i, j, mechanism, k, old, new))
        x0 = random_matrix(random.Random(8), 7, p_nonzero=0.7)
        events += run_sih(x0, SihParams(), seed=3, max_steps=300, log=True).events
        state0 = SiohState(x0, (1, -1, 1, -1, -1, 1, 1))
        events += run_sioh(state0, SiohParams(), seed=3, max_steps=300, log=True).events
        assert {e.mechanism for e in events} == {
            SYMMETRY, INFLUENCE, HOMOPHILY, OPINION_GOSSIP, PERSON_OPINION_HOMOPHILY
        }
        for event in events:
            assert event.to_json_line() == json.dumps(event.to_dict(), sort_keys=True) + "\n"

    def test_tuple_keeps_fields_equality_and_hashing(self):
        event = UpdateEvent(3, 1, 2, HOMOPHILY, 4, -1, 1)
        assert UpdateEvent._fields == ("step", "i", "j", "mechanism", "k", "old", "new")
        assert (event.step, event.i, event.j, event.mechanism, event.k, event.old, event.new) == (
            3, 1, 2, HOMOPHILY, 4, -1, 1
        )
        assert list(event.to_dict()) == list(UpdateEvent._fields)
        twin = UpdateEvent._make((3, 1, 2, HOMOPHILY, 4, -1, 1))
        assert twin == event and hash(twin) == hash(event) and len({twin, event}) == 1
        assert event != UpdateEvent(3, 1, 2, HOMOPHILY, 4, -1, -1)
        with pytest.raises(AttributeError):
            event.new = -1

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            UpdateEvent(0, 1, 2, "gossip", None, 0, 1)


class TestStreamedLog:
    """A callable ``log`` gets the events ``log=True`` collects, one call per step."""

    @pytest.mark.parametrize("engine", ["sih", "sioh"])
    def test_callable_gets_every_event_in_step_order(self, engine):
        rng = random.Random(12)
        streamed_steps = 0
        for seed in range(30):
            n = rng.randrange(3, 9)
            x0 = random_matrix(rng, n, p_nonzero=0.6)
            if engine == "sih":
                run, start, params = run_sih, x0, SihParams()
            else:
                y0 = tuple(rng.choice((-1, 1)) for _ in range(n))
                run, start, params = run_sioh, SiohState(x0, y0), SiohParams()
            max_steps = rng.choice((1, 50, 5000))
            collected = run(start, params, seed, max_steps, log=True)
            streamed = []
            record = run(start, params, seed, max_steps, log=streamed.append)
            assert record.events is None
            assert len(streamed) == record.steps
            assert tuple(streamed) == collected.events
            assert (record.absorbed, record.steps, record.final_x, record.final_y) == (
                collected.absorbed, collected.steps, collected.final_x, collected.final_y
            )
            streamed_steps += record.steps
        assert streamed_steps > 1000

    def test_absorbed_input_gets_no_call(self):
        balanced = symmetric(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        aligned = SiohState(balanced, (1, 1, 1))
        for record in (
            run_sih(balanced, SihParams(), seed=1, log=self.fail_on_call),
            run_sioh(aligned, SiohParams(), seed=1, log=self.fail_on_call),
        ):
            assert record.absorbed and record.steps == 0 and record.events is None

    @staticmethod
    def fail_on_call(event):
        raise AssertionError(f"unexpected event {event}")


@pytest.mark.parametrize("max_steps", [0, -1])
@pytest.mark.parametrize("engine", ["sih", "sioh"])
def test_non_positive_max_steps_is_refused(engine, max_steps):
    x0 = AppraisalMatrix.from_edge_list(2, [(1, 2, 1)])
    with pytest.raises(ValueError) as caught:
        if engine == "sih":
            run_sih(x0, SihParams(), 0, max_steps=max_steps)
        else:
            run_sioh(SiohState(x0, (1, -1)), SiohParams(), 0, max_steps=max_steps)
    assert type(caught.value) is ValueError
    assert str(caught.value) == "max_steps must be positive"
