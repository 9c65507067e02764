"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy statistical criteria use the pinned master seed 20260808; the trend
signs asserted for the triad study were pre-registered from an oracle run
at that seed.
"""

import itertools
import math
import os
import random
import subprocess
import sys
import time

import pytest

from balance_lab.balance import (
    all_cycles_positive,
    all_ego_networks_two_faction,
    detect_two_faction,
    is_triad_wise_balanced,
)
from balance_lab.chordal import (
    check_equivalence_conditions,
    consecutive_triad,
    equivalence_counterexample,
    fan_triangulation,
    find_chords,
    is_chordal,
    is_subchordal,
    split_by_chord,
    verify_equivalence_exhaustive,
)
from balance_lab.dynamics import (
    SihParams,
    SiohParams,
    SiohState,
    constructive_sih_sequence,
    constructive_sioh_sequence,
    is_sih_equilibrium,
    is_sioh_equilibrium,
    run_sih,
    run_sioh,
)
from balance_lab.experiments import (
    ErParams,
    conflict_ratio,
    gen_er_signed,
    link_density,
    run_study,
)
from balance_lab.graphs import (
    AppraisalMatrix,
    UndirectedSkeleton,
    ego_network,
    is_bilateral,
    is_sign_symmetric,
    skeleton,
)
from balance_lab.rng import derive_seed, stream

from conftest import (
    GRAPH1_EDGES,
    GRAPH2_EDGES,
    PENTAGON,
    cycle_skeleton,
    cycles_positive_by_enumeration,
    planted_two_faction_matrix,
    random_connected_skeleton,
    random_connected_symmetric,
    random_symmetric_matrix,
)
from test_dynamics import replay_sih, replay_sioh

MASTER_SEED = 20260808
STUDY_TIME_BUDGET = 600.0  # seconds per 3000-trial study


def report(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {description}")


def all_three_node_matrices():
    cells = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    for values in itertools.product((-1, 0, 1), repeat=6):
        rows = [[0] * 3 for _ in range(3)]
        for (a, b), v in zip(cells, values):
            rows[a][b] = v
        yield AppraisalMatrix.from_rows(rows)


def test_criterion_01_sih_equilibria_match_triad_wise_balance():
    started = time.monotonic()
    count = 0
    for x in all_three_node_matrices():
        assert is_sih_equilibrium(x) == is_triad_wise_balanced(x)[0]
        count += 1
    elapsed = time.monotonic() - started
    assert count == 729
    assert elapsed < 1.0, f"took {elapsed:.2f}s, bound is 1s"
    report(1, f"729/729 three-node matrices agree ({elapsed:.2f}s)")


def test_criterion_02_sioh_equilibria_match_alignment():
    started = time.monotonic()
    count = 0
    for x in all_three_node_matrices():
        symmetric = is_sign_symmetric(x)
        for y in itertools.product((-1, 1), repeat=3):
            aligned = symmetric and all(
                x.rows[a][b] == 0 or x.rows[a][b] == y[a] * y[b]
                for a in range(3)
                for b in range(3)
                if a != b
            )
            assert is_sioh_equilibrium(SiohState(x, y)) == aligned
            count += 1
    elapsed = time.monotonic() - started
    assert count == 729 * 8
    assert elapsed < 10.0, f"took {elapsed:.2f}s, bound is 10s"
    report(2, f"5832/5832 (X, y) states agree ({elapsed:.2f}s)")


def test_criterion_03_absorption_rates():
    sih_absorbed = 0
    for trial in range(1000):
        draw = stream(MASTER_SEED, 3, trial)
        p_neg = draw.random()
        x0 = gen_er_signed(ErParams(8, 0.4, p_neg), derive_seed(MASTER_SEED, 3, trial, 1))
        record = run_sih(x0, SihParams(), derive_seed(MASTER_SEED, 3, trial, 2))
        assert record.absorbed, f"SIH trial {trial} hit max_steps"
        assert is_triad_wise_balanced(record.final_x)[0]
        sih_absorbed += 1
    sioh_absorbed = 0
    for trial in range(1000):
        draw = stream(MASTER_SEED, 4, trial)
        p_neg = draw.random()
        x0 = gen_er_signed(ErParams(8, 0.4, p_neg), derive_seed(MASTER_SEED, 4, trial, 1))
        y0 = tuple(1 if draw.random() < 0.5 else -1 for _ in range(8))
        record = run_sioh(
            SiohState(x0, y0), SiohParams(), derive_seed(MASTER_SEED, 4, trial, 2)
        )
        assert record.absorbed, f"SIOH trial {trial} hit max_steps"
        final = SiohState(record.final_x, record.final_y)
        assert is_sioh_equilibrium(final)
        assert detect_two_faction(record.final_x) is not None
        sioh_absorbed += 1
    assert sih_absorbed == 1000 and sioh_absorbed == 1000
    report(3, "1000/1000 SIH and 1000/1000 SIOH runs absorbed into balanced states")


def test_criterion_04_constructive_sequences():
    rng = random.Random(MASTER_SEED)
    for trial in range(500):
        n = rng.randrange(2, 9)
        x0 = gen_er_signed(
            ErParams(n, rng.random(), rng.random()), derive_seed(MASTER_SEED, 5, trial)
        )
        # Degrade bilaterality for some trials so phase 1 has work to do.
        if trial % 3 == 0:
            rows = [list(r) for r in x0.rows]
            for _ in range(n):
                a, b = rng.randrange(n), rng.randrange(n)
                if a != b:
                    rows[a][b] = rng.choice((-1, 0, 1))
            x0 = AppraisalMatrix.from_rows(rows)
        record = constructive_sih_sequence(x0)
        assert record.absorbed
        assert is_triad_wise_balanced(record.final_x)[0]
        replay_sih(x0, record.events)  # every event legal, by re-simulation
        phase2 = [e for e in record.events if e.old != 0]
        assert len(phase2) < n * (n - 1)
        assert all(e.old == -1 and e.new == 1 for e in phase2)
    for trial in range(500):
        n = rng.randrange(2, 9)
        x0 = gen_er_signed(
            ErParams(n, rng.random(), rng.random()), derive_seed(MASTER_SEED, 6, trial)
        )
        if trial % 3 == 0:
            rows = [list(r) for r in x0.rows]
            for _ in range(n):
                a, b = rng.randrange(n), rng.randrange(n)
                if a != b:
                    rows[a][b] = rng.choice((-1, 0, 1))
            x0 = AppraisalMatrix.from_rows(rows)
        y0 = tuple(rng.choice((-1, 1)) for _ in range(n))
        state0 = SiohState(x0, y0)
        record = constructive_sioh_sequence(state0)
        assert record.absorbed
        assert is_sioh_equilibrium(SiohState(record.final_x, record.final_y))
        replay_sioh(state0, record.events)
        # Phase-2 updates drop the combined potential by exactly one each.
        h = x0.negative_count() + sum(1 for v in y0 if v < 0)
        phase2_flips = 0
        for ev in record.events:
            delta = (1 if ev.new < 0 else 0) - (1 if ev.old < 0 else 0)
            h_next = h + delta
            if ev.mechanism == "opinion-gossip" or ev.old != 0:
                phase2_flips += 1
                assert h_next == h - 1, "phase-2 update must lower the potential"
            h = h_next
        assert phase2_flips < n * (n - 1) + n
    report(4, "500 SIH + 500 SIOH constructive sequences legal, monotone, terminating")


def test_every_three_node_state_reaches_its_equilibrium():
    # Every update weight is positive, so a legal constructive sequence from
    # a state is a path of positive probability to absorption.  One from
    # each of the 729 SIH and 5,832 SIOH states machine-checks at n=3 that
    # absorption is reachable from every state.
    sih = sioh = 0
    for x0 in all_three_node_matrices():
        record = constructive_sih_sequence(x0)
        assert record.absorbed and is_sih_equilibrium(record.final_x)
        replay_sih(x0, record.events)
        sih += 1
        for y0 in itertools.product((-1, 1), repeat=3):
            state0 = SiohState(x0, y0)
            record = constructive_sioh_sequence(state0)
            assert record.absorbed
            assert is_sioh_equilibrium(SiohState(record.final_x, record.final_y))
            replay_sioh(state0, record.events)
            sioh += 1
    assert (sih, sioh) == (729, 729 * 8)


def test_criterion_05_balance_implication_suites():
    rng = random.Random(MASTER_SEED + 5)
    fact_checked = 0
    prop_checked = 0
    for trial in range(10_000):
        n = rng.randrange(2, 9)
        if trial % 2 == 0:
            x = planted_two_faction_matrix(rng, n, p=rng.uniform(0.2, 0.9))
        else:
            x = random_symmetric_matrix(rng, n, p=rng.uniform(0.2, 0.9), p_neg=rng.random())
        two_faction = detect_two_faction(x) is not None
        triad_wise = is_triad_wise_balanced(x)[0]
        if two_faction:
            fact_checked += 1
            assert triad_wise, "two-faction balance must imply triad-wise balance"
        if triad_wise:
            prop_checked += 1
            assert all_ego_networks_two_faction(x), (
                "triad-wise balance must make every ego-network two-faction"
            )
    assert fact_checked >= 4000 and prop_checked >= 4000
    report(
        5,
        f"10000 graphs, 0 counterexamples "
        f"(two-faction cases: {fact_checked}, triad-wise cases: {prop_checked})",
    )


def test_criterion_06_cycle_positivity_cross_oracle():
    rng = random.Random(MASTER_SEED + 6)
    positive_cases = 0
    for trial in range(1000):
        n = rng.randrange(3, 9)
        if trial % 2 == 0:
            x = planted_two_faction_matrix(rng, n, p=rng.uniform(0.5, 0.9))
            if not skeleton(x).is_connected():
                x = random_connected_symmetric(rng, n)
        else:
            x = random_connected_symmetric(rng, n, extra_p=rng.uniform(0.1, 0.5))
        two_faction = detect_two_faction(x) is not None
        assert two_faction == cycles_positive_by_enumeration(x)
        assert all_cycles_positive(x) == two_faction
        positive_cases += two_faction
    assert 0 < positive_cases < 1000
    report(6, f"1000 connected graphs, 0 disagreements ({positive_cases} balanced)")


HEXAGON_LONG_CHORD = UndirectedSkeleton.from_edges(
    6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)]
)


def test_criterion_07_equivalence_certificate_end_to_end():
    rng = random.Random(MASTER_SEED + 7)
    certified = 0
    checked = 0
    while checked < 1000:
        n = rng.randrange(3, 7)
        g = random_connected_skeleton(rng, n, extra_p=rng.random())
        if len(g.edges) > 14:
            continue
        checked += 1
        ok, _ = check_equivalence_conditions(g)
        if ok:
            certified += 1
            assert verify_equivalence_exhaustive(g), (
                "certified skeleton admitted a separating assignment"
            )
    assert certified > 200
    for g in (cycle_skeleton(4), HEXAGON_LONG_CHORD):
        x = equivalence_counterexample(g)
        assert x is not None
        assert is_triad_wise_balanced(x)[0]
        assert detect_two_faction(x) is None
        assert skeleton(x) == g
    report(
        7,
        f"1000 skeletons: conditions => exhaustive equivalence "
        f"({certified} certified); explicit counterexamples on the square "
        f"and chorded hexagon",
    )


def test_criterion_08_pentagon_fixtures_verbatim():
    graph1 = UndirectedSkeleton.from_edges(7, GRAPH1_EDGES)
    graph2 = UndirectedSkeleton.from_edges(7, GRAPH2_EDGES)
    assert find_chords(graph1, PENTAGON) == [(3, 5), (3, 6), (5, 7)]
    assert split_by_chord(PENTAGON, (3, 6)) == ((3, 6, 7), (3, 4, 5, 6))
    eprime = UndirectedSkeleton.from_edges(
        (3, 4, 5, 6, 7),
        [(3, 4), (4, 5), (5, 6), (6, 7), (7, 3), (4, 7), (5, 7)],
    )
    assert is_chordal(eprime)
    witness = is_subchordal(graph2, PENTAGON)
    assert witness is not None
    assert witness.all_edges == eprime.edges
    assert fan_triangulation(witness).triads == ((3, 4, 7), (4, 5, 7), (5, 6, 7))
    tri = consecutive_triad(witness)
    assert set(tri) in ({3, 4, 7}, {4, 5, 7}, {5, 6, 7})
    assert is_subchordal(graph2, (3, 4, 5, 6)) is None
    report(8, "pentagon chords, witness edge set, fan triads all exact")


def _study_clock(fn, *args, **kwargs):
    started = time.monotonic()
    result = fn(*args, **kwargs)
    elapsed = time.monotonic() - started
    assert elapsed <= STUDY_TIME_BUDGET, f"study took {elapsed:.0f}s > 10 min"
    return result


def test_criterion_09_trend_reproduction():
    # Initial-conflict study: positive slopes, correlation fading with density.
    r_by_p = {}
    for p in (0.2, 0.4, 0.6, 0.7):
        _, reg = _study_clock(run_study, 8, p, None, 3000, MASTER_SEED)
        assert reg.k is not None and reg.k > 0, f"k({p}) = {reg.k}"
        r_by_p[p] = reg.r
    assert r_by_p[0.2] > r_by_p[0.4] > r_by_p[0.6] > r_by_p[0.7]

    # Density study: sign flip between low and high initial conflicts, with
    # weaker correlation at the intermediate p_neg values.
    r_by_pneg = {}
    k_by_pneg = {}
    for p_neg in (0.1, 0.3, 0.7, 0.9):
        _, reg = _study_clock(run_study, 8, None, p_neg, 3000, MASTER_SEED)
        k_by_pneg[p_neg] = reg.k
        r_by_pneg[p_neg] = reg.r
    assert k_by_pneg[0.1] > 0 and k_by_pneg[0.9] < 0
    assert abs(r_by_pneg[0.3]) < abs(r_by_pneg[0.1])
    assert abs(r_by_pneg[0.7]) < abs(r_by_pneg[0.9])

    # Triad study: slope signs pre-registered from the oracle run at this
    # master seed (positive under low initial conflicts, negative under
    # high, for both densities).
    expected_signs = {
        (0.4, 0.1): 1,
        (0.4, 0.9): -1,
        (0.7, 0.1): 1,
        (0.7, 0.9): -1,
    }
    for (p, p_neg), sign in expected_signs.items():
        _, reg = _study_clock(run_study, 8, p, p_neg, 3000, MASTER_SEED)
        assert reg.k is not None
        assert math.copysign(1, reg.k) == sign, (
            f"triads slope at p={p}, p_neg={p_neg} was {reg.k}"
        )
    report(
        9,
        "c0 slopes positive with fading r; density slopes flip sign; "
        "triad slopes match the pre-registered pattern",
    )


def test_criterion_10_generator_statistics():
    n, p, p_neg = 8, 0.4, 0.3
    densities = []
    conflicts = []
    for sample in range(10_000):
        x = gen_er_signed(ErParams(n, p, p_neg), derive_seed(MASTER_SEED, 10, sample))
        densities.append(link_density(x))
        c0 = conflict_ratio(x)
        if c0 is not None:
            conflicts.append(c0)
    assert len(conflicts) >= 9990

    def mean_and_se(values):
        m = sum(values) / len(values)
        var = sum((v - m) ** 2 for v in values) / (len(values) - 1)
        return m, math.sqrt(var / len(values))

    mean_rho, se_rho = mean_and_se(densities)
    mean_c0, se_c0 = mean_and_se(conflicts)
    assert abs(mean_rho - p) <= 3 * se_rho, f"{mean_rho} vs {p} (se {se_rho})"
    assert abs(mean_c0 - p_neg) <= 3 * se_c0, f"{mean_c0} vs {p_neg} (se {se_c0})"
    report(
        10,
        f"mean density {mean_rho:.4f} ~ {p}, mean conflicts {mean_c0:.4f} ~ {p_neg} "
        f"(3 standard errors)",
    )


def test_criterion_11_reproducibility(tmp_path):
    graph = tmp_path / "input.el"
    graph.write_text(
        "n 4\n1 2 -1\n2 1 -1\n2 3 1\n3 2 1\n3 4 -1\n4 3 -1\n4 1 1\n1 4 1\n"
    )

    def run(cmd, threads=None):
        env = dict(os.environ)
        if threads is not None:
            env["BALANCE_LAB_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "balance_lab", *cmd], capture_output=True, env=env
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    for cmd in (
        ["analyze", "--input", str(graph)],
        ["equivalence", "--input", str(graph), "--verify-exhaustive"],
    ):
        assert run(cmd) == run(cmd)

    sim_outputs = []
    for rep in range(2):
        out = tmp_path / f"sim{rep}.el"
        log = tmp_path / f"sim{rep}.jsonl"
        stdout = run(
            ["simulate", "--input", str(graph), "--engine", "sioh", "--seed", "21",
             "--out", str(out), "--log", str(log)]
        )
        sim_outputs.append((stdout, out.read_bytes(), log.read_bytes()))
    assert sim_outputs[0] == sim_outputs[1]

    exp_outputs = []
    for rep, threads in enumerate(("1", "2")):
        out = tmp_path / f"exp{rep}.csv"
        stdout = run(
            ["experiment", "--study", "c0", "--n", "8", "--p", "0.3",
             "--trials", "60", "--seed", "13", "--out", str(out)],
            threads=threads,
        )
        exp_outputs.append((stdout, out.read_bytes()))
    assert exp_outputs[0] == exp_outputs[1]
    report(11, "byte-identical outputs across reruns and worker counts")
