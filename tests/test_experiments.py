import csv
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats

from balance_lab.dynamics import SihParams
from balance_lab.experiments import (
    ErParams,
    RegressionResult,
    TrialRecord,
    conflict_ratio,
    count_triads,
    export_csv,
    gen_er_signed,
    linear_regression,
    link_density,
    run_study,
    study_summary,
    _sum,
)
from balance_lab.graphs import NODE_LIMIT, AppraisalMatrix, is_bilateral
from balance_lab.rng import stream

from conftest import (
    MATRIX_KINDS,
    bilateral_triads_by_triple_loop,
    random_symmetric_matrix,
    varied_matrix,
)


def symmetric(n, pairs):
    entries = []
    for i, j, s in pairs:
        entries.extend([(i, j, s), (j, i, s)])
    return AppraisalMatrix.from_edge_list(n, entries)


class TestErParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ErParams(1, 0.5, 0.5)
        with pytest.raises(ValueError):
            ErParams(4, 1.5, 0.5)
        with pytest.raises(ValueError):
            ErParams(4, 0.5, -0.1)

    @pytest.mark.parametrize("n", [NODE_LIMIT + 1, 10**20])
    def test_node_count_over_the_ceiling_is_refused(self, n):
        # Refused in the parameters, before gen_er_signed builds a grid.
        with pytest.raises(ValueError, match=f"^node count {n} exceeds the ceiling of {NODE_LIMIT}$"):
            ErParams(n, 0.5, 0.5)


class TestGenErSigned:
    def test_p_zero_gives_empty_graph(self):
        x = gen_er_signed(ErParams(6, 0.0, 0.5), seed=1)
        assert x.nonzero_count() == 0

    def test_p_one_pneg_zero_gives_all_positive_complete(self):
        x = gen_er_signed(ErParams(5, 1.0, 0.0), seed=2)
        assert x.nonzero_count() == 20
        assert x.negative_count() == 0

    def test_always_bilateral(self):
        for seed in range(50):
            x = gen_er_signed(ErParams(7, 0.5, 0.5), seed=seed)
            assert is_bilateral(x)

    def test_deterministic_by_seed(self):
        a = gen_er_signed(ErParams(8, 0.4, 0.3), seed=9)
        b = gen_er_signed(ErParams(8, 0.4, 0.3), seed=9)
        assert a == b

    def test_draws_as_the_dense_scan_does(self):
        # The generator writes masks, but must draw from the stream exactly as
        # the dense scan it replaced: every pair above the diagonal in row-major
        # order, then one sign per link, row by row and column by column.
        for seed in range(60):
            params = ErParams(2 + seed % 11, (seed % 5) / 4, ((seed // 5) % 5) / 4)
            rng = stream(seed)
            n = params.n
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < params.p:
                        rows[i][j] = rows[j][i] = 1
            for i in range(n):
                for j in range(n):
                    if rows[i][j] and rng.random() < params.p_neg:
                        rows[i][j] = -1
            x = gen_er_signed(params, seed)
            assert x == AppraisalMatrix.from_rows(rows) and x.rows == tuple(map(tuple, rows))

    def test_handed_over_views_are_exact(self):
        # The generator stores rows, the incoming sign masks and the link
        # masks it drew; each must equal the view a cold matrix builds from
        # the same sign masks, and storing them changes no value semantics.
        seed = 0
        for n in range(2, 13):
            for p in (0, 0.3, 1):
                for p_neg in (0, 0.3, 1):
                    seed += 1
                    x = gen_er_signed(ErParams(n, p, p_neg), seed)
                    assert {"rows", "_incoming", "_masks"} <= vars(x).keys()
                    cold = AppraisalMatrix._make(x.labels, x._signs)
                    assert x == cold and cold == x and hash(x) == hash(cold) and len({x, cold}) == 1
                    assert (x.rows, x._incoming, x._masks) == (cold.rows, cold._incoming, cold._masks)
                    assert repr(x) == repr(cold)


class TestMetrics:
    def test_conflict_ratio_extremes(self):
        assert conflict_ratio(symmetric(3, [(1, 2, 1), (2, 3, 1)])) == 0.0
        assert conflict_ratio(symmetric(3, [(1, 2, -1), (2, 3, -1)])) == 1.0
        assert conflict_ratio(AppraisalMatrix.zeros(3)) is None

    def test_conflict_ratio_mixed(self):
        x = AppraisalMatrix.from_edge_list(
            3, [(1, 2, -1), (2, 1, 1), (1, 3, 1), (3, 1, 1)]
        )
        assert conflict_ratio(x) == 0.25

    def test_link_density(self):
        assert link_density(AppraisalMatrix.zeros(3)) == 0.0
        assert link_density(symmetric(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])) == 1.0
        x = gen_er_signed(ErParams(8, 0.25, 0.0), seed=3)
        assert link_density(x) == x.nonzero_count() / 56

    def test_count_triads(self):
        assert count_triads(symmetric(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])) == 1
        square = symmetric(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1)])
        assert count_triads(square) == 0
        complete = gen_er_signed(ErParams(8, 1.0, 0.5), seed=4)
        assert count_triads(complete) == 56

    def test_count_triads_requires_bilateral_pairs(self):
        x = AppraisalMatrix.from_edge_list(
            3, [(1, 2, 1), (2, 1, 1), (2, 3, 1), (3, 2, 1), (1, 3, 1)]
        )
        # pair {1,3} is half-directed, so no fully bilateral triangle.
        assert count_triads(x) == 0

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_count_triads_matches_triple_loop_oracle(self, kind):
        rng = random.Random(f"count-triads:{kind}")
        total = 0
        for _ in range(150):
            x = varied_matrix(rng, kind)
            count = count_triads(x)
            assert count == bilateral_triads_by_triple_loop(x), x
            total += count
        assert (total == 0) == (kind in ("empty", "one-way")), total


class TestLinearRegression:
    def test_exact_line(self):
        result = linear_regression([0, 1, 2], [1, 3, 5])
        assert result.k == pytest.approx(2.0)
        assert result.b == pytest.approx(1.0)
        assert result.r == pytest.approx(1.0)

    def test_constant_y_has_undefined_r(self):
        result = linear_regression([0, 1, 2], [4, 4, 4])
        assert result.k == 0.0 and result.b == 4.0 and result.r is None

    def test_constant_x_has_undefined_slope(self):
        result = linear_regression([2, 2, 2], [1, 2, 3])
        assert result.k is None and result.r is None
        assert result.b == pytest.approx(2.0)

    def test_matches_scipy_and_normal_equations(self):
        rng = random.Random(15)
        for _ in range(25):
            xs = [rng.uniform(-5, 5) for _ in range(20)]
            ys = [2.5 * v - 1.0 + rng.gauss(0, 1) for v in xs]
            ours = linear_regression(xs, ys)
            ref = scipy.stats.linregress(xs, ys)
            assert ours.k == pytest.approx(ref.slope, abs=1e-10)
            assert ours.b == pytest.approx(ref.intercept, abs=1e-10)
            assert ours.r == pytest.approx(ref.rvalue, abs=1e-10)
            # Normal equations oracle.
            a = np.vstack([xs, np.ones(len(xs))]).T
            k_ne, b_ne = np.linalg.lstsq(a, np.array(ys), rcond=None)[0]
            assert ours.k == pytest.approx(float(k_ne), abs=1e-10)
            assert ours.b == pytest.approx(float(b_ne), abs=1e-10)

    def test_sums_left_to_right_on_every_python(self):
        # 1e16 + 1.0 rounds back to 1e16, so left to right the y sum is 0.0;
        # a compensated sum (the builtin on Python 3.12+) keeps the 1.0.
        ys = [1e16, 1.0, -1e16]
        assert math.fsum(ys) == 1.0
        result = linear_regression([-1, 0, 1], ys)
        assert result.k == -1e16 and result.b == 0.0 and result.r == -1.0

    def test_private_sum_is_the_plain_loop(self):
        def loop(values):
            total = 0
            for v in values:
                total += v
            return total

        rng = random.Random("plain-sum")
        for _ in range(300):
            values = [
                rng.uniform(-1, 1) * 10 ** rng.randrange(-20, 20) for _ in range(rng.randrange(0, 40))
            ]
            got = _sum(values)
            assert got == loop(values) and type(got) is type(loop(values)), values
            assert _sum(iter(values)) == got
        assert _sum([]) == 0 and type(_sum([])) is int
        assert _sum([1e16, 1.0, -1e16]) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError, match="equal length"):
            linear_regression([1, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="two points"):
            linear_regression([1], [1])


class TestStudies:
    def test_c0_records_have_consistent_metrics(self):
        records, reg = run_study(6, 0.5, None, 40, master_seed=100)
        assert len(records) == 40
        assert reg.n_points <= 40
        for r in records:
            assert r.er.p == 0.5 and 0.0 <= r.er.p_neg <= 1.0
            assert r.absorbed
            if r.c0 is not None:
                assert 0.0 <= r.c0 <= 1.0
            assert 0.0 <= r.rho_link <= 1.0

    def test_density_study_varies_p(self):
        records, _ = run_study(6, None, 0.2, 30, master_seed=101)
        assert len({r.er.p for r in records}) > 20
        assert all(r.er.p_neg == 0.2 for r in records)

    def test_triads_study_fixes_both(self):
        records, _ = run_study(6, 0.6, 0.3, 30, master_seed=102)
        assert all(r.er.p == 0.6 and r.er.p_neg == 0.3 for r in records)

    def test_degenerate_two_trials_does_not_crash(self):
        records, reg = run_study(4, 0.5, None, 2, master_seed=103)
        assert len(records) == 2
        assert isinstance(reg, RegressionResult)

    def test_zero_link_trials_flagged_and_excluded(self):
        records, reg = run_study(4, 0.0, None, 10, master_seed=104)
        assert all(r.c0 is None and r.c_inf is None for r in records)
        assert reg.n_points == 0 and reg.k is None

    def test_constant_triad_count_gives_undefined_slope(self):
        _, reg = run_study(4, 1.0, 0.5, 10, master_seed=105)
        assert reg.k is None and reg.r is None

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError):
            run_study(4, 0.5, None, 1, master_seed=106)

    def test_deterministic_and_worker_invariant(self, tmp_path):
        a_records, a_reg = run_study(6, 0.4, None, 24, master_seed=7, workers=1)
        b_records, b_reg = run_study(6, 0.4, None, 24, master_seed=7, workers=2)
        assert a_records == b_records and a_reg == b_reg
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(a_records, pa)
        export_csv(b_records, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_process_pool_is_loaded_only_for_more_than_one_worker(self):
        # The pool's import loads multiprocessing, which no other command uses.
        code = (
            "import sys, balance_lab.cli as cli;"
            "assert 'multiprocessing' not in sys.modules;"
            "cli.experiments.run_study(4, 0.5, None, 2, master_seed=1);"
            "assert 'multiprocessing' not in sys.modules;"
            "cli.experiments.run_study(4, 0.5, None, 2, master_seed=1, workers=2);"
            "assert 'multiprocessing' in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_density_constant_along_trajectory(self):
        # ER output is bilateral, so the zero pattern never changes:
        # regenerate each trial's graph from its recorded seed and re-run.
        from balance_lab.rng import derive_seed
        from balance_lab.dynamics import run_sih

        records, _ = run_study(6, 0.5, 0.5, 10, master_seed=108)
        for r in records[:5]:
            x0 = gen_er_signed(r.er, derive_seed(r.seed, 1))
            assert link_density(x0) == r.rho_link
            rec = run_sih(x0, SihParams(), derive_seed(r.seed, 2))
            assert link_density(rec.final_x) == r.rho_link
            # Absorbed states are sign-symmetric, so the negative-entry
            # count behind c_inf is even.
            assert rec.final_x.negative_count() % 2 == 0

    def test_twenty_thousand_trials_within_runtime_budget(self):
        import time

        started = time.monotonic()
        records, reg = run_study(8, 0.4, 0.9, 20_000, master_seed=113)
        elapsed = time.monotonic() - started
        assert len(records) == 20_000
        assert all(r.absorbed for r in records)
        assert reg.n_points > 19_000
        assert elapsed < 300.0, f"triads study took {elapsed:.0f}s"

    @pytest.mark.parametrize(
        "p, p_neg, column",
        [(0.5, None, "c0"), (None, 0.3, "rho_link"), (0.5, 0.3, "n_triad")],
        ids=["c0", "density", "triads"],
    )
    def test_regresses_on_the_drawn_parameters_column(self, p, p_neg, column):
        records, reg = run_study(6, p, p_neg, 30, master_seed=114)
        pairs = [
            (float(getattr(r, column)), r.c_inf)
            for r in records
            if getattr(r, column) is not None and r.c_inf is not None
        ]
        assert len(pairs) >= 2
        assert reg == linear_regression([x for x, _ in pairs], [y for _, y in pairs])
        assert reg.k is not None

    def test_censored_trials_leave_the_regression(self, tmp_path):
        # A censored run has no final state: its c_inf is None, its CSV cell
        # empty, and only absorbed trials with links are regressed.
        records, reg = run_study(8, 0.6, None, 40, master_seed=2727, max_steps=40)
        censored = [r for r in records if not r.absorbed]
        regressed = [r for r in records if r.absorbed and r.c0 is not None]
        assert censored and len(regressed) >= 2
        assert all(r.c_inf is None for r in censored)
        assert reg == linear_regression([r.c0 for r in regressed], [r.c_inf for r in regressed])
        assert reg.n_points == len(regressed)
        export_csv(records, tmp_path / "t.csv")
        with open(tmp_path / "t.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["c_inf"] == "" for row in rows] == [r.c_inf is None for r in records]
        assert all(row["c_inf"] == "" and row["absorbed"] == "0" for row in rows if row["steps"] == "40")

    @pytest.mark.parametrize(
        "p, p_neg, builds",
        [(0.5, None, 12), (None, 0.3, 12), (0.5, 0.3, 0)],
        ids=["c0", "density", "triads"],
    )
    def test_parameter_stream_is_built_only_for_a_drawn_parameter(
        self, monkeypatch, p, p_neg, builds
    ):
        # One stream per trial when p or p_neg is drawn, none when both are
        # fixed; the drawn value is that stream's first number either way.
        from balance_lab import experiments
        from balance_lab.rng import derive_seed, stream

        calls = []

        def spy(master, *path):
            calls.append(path)
            return stream(master, *path)

        monkeypatch.setattr(experiments, "stream", spy)
        records, _ = run_study(5, p, p_neg, 12, master_seed=116)
        assert calls.count((experiments._TAG_PARAM,)) == builds
        for r in records:
            drawn = r.er.p if p is None else r.er.p_neg if p_neg is None else None
            if drawn is not None:
                assert drawn == stream(r.seed, experiments._TAG_PARAM).random()
            assert r.seed == derive_seed(116, r.trial_index)

    def test_drawing_both_parameters_rejected(self):
        with pytest.raises(ValueError, match="at most one"):
            run_study(6, None, None, 10, master_seed=115)

    def test_summary_shape(self):
        records, reg = run_study(5, 0.5, None, 10, master_seed=109)
        payload = study_summary("c0", records, reg, {"n": 5, "p": 0.5, "p_neg": None})
        assert payload["study"] == "c0"
        assert payload["trials"] == 10
        assert payload["absorbed_fraction"] == 1.0
        assert payload["mean_steps"] > 0


class TestExportCsv:
    def test_empty_gives_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_csv([], path)
        assert path.read_text().strip() == (
            "trial,seed,n,p,p_neg,c0,c_inf,rho_link,n_triad,steps,absorbed"
        )

    def test_three_records_give_four_lines(self, tmp_path):
        records, _ = run_study(4, 0.5, None, 3, master_seed=110)
        path = tmp_path / "three.csv"
        export_csv(records, path)
        assert len(path.read_text().strip().splitlines()) == 4

    def test_round_trip_full_precision(self, tmp_path):
        records, _ = run_study(6, 0.37, None, 12, master_seed=111)
        path = tmp_path / "rt.csv"
        export_csv(records, path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(records)
        for row, rec in zip(rows, sorted(records, key=lambda r: r.trial_index)):
            assert int(row["trial"]) == rec.trial_index
            assert int(row["seed"]) == rec.seed
            assert float(row["p"]) == rec.er.p
            assert float(row["p_neg"]) == rec.er.p_neg
            if rec.c0 is None:
                assert row["c0"] == ""
            else:
                assert float(row["c0"]) == rec.c0
            if rec.c_inf is None:
                assert row["c_inf"] == ""
            else:
                assert float(row["c_inf"]) == rec.c_inf
            assert float(row["rho_link"]) == rec.rho_link
            assert int(row["n_triad"]) == rec.n_triad
            assert int(row["steps"]) == rec.steps
            assert row["absorbed"] == ("1" if rec.absorbed else "0")

    def test_a_path_and_a_descriptor_give_the_same_bytes(self, tmp_path):
        records, _ = run_study(5, 0.4, None, 6, master_seed=113)
        export_csv(records, tmp_path / "by-path.csv")
        fd = os.open(tmp_path / "by-fd.csv", os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        export_csv(records, fd)
        with pytest.raises(OSError):
            os.fstat(fd)
        assert (tmp_path / "by-fd.csv").read_bytes() == (tmp_path / "by-path.csv").read_bytes()

    def test_undefined_cells_written_empty(self, tmp_path):
        records, _ = run_study(4, 0.0, None, 3, master_seed=112)
        path = tmp_path / "undef.csv"
        export_csv(records, path)
        body = path.read_text().strip().splitlines()[1:]
        for line in body:
            cells = line.split(",")
            assert cells[5] == "" and cells[6] == ""
