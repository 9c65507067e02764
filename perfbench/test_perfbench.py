"""Tests of the benchmark itself: tiny smoke runs and checks that must fire.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import counts  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(monkeypatch, *argv) -> dict:
    monkeypatch.setattr(run, "TRACE_OPS", {"study": 2, "trajectory": 2, "static": 6})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["study", "trajectory", "static"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(monkeypatch, workload, trace):
    result = bench(monkeypatch, "--workload", workload, "--seed", "3", "--seconds", "0.05", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert [m["name"] for m in listed] == list(result["metrics"])
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_inputs(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        run.setup(workloads.Static, 5, tmp_path / name)
    for a in sorted((tmp_path / "a").glob("*.el")):
        assert a.read_bytes() == (tmp_path / "b" / a.name).read_bytes()


@pytest.fixture
def library():
    """Import the library once through the benchmark's own set-up."""
    run.purge_library()
    import balance_lab

    return balance_lab


def test_tracer_restores_and_accounts(library):
    from balance_lab import cli, dynamics, experiments

    original = (experiments.run_sih, dynamics.run_sih, cli._COMMANDS["simulate"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert experiments.run_sih is not original[0] and experiments.run_sih is dynamics.run_sih
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--n", "6", "--p", "0.6", "--p-neg", "0.3", "--seed", "1"])
    finally:
        tracer.uninstall()
    assert code in (0, 4)
    assert (experiments.run_sih, dynamics.run_sih, cli._COMMANDS["simulate"]) == original
    table = tracing.self_times(tracer.spans)
    assert table["cli.main.simulate"]["calls"] == 1 and table["dynamics.run_sih"]["calls"] == 1
    top = table["cli.main.simulate"]["total_s"]
    assert sum(entry["self_s"] for entry in table.values()) == pytest.approx(top, rel=1e-9)
    assert len(tracer.captures) == 1


# ---------------------------------------------------------------------------
# Each check fires on a deliberately corrupted output.
# ---------------------------------------------------------------------------


def run_op(op):
    code, stdout, _, _ = run.call_cli(op.argv)
    return code, stdout


def test_study_check_catches_flipped_csv_byte(tmp_path, library):
    study = workloads.Study(7, tmp_path)
    op = study.op(0)
    code, stdout = run_op(op)
    assert study.check(op, code, stdout).failed == 0
    lines = op.files["csv"].read_text().splitlines(keepends=True)
    cells = lines[1].split(",")
    steps = workloads.CSV_HEADER.index("steps")
    cells[steps] = cells[steps][:-1] + str((int(cells[steps][-1]) + 1) % 10)
    lines[1] = ",".join(cells)
    op.files["csv"].write_text("".join(lines))
    outcome = study.check(op, code, stdout)
    assert outcome.failed == op.units and outcome.problems


def test_study_check_catches_wrong_seed_column(tmp_path, library):
    study = workloads.Study(7, tmp_path)
    op = study.op(1)
    code, stdout = run_op(op)
    text = op.files["csv"].read_text()
    seed = text.splitlines()[2].split(",")[1]
    op.files["csv"].write_text(text.replace(seed, str(int(seed) ^ 1), 1))
    assert study.check(op, code, stdout).failed >= 1


def absorbing_op(tmp_path, engine):
    """A 4-node run that absorbs, with --out and --log."""
    source = tmp_path / "k4.el"
    source.write_text("n 4\n" + "".join(f"{i} {j} {-1 if i + j == 5 else 1}\n" for i in range(1, 5) for j in range(1, 5) if i != j))
    files = {"out": tmp_path / "final.el", "log": tmp_path / "events.jsonl"}
    argv = ["simulate", "--input", str(source), "--engine", engine, "--seed", "2",
            "--max-steps", str(workloads.TRAJECTORY_MAX_STEPS), "--out", str(files["out"]), "--log", str(files["log"])]
    return workloads.Op(0, engine, argv, 1, engine, files, {"n": 4, "engine": engine})


@pytest.mark.parametrize("engine", ["sih", "sioh"])
def test_trajectory_check_catches_unbalanced_final_state(tmp_path, library, engine):
    trajectory = workloads.Trajectory(1, tmp_path)
    op = absorbing_op(tmp_path, engine)
    code, stdout = run_op(op)
    assert json.loads(stdout)["absorbed"] is True
    assert trajectory.check(op, code, stdout).failed == 0
    # An all-negative triangle is neither triad-wise balanced nor opinion-aligned.
    op.files["out"].write_text("n 4\n1 2 -1\n1 3 -1\n2 1 -1\n2 3 -1\n3 1 -1\n3 2 -1\n")
    outcome = trajectory.check(op, code, stdout)
    assert outcome.failed == 1 and "equilibrium" in outcome.problems[0]


def test_trajectory_check_catches_truncated_event_log(tmp_path, library):
    trajectory = workloads.Trajectory(1, tmp_path)
    op = absorbing_op(tmp_path, "sih")
    code, stdout = run_op(op)
    lines = op.files["log"].read_text().splitlines(keepends=True)
    assert len(lines) == json.loads(stdout)["steps"] > 1
    op.files["log"].write_text("".join(lines[:-1]))
    outcome = trajectory.check(op, code, stdout)
    assert outcome.failed == 1 and "event log" in outcome.problems[0]


def test_trajectory_check_rejects_exit_code_without_cap(tmp_path, library):
    trajectory = workloads.Trajectory(1, tmp_path)
    op = absorbing_op(tmp_path, "sih")
    _, stdout = run_op(op)
    assert trajectory.check(op, 4, stdout).failed == 1


def test_count_pass_catches_a_record_that_does_not_replay(library):
    from balance_lab import dynamics, graphs

    x0 = graphs.AppraisalMatrix.from_edge_list(3, [(1, 2, -1), (2, 1, -1), (2, 3, -1), (3, 2, -1), (1, 3, -1), (3, 1, -1)])
    args = (x0, dynamics.SihParams(), 5)
    good = dynamics.run_sih(*args)
    found, table, problems = counts.count_pass([tracing.Capture("dynamics.run_sih", args, {}, good, 0.0)])
    assert not problems and found["dynamics.draws"] == good.steps and table[3]["runs"] == 1
    forged = dynamics.AbsorptionRecord(True, good.steps, x0)
    _, _, problems = counts.count_pass([tracing.Capture("dynamics.run_sih", args, {}, forged, 0.0)])
    assert problems


def test_two_faction_oracle():
    assert workloads.two_faction_exists([[0, 1, -1], [1, 0, -1], [-1, -1, 0]])
    # Three mutual enemies cannot be split into two factions.
    assert not workloads.two_faction_exists([[0, -1, -1], [-1, 0, -1], [-1, -1, 0]])
    # Nor can a pair whose two directions disagree.
    assert not workloads.two_faction_exists([[0, 1], [-1, 0]])


def test_static_checks_catch_wrong_verdicts(tmp_path, library):
    static = workloads.Static(2, tmp_path)
    static.make_inputs()
    analyze = next(i for i in range(8) if static.op(i).kind == "analyze")
    op = static.op(analyze)
    code, stdout = run_op(op)
    assert static.check(op, code, stdout).failed == 0
    report = json.loads(stdout)
    report["triad_wise_balanced"] = not report["triad_wise_balanced"]
    assert workloads.check_analyze(op.meta["input"], report, False)

    # A planted two-faction input: its answer is known.
    op = static.op(next(i for i in range(60) if static.op(i).meta["planted"]))
    code, stdout = run_op(op)
    assert static.check(op, code, stdout).failed == 0
    good = json.loads(stdout)
    assert good["two_faction"] is not None

    def corrupt(change):
        report = json.loads(stdout)
        change(report)
        return workloads.check_analyze(op.meta["input"], report, True)

    assert corrupt(lambda r: r.update(two_faction=None))
    assert corrupt(lambda r: r["two_faction"]["v1"].pop())
    assert corrupt(lambda r: r["two_faction"]["v2"].append(r["two_faction"]["v1"].pop()))
    assert corrupt(lambda r: r.update(triad_count=r["triad_count"] + 1))
    first = next(iter(good["ego_two_faction"]))
    assert corrupt(lambda r: r["ego_two_faction"].update({first: not r["ego_two_faction"][first]}))
    assert corrupt(lambda r: r.update(all_ego_two_faction=not r["all_ego_two_faction"]))

    # A 4-cycle: certification fails, and a counterexample exists.
    square = tmp_path / "square.el"
    square.write_text("n 4\n1 2 1\n2 1 1\n2 3 1\n3 2 1\n3 4 1\n4 3 1\n4 1 1\n1 4 1\n")
    cli_argv = ["equivalence", "--input", str(square), "--verify-exhaustive"]
    code, stdout, _, _ = run.call_cli(cli_argv)
    report = json.loads(stdout)
    assert code == 0 and not workloads.check_equivalence(square, report, True)
    certified = json.loads(stdout)
    certified["conditions_hold"] = True
    assert workloads.check_equivalence(square, certified, True)
    counterexample = report["exhaustive"]["counterexample"]
    counterexample[0][2] = -counterexample[0][2]
    assert workloads.check_equivalence(square, report, True)
