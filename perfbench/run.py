"""balance-lab benchmark: study, trajectory and static workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the closed loop (one client, each op sent when the previous
returns) for ``--seconds`` of op time and reports the end-to-end metrics.
``--trace 1`` runs a fixed list of ops twice, untraced and then with every
public library function wrapped in a span, replays the captured SIH/SIOH runs
with their event logs, and reports the per-layer metrics.  Either way the last
line of stdout is one JSON object; details go to
``perfbench/_work/<workload>-seed<seed>-trace<t>/report.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "balance_lab"
THREADS_ENV = "BALANCE_LAB_THREADS"
SETUP_REPS = 9
REFERENCE_DRAWS = 600
# setup_s is stated in seconds on a host where the set-up reference takes this long.
SETUP_REFERENCE_NOMINAL_S = 0.03
# A module of the kind an import runs: frozen dataclasses and small functions.
DEFINITIONS_SOURCE = "from dataclasses import dataclass, field\n" + "".join(
    f"@dataclass(frozen=True)\nclass C{i}:\n    a: int\n    b: tuple = ()\n"
    f"    c: dict = field(default_factory=dict)\n\n"
    f"    def f(self, x):\n        return [v * {i} for v in range(x) if v % 3]\n\n"
    f"def g{i}(x, y=2):\n    return sum(k * y + {i} for k in range(x))\n\n"
    for i in range(40)
)
# Ops in the fixed list of a traced run, per workload.
TRACE_OPS = {"study": 24, "trajectory": 12, "static": 200}
MIN_TAIL_BEYOND = 10
# Per-layer functions reported by name; every wrapped function is in report.json.
LAYER_FUNCTIONS = (
    "dynamics.run_sih",
    "dynamics.run_sioh",
    "experiments.gen_er_signed",
    "experiments.count_triads",
    "experiments.conflict_ratio",
    "experiments.link_density",
    "experiments.linear_regression",
    "experiments.export_csv",
    "rng.derive_seed",
    "rng.stream",
    "cli.main.analyze",
    "cli.main.equivalence",
    "cli.main.simulate",
    "cli.main.experiment",
    "chordal.check_equivalence_conditions",
    "chordal.maximal_cyclic_subgraphs",
    "chordal.is_subchordal",
    "chordal.is_chordal",
    "chordal.find_chords",
    "chordal.equivalence_counterexample",
    "balance.is_triad_wise_balanced",
    "balance.detect_two_faction",
    "balance.enumerate_simple_cycles",
    "graphs.read_edge_list",
    "graphs.format_edge_list",
    "graphs.skeleton",
    "graphs.ego_network",
    "graphs.induced_subgraph",
)


@dataclass
class OpRecord:
    op: object
    code: object
    seconds: float
    outcome: object
    probe: float


def reference_seconds() -> float:
    """Time a fixed pure-Python gossip loop that never touches the library.

    The host's speed drifts by tens of percent between and within runs; the
    loop, timed right after each op, measures that speed so that op costs
    can be stated relative to it.
    """
    rng = random.Random(12345)
    rows = [[rng.choice((-1, 0, 1)) for _ in range(12)] for _ in range(12)]
    start = perf_counter()
    for _ in range(REFERENCE_DRAWS):
        i, j = rng.randrange(12), rng.randrange(12)
        ks = [k for k in range(12) if rows[i][k] and rows[j][k]]
        if ks:
            k = ks[rng.randrange(len(ks))]
            rows[i][j] = rows[i][k] * rows[k][j]
    return perf_counter() - start


def setup_reference_seconds() -> float:
    """Time the two kinds of work set-up does, on code outside the library.

    Import compiles and runs class and function definitions; input
    generation is a pure-Python loop over random draws.  The host's speed
    moves the two differently, so the reference times one of each.
    """
    start = perf_counter()
    code = compile(DEFINITIONS_SOURCE, "<setup reference>", "exec", dont_inherit=True)
    exec(code, {"__name__": "setup_reference"})
    return perf_counter() - start + reference_seconds()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("study", "trajectory", "static"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def purge_library() -> None:
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def setup(workload_cls, seed: int, workdir: Path) -> tuple:
    """Import the library afresh and generate the inputs.

    Returns (workload, seconds, reference): ``reference`` is the mean of the
    set-up reference timed right before and right after.  The library left in
    ``sys.modules`` is the one the CLI calls and the checks use.
    """
    purge_library()
    before = setup_reference_seconds()
    start = perf_counter()
    importlib.import_module(f"{PACKAGE}.cli")
    workload = workload_cls(seed, workdir)
    workload.make_inputs()
    seconds = perf_counter() - start
    reference = (before + setup_reference_seconds()) / 2
    loaded = Path(sys.modules[PACKAGE].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SystemExit(f"imported {loaded}, not the checkout's own {PACKAGE}")
    return workload, seconds, reference


def call_cli(argv: list) -> tuple:
    """One in-process CLI call; returns (exit code, stdout, stderr, seconds)."""
    from balance_lab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a traceback is a failed op, not a benchmark crash
            code = "exception"
            seconds = perf_counter() - start
            traceback.print_exc()
        else:
            seconds = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def execute(workload, index: int, tracer=None) -> OpRecord:
    from workloads import Outcome

    op = workload.op(index)
    if tracer is None:
        code, stdout, stderr, seconds = call_cli(op.argv)
    else:
        tracer.op = index
        tracer.install()
        try:
            code, stdout, stderr, seconds = call_cli(op.argv)
        finally:
            tracer.uninstall()
    probe = reference_seconds()
    try:
        outcome = workload.check(op, code, stdout)
    except Exception as exc:  # a malformed output is a failed op
        outcome = Outcome(failed=op.units, problems=[f"check raised {exc!r}"])
    if code == "exception":
        outcome.problems.append(stderr.strip().splitlines()[-1])
    for path in op.files.values():
        path.unlink(missing_ok=True)
    return OpRecord(op, code, seconds, outcome, probe)


def tail(sorted_values: list) -> tuple:
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    count = len(sorted_values)
    if count <= MIN_TAIL_BEYOND:
        return sorted_values[-1], 100.0
    return sorted_values[count - MIN_TAIL_BEYOND - 1], 100.0 * (count - MIN_TAIL_BEYOND) / count


def unit_costs(records: list, work_is_steps: bool, relative: bool) -> dict:
    """Per op class: median cost per unit of work (step or request).

    The cost is seconds, or with ``relative`` seconds divided by the
    reference loop timed around the op: the mean of the probe right after it
    and the one after the op before, as long ops outlast a shift in host
    speed.  Ops that did no work (a study call whose trials all started
    balanced) have no cost per unit and are left out.
    """
    by_class: dict = {}
    for before, r in zip([records[0]] + records[:-1], records):
        work = r.outcome.steps if work_is_steps else r.op.units
        if work:
            scale = (before.probe + r.probe) / 2 if relative else 1.0
            by_class.setdefault(r.op.cls, []).append(r.seconds / work / scale)
    return {cls: statistics.median(costs) for cls, costs in sorted(by_class.items())}


def geometric_mean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def op_summary(records: list) -> dict:
    wall = sum(r.seconds for r in records)
    attempted = sum(r.op.units for r in records)
    failed = sum(r.outcome.failed for r in records)
    latencies = sorted(r.seconds for r in records)
    tail_value, tail_pct = tail(latencies)
    return {
        "wall_s": wall,
        "ops": len(records),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "steps": sum(r.outcome.steps for r in records),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_value,
        "op_tail_percentile": tail_pct,
        "op_samples": len(latencies),
    }


def digest_of(records: list) -> str:
    """One SHA-256 over every op's output digests, in op order."""
    digest = hashlib.sha256()
    for r in records:
        digest.update(json.dumps([r.op.index, r.outcome.digests], sort_keys=True).encode())
    return digest.hexdigest()


def git_sha():
    """HEAD of the checkout, or None outside a git repository.

    The ceiling keeps git from taking up a repository above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workers": int(os.environ[THREADS_ENV]),
        "loadavg_start": os.getloadavg(),
    }


def timed_run(workload, seconds: float) -> tuple:
    """The closed loop: one op at a time until their own time reaches ``seconds``.

    The loop ends on a whole cycle of the workload's op plan, so that every
    op class the cost metric averages over is in the run.
    """
    records, wall, index = [], 0.0, 0
    while wall < seconds or index % workload.cycle:
        record = execute(workload, index)
        records.append(record)
        wall += record.seconds
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = op_summary(records)
    relative = unit_costs(records, workload.work_is_steps, relative=True)
    absolute = unit_costs(records, workload.work_is_steps, relative=False)
    extra = {
        "peak_rss_mb": peak_rss_mb,
        "unit_cost_ref": geometric_mean(relative.values()),
        "unit_cost_us": 1e6 * geometric_mean(absolute.values()),
        "unit_cost_us_by_class": {cls: 1e6 * cost for cls, cost in absolute.items()},
        "reference_ms_p50": 1e3 * statistics.median(r.probe for r in records),
        f"{workload.unit}s_per_s": summary["attempted"] / summary["wall_s"],
    }
    if summary["steps"]:
        extra["steps_per_s"] = summary["steps"] / summary["wall_s"]
    return records, summary, extra


def traced_run(workload) -> tuple:
    from counts import count_pass
    from tracing import LAYERS, Tracer, self_times

    count = TRACE_OPS[workload.name]
    plain = [execute(workload, i) for i in range(count)]
    tracer = Tracer()
    traced = [execute(workload, i, tracer) for i in range(count)]
    problems = []
    failed = sum(r.outcome.failed for r in plain + traced)
    for a, b in zip(plain, traced):
        if a.outcome.digests != b.outcome.digests:
            problems.append(f"op {a.op.index}: traced outputs differ from untraced")
            failed += b.op.units
    counts, steps_table, count_problems = count_pass(tracer.captures)
    problems += count_problems
    failed += len(count_problems)

    table = self_times(tracer.spans)
    plain_wall = sum(r.seconds for r in plain)
    traced_wall = sum(r.seconds for r in traced)
    self_sum = sum(entry["self_s"] for entry in table.values())
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, entry in table.items():
        layer_self[name.split(".", 1)[0]] += entry["self_s"]
    metrics = {}
    for name in LAYER_FUNCTIONS:
        entry = table.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_pct"] = 100.0 * entry["self_s"] / traced_wall
    for layer, busy in layer_self.items():
        metrics[f"{layer}.self_pct"] = 100.0 * busy / traced_wall
    metrics.update(counts)
    for n, row in steps_table.items():
        for key, value in row.items():
            metrics[f"dynamics.n{n}.{key}"] = value or 0
    metrics.update(
        {
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": plain_wall,
            "trace.overhead_s": traced_wall - plain_wall,
            "trace.overhead_pct": 100.0 * (traced_wall - plain_wall) / plain_wall,
            "trace.self_sum_pct": 100.0 * self_sum / traced_wall,
        }
    )
    if not 0.95 <= self_sum / traced_wall <= 1.0 + 1e-9:
        problems.append(f"self times add up to {self_sum:.6f} s of {traced_wall:.6f} s traced")

    per_run = {}
    for capture in tracer.captures:
        key = f"{capture.name}.n{capture.result.final_x.n}"
        busy, steps = per_run.get(key, (0.0, 0))
        per_run[key] = (busy + capture.seconds, steps + capture.result.steps)
    draws = counts["dynamics.draws"]
    details = {
        "functions": {name: table[name] for name in sorted(table)},
        "layers_self_s": layer_self,
        "dynamics.us_per_step": 1e6 * layer_self["dynamics"] / draws if draws else None,
        "dynamics.us_per_step_by_run": {k: 1e6 * b / n for k, (b, n) in sorted(per_run.items()) if n},
        "steps_by_n": steps_table,
        "digest_untraced": digest_of(plain),
        "digest_traced": digest_of(traced),
        "ops": [op_detail(r) for r in traced],
        "untraced": op_summary(plain),
        "traced": op_summary(traced),
    }
    attempted = sum(r.op.units for r in plain + traced)
    spans = [(s.op, s.name, s.start, s.end, s.parent) for s in tracer.spans]
    return metrics, details, attempted, failed, problems, spans


def op_detail(record: OpRecord) -> dict:
    return {
        "index": record.op.index,
        "kind": record.op.kind,
        "code": record.code,
        "seconds": record.seconds,
        "units": record.op.units,
        "failed": record.outcome.failed,
        "steps": record.outcome.steps,
        "cls": record.op.cls,
        "probe": record.probe,
        "sha256": record.outcome.digests,
        "problems": record.outcome.problems,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "cli.py").is_file():
        sys.stderr.write(f"no {PACKAGE} sources under {SRC}; run from a full checkout\n")
        return 3
    os.environ[THREADS_ENV] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workdir = HERE / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    meta = metadata(args)
    # Each repeat writes the same input files and leaves a freshly imported library.
    setups = [setup(WORKLOADS[args.workload], args.seed, workdir) for _ in range(SETUP_REPS)]
    workload = setups[-1][0]
    setup_raw = [seconds for _, seconds, _ in setups]
    setup_s = SETUP_REFERENCE_NOMINAL_S * statistics.median(seconds / ref for _, seconds, ref in setups)
    report = {"meta": meta, "setup_s": setup_s, "setup_raw_s_each": setup_raw,
              "setup_reference_ms_each": [1e3 * ref for _, _, ref in setups]}
    lines = []
    if args.trace:
        metrics, details, attempted, failed, problems, spans = traced_run(workload)
        report.update(details)
        with open(workdir / "spans.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        us = details["dynamics.us_per_step"]
        lines.append(
            "dynamics.us_per_step "
            + ("n/a (no steps)" if us is None else f"{us:.4f} us")
            + "  (ROADMAP: about 4-5 us per SIH step at n=8)"
        )
        lines.append(f"outputs sha256 {details['digest_traced']} (untraced {details['digest_untraced']})")
    else:
        records, summary, extra = timed_run(workload, args.seconds)
        problems = [f"op {r.op.index}: {p}" for r in records for p in r.outcome.problems]
        attempted, failed = summary["attempted"], summary["failed"]
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": extra["peak_rss_mb"],
            "unit_cost_ref": extra["unit_cost_ref"],
        }
        report.update({"summary": summary, "rates": extra, "ops": [op_detail(r) for r in records]})
        report["digest"] = digest_of(records)
        unit = workload.unit
        lines.append(
            f"{summary['ops']} ops, {attempted} {unit}s, {failed} failed (failed_frac {summary['failed_frac']}), "
            f"wall_s {summary['wall_s']:.4f}"
        )
        lines.append(
            f"{workload.op_name}_p50_ms {summary['op_p50_ms']:.4f}, {workload.op_name}_tail_ms {summary['op_tail_ms']:.4f} "
            f"at p{summary['op_tail_percentile']:.1f} of {summary['op_samples']} samples"
        )
        lines.append(f"setup_raw_s {statistics.median(setup_raw):.6f} (median of {SETUP_REPS}, not scaled)")
        for name in ("unit_cost_us", "reference_ms_p50", "steps_per_s", f"{workload.unit}s_per_s"):
            if name in extra:
                lines.append(f"{name} {extra[name]:.4f}")
    meta["loadavg_end"] = os.getloadavg()
    meta["threads_end"] = threading.active_count()
    report.update({"metrics": metrics, "problems": problems, "attempted": attempted, "failed": failed})
    (workdir / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for problem in problems[:20]:
        lines.append(f"FAILED {problem}")
    lines.append(f"report {workdir.relative_to(ROOT)}/report.json")
    print("\n".join(lines))
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
