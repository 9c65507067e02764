"""The three benchmark workloads: inputs, CLI ops, and output checks.

Every op is one in-process call of ``balance_lab.cli.main(argv)``.  Inputs
come from the benchmark seed alone, through the benchmark's own random
streams, so they do not change when the library's generators do.  Checks
run outside the timed part and use the library's definition-literal
oracles (``is_sih_equilibrium``, ``is_sioh_equilibrium``,
``verify_equivalence_exhaustive``) or recompute a figure from first
principles.

The library is imported lazily inside functions: ``run.setup`` re-imports
it several times to time the import, and the checks must use the modules
that the CLI uses.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

EXIT_OK = 0
EXIT_NOT_ABSORBED = 4
EXHAUSTIVE_EDGE_LIMIT = 14
REL_TOL = 1e-9


@dataclass
class Op:
    """One CLI call and what the benchmark knows about it in advance."""

    index: int
    kind: str
    argv: list
    units: int
    # Ops of one class cost alike; the cost metric balances the classes.
    cls: str
    files: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Checked result of one op; ``failed`` counts failed units."""

    failed: int
    steps: int = 0
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _write_matrix(rows: list, path: Path) -> None:
    from balance_lab import graphs

    x = graphs.AppraisalMatrix(tuple(tuple(r) for r in rows))
    path.write_text(graphs.format_edge_list(x), encoding="utf-8")


def _signed_er(rng: random.Random, n: int, p: float, p_neg: float) -> list:
    """Bilateral ER links; each direction flips negative independently."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i][j] = rows[j][i] = 1
    for i in range(n):
        for j in range(n):
            if rows[i][j] and rng.random() < p_neg:
                rows[i][j] = -1
    return rows


def _factioned_er(rng: random.Random, n: int, p: float) -> list:
    """Bilateral ER links signed by a random two-faction split (balanced)."""
    side = [rng.choice((1, -1)) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i][j] = rows[j][i] = side[i] * side[j]
    return rows


def _connected_skeleton(rng: random.Random, n: int, extra: int) -> list:
    """Random spanning tree on 1..n plus ``extra`` further edges."""
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    spare = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if (a, b) not in edges]
    rng.shuffle(spare)
    edges.update(spare[:extra])
    rows = [[0] * n for _ in range(n)]
    for a, b in edges:
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = 1
    return rows


class Workload:
    name = ""
    unit = "op"
    # What one op is called where it carries more than one unit.
    op_name = "op"
    # A timed run stops only after a whole cycle of this many ops.
    cycle = 1
    # Work of an op: its SIH/SIOH steps, or else its units.
    work_is_steps = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def make_inputs(self) -> None:
        """Generate and write the input files; timed as part of set-up."""

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op, code, stdout: str) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# study: `balance-lab experiment` on the twelve criterion-9 configurations.
# ---------------------------------------------------------------------------

STUDY_N = 8
# The criterion-9 job runs 3000 trials per call.  At 50 the per-call costs
# (argument parsing, CSV and summary files, regression) are well under 1% of
# a call, and a timed run still calls every configuration a few times.
STUDY_TRIALS_PER_CALL = 50
STUDY_CONFIGS = (
    [("c0", p, None) for p in (0.2, 0.4, 0.6, 0.7)]
    + [("density", None, q) for q in (0.1, 0.3, 0.7, 0.9)]
    + [("triads", p, q) for p in (0.4, 0.7) for q in (0.1, 0.9)]
)
STUDY_MAX_STEPS = 10**6
CSV_HEADER = ["trial", "seed", "n", "p", "p_neg", "c0", "c_inf", "rho_link", "n_triad", "steps", "absorbed"]
C_INF, STEPS, ABSORBED = (CSV_HEADER.index(name) for name in ("c_inf", "steps", "absorbed"))
# Regressor column of each study (the response is always c_inf).
STUDY_X = {"c0": "c0", "density": "rho_link", "triads": "n_triad"}


def trial_seed(master: int, trial: int) -> int:
    """The documented stream derivation: first 8 bytes of SHA-256("master,trial")."""
    return int.from_bytes(hashlib.sha256(f"{master},{trial}".encode("ascii")).digest()[:8], "big")


def _ratio_cell(cell: str):
    if cell == "":
        return None
    value = float(cell)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"ratio {cell} outside [0, 1]")
    return value


def _regression(xs: list, ys: list):
    """Least squares and Pearson r, written out from the definitions."""
    m = len(xs)
    if m < 2:
        return None, None, None
    mean_x = sum(xs) / m
    mean_y = sum(ys) / m
    sxx = sum((v - mean_x) ** 2 for v in xs)
    syy = sum((v - mean_y) ** 2 for v in ys)
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(xs, ys))
    if sxx == 0.0:
        return None, mean_y, None
    k = sxy / sxx
    return k, mean_y - k * mean_x, None if syy == 0.0 else sxy / (sxx * syy) ** 0.5


class Study(Workload):
    name = "study"
    unit = "trial"
    op_name = "call"
    cycle = len(STUDY_CONFIGS)

    def op(self, index: int) -> Op:
        study, p, p_neg = STUDY_CONFIGS[index % len(STUDY_CONFIGS)]
        csv_path = self.workdir / f"op{index}.csv"
        summary_path = self.workdir / f"op{index}.json"
        argv = [
            "experiment", "--study", study, "--n", str(STUDY_N),
            "--trials", str(STUDY_TRIALS_PER_CALL), "--seed", str(self.seed * 1_000_000 + index),
            "--max-steps", str(STUDY_MAX_STEPS), "--out", str(csv_path), "--summary", str(summary_path),
        ]
        if p is not None:
            argv += ["--p", repr(p)]
        if p_neg is not None:
            argv += ["--p-neg", repr(p_neg)]
        meta = {"study": study, "p": p, "p_neg": p_neg, "master": self.seed * 1_000_000 + index}
        cls = f"{study}-p{p}-pneg{p_neg}"
        files = {"csv": csv_path, "summary": summary_path}
        return Op(index, study, argv, STUDY_TRIALS_PER_CALL, cls, files, meta)

    def _check_row(self, op: Op, position: int, row: list) -> int:
        trial, seed, n, p, p_neg, c0, c_inf, rho, n_triad, steps, absorbed = row
        if int(trial) != position or int(n) != STUDY_N:
            raise ValueError("trial index or n out of place")
        if int(seed) != trial_seed(op.meta["master"], position):
            raise ValueError("trial seed is not derived from (master seed, trial index)")
        for cell, fixed in ((p, op.meta["p"]), (p_neg, op.meta["p_neg"])):
            value = float(cell)
            if (fixed is not None and value != fixed) or not 0.0 <= value <= 1.0:
                raise ValueError(f"generator parameter {cell} wrong")
        _ratio_cell(c0)
        _ratio_cell(c_inf)
        _ratio_cell(rho)
        if int(n_triad) < 0 or int(n_triad) > STUDY_N * (STUDY_N - 1) * (STUDY_N - 2) // 6:
            raise ValueError("triad count out of range")
        steps = int(steps)
        if absorbed not in ("0", "1") or not 0 <= steps <= STUDY_MAX_STEPS:
            raise ValueError("steps or absorbed flag out of range")
        if absorbed == "0" and steps != STUDY_MAX_STEPS:
            raise ValueError("a trial that did not absorb stopped before max-steps")
        return steps

    def check(self, op: Op, code, stdout: str) -> Outcome:
        out = Outcome(failed=0)
        files = op.files
        if code != EXIT_OK:
            out.problems.append(f"exit code {code}")
            out.failed = op.units
            return out
        out.digests = {"csv": sha256_file(files["csv"]), "summary": sha256_file(files["summary"])}
        with open(files["csv"], newline="", encoding="utf-8") as handle:
            table = list(csv.reader(handle))
        summary_text = files["summary"].read_text(encoding="utf-8")
        if table[:1] != [CSV_HEADER] or len(table) != op.units + 1 or summary_text != stdout:
            out.problems.append("CSV header, row count or summary echo wrong")
            out.failed = op.units
            return out
        rows = table[1:]
        for position, row in enumerate(rows):
            try:
                out.steps += self._check_row(op, position, row)
            except ValueError as exc:
                out.problems.append(f"trial {position}: {exc}")
                out.failed += 1
        if out.failed:
            return out
        summary = json.loads(summary_text)
        column = CSV_HEADER.index(STUDY_X[op.meta["study"]])
        pairs = [
            (float(row[column]), float(row[C_INF]))
            for row in rows
            if row[column] != "" and row[C_INF] != ""
        ]
        k, b, r = _regression([a for a, _ in pairs], [c for _, c in pairs])
        absorbed = sum(row[ABSORBED] == "1" for row in rows)
        expected = {
            "study": op.meta["study"],
            "n": STUDY_N,
            "trials": op.units,
            "regression_points": len(pairs),
            "absorbed_fraction": absorbed / op.units,
            "mean_steps": sum(int(row[STEPS]) for row in rows) / op.units,
        }
        consistent = all(summary.get(key) == value for key, value in expected.items())
        consistent = consistent and all(
            _close(summary.get(key), value) for key, value in (("k", k), ("b", b), ("r", r))
        )
        if not consistent:
            out.problems.append("summary disagrees with the CSV")
            out.failed = op.units
        return out


# ---------------------------------------------------------------------------
# trajectory: long `balance-lab simulate` runs, SIH and SIOH, n = 16..32.
# ---------------------------------------------------------------------------

TRAJECTORY_NS = (16, 24, 32)
TRAJECTORY_P = 0.5
TRAJECTORY_P_NEG = 0.3
TRAJECTORY_MAX_STEPS = 10_000
TRAJECTORY_GRAPHS_PER_N = 32
ENGINES = ("sih", "sioh")


def trajectory_plan(index: int) -> tuple:
    """(n, engine, log) of op ``index``.

    Within every block of six ops each (n, log) pair occurs once with three
    SIH and three SIOH runs, and every twelve ops cover all twelve
    combinations, so a run cut after any block keeps the mix balanced.
    """
    i = index % 12
    return TRAJECTORY_NS[i % 3], ENGINES[(i // 6 + i) % 2], i % 2 == 1


class Trajectory(Workload):
    name = "trajectory"
    unit = "run"
    op_name = "run"

    def make_inputs(self) -> None:
        rng = random.Random(f"trajectory:{self.seed}")
        self.inputs = {}
        for n in TRAJECTORY_NS:
            for g in range(TRAJECTORY_GRAPHS_PER_N):
                path = self.workdir / f"er_n{n}_{g}.el"
                _write_matrix(_signed_er(rng, n, TRAJECTORY_P, TRAJECTORY_P_NEG), path)
                self.inputs[n, g] = path

    def op(self, index: int) -> Op:
        n, engine, log = trajectory_plan(index)
        # n repeats every third op, so each run of a size takes the next graph.
        graph = self.inputs[n, (index // 3) % TRAJECTORY_GRAPHS_PER_N]
        argv = [
            "simulate", "--input", str(graph), "--engine", engine,
            "--seed", str(self.seed * 1_000_000 + index), "--max-steps", str(TRAJECTORY_MAX_STEPS),
        ]
        files = {}
        if log:
            files = {"out": self.workdir / f"op{index}.el", "log": self.workdir / f"op{index}.jsonl"}
            argv += ["--out", str(files["out"]), "--log", str(files["log"])]
        kind = f"{engine}-n{n}{'-log' if log else ''}"
        return Op(index, kind, argv, 1, kind, files, {"n": n, "engine": engine})

    def check(self, op: Op, code, stdout: str) -> Outcome:
        from balance_lab import dynamics, graphs

        out = Outcome(failed=1)
        try:
            payload = json.loads(stdout)
        except ValueError:
            out.problems.append(f"exit code {code}, stdout is not JSON")
            return out
        out.digests = {"stdout": sha256_text(stdout)}
        steps, absorbed = payload.get("steps"), payload.get("absorbed")
        out.steps = steps if isinstance(steps, int) else 0
        if payload.get("engine") != op.meta["engine"] or payload.get("n") != op.meta["n"]:
            out.problems.append("engine or n echoed wrong")
        if not isinstance(steps, int) or not 0 <= steps <= TRAJECTORY_MAX_STEPS:
            out.problems.append(f"steps {steps!r} out of range")
        if code not in (EXIT_OK, EXIT_NOT_ABSORBED) or (code == EXIT_OK) != (absorbed is True):
            out.problems.append(f"exit code {code} with absorbed={absorbed!r}")
        if absorbed is False and steps != TRAJECTORY_MAX_STEPS:
            out.problems.append("stopped before max-steps without absorbing")
        if "out" in op.files:
            out.digests["out"] = sha256_file(op.files["out"])
            out.digests["log"] = sha256_file(op.files["log"])
            final = graphs.read_edge_list(op.files["out"])
            if op.meta["engine"] == "sih":
                equilibrium = dynamics.is_sih_equilibrium(final)
            else:
                state = dynamics.SiohState(final, tuple(payload.get("final_opinions") or ()))
                equilibrium = dynamics.is_sioh_equilibrium(state)
            if equilibrium != absorbed:
                out.problems.append(f"final state equilibrium={equilibrium} but absorbed={absorbed}")
            lines = _count_lines(op.files["log"])
            if lines != steps:
                out.problems.append(f"event log has {lines} lines for {steps} steps")
        if not out.problems:
            out.failed = 0
        return out


def _count_lines(path: Path) -> int:
    count = 0
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            count += block.count(b"\n")
    return count


# ---------------------------------------------------------------------------
# static: `balance-lab equivalence` and `balance-lab analyze` requests.
# ---------------------------------------------------------------------------

STATIC_POOL = 400
STATIC_SKELETON_NS = tuple(range(4, 13))
STATIC_MAX_EXTRA_EDGES = 5
STATIC_ANALYZE_NS = tuple(range(16, 65, 8))
STATIC_ANALYZE_P = 0.3
STATIC_ANALYZE_P_NEG = 0.3
# Three equivalence requests per analyze request.
STATIC_ANALYZE_EVERY = 4


class Static(Workload):
    name = "static"
    unit = "request"
    op_name = "request"
    work_is_steps = False

    def make_inputs(self) -> None:
        rng = random.Random(f"static:{self.seed}")
        self.inputs = []
        # Sizes, densities and sign modes are stratified, not drawn, so every
        # seed gets the same mix and only the graphs themselves differ.
        analyzed = skeletons = 0
        for j in range(STATIC_POOL):
            path = self.workdir / f"in{j}.el"
            if j % STATIC_ANALYZE_EVERY == STATIC_ANALYZE_EVERY - 1:
                n = STATIC_ANALYZE_NS[analyzed % len(STATIC_ANALYZE_NS)]
                planted = (analyzed // len(STATIC_ANALYZE_NS)) % 2 == 1
                if planted:
                    rows = _factioned_er(rng, n, STATIC_ANALYZE_P)
                else:
                    rows = _signed_er(rng, n, STATIC_ANALYZE_P, STATIC_ANALYZE_P_NEG)
                kind, edges = "analyze", planted
                analyzed += 1
            else:
                n = STATIC_SKELETON_NS[skeletons % len(STATIC_SKELETON_NS)]
                extra = 1 + (skeletons // len(STATIC_SKELETON_NS)) % STATIC_MAX_EXTRA_EDGES
                rows = _connected_skeleton(rng, n, extra)
                kind = "equivalence"
                edges = sum(v != 0 for row in rows for v in row) // 2
                skeletons += 1
            _write_matrix(rows, path)
            self.inputs.append((kind, path, n, edges))

    def op(self, index: int) -> Op:
        # ``detail`` is the edge count of a skeleton, or whether an analyze
        # input was signed by a planted two-faction split.
        kind, path, n, detail = self.inputs[index % len(self.inputs)]
        report = self.workdir / f"op{index}.json"
        argv = [kind, "--input", str(path), "--out", str(report)]
        if kind == "equivalence" and detail <= EXHAUSTIVE_EDGE_LIMIT:
            argv.append("--verify-exhaustive")
        meta = {"input": path, "n": n, "planted": kind == "analyze" and detail}
        return Op(index, kind, argv, 1, f"{kind}-n{n}", {"report": report}, meta)

    def check(self, op: Op, code, stdout: str) -> Outcome:
        out = Outcome(failed=1)
        if code != EXIT_OK:
            out.problems.append(f"exit code {code}")
            return out
        out.digests = {"report": sha256_file(op.files["report"])}
        report = json.loads(stdout)
        if op.files["report"].read_text(encoding="utf-8") != stdout or report.get("n") != op.meta["n"]:
            out.problems.append("report file or n disagrees with stdout")
        elif op.kind == "analyze":
            out.problems += check_analyze(op.meta["input"], report, op.meta["planted"])
        else:
            out.problems += check_equivalence(op.meta["input"], report, "--verify-exhaustive" in op.argv)
        if not out.problems:
            out.failed = 0
        return out


def two_faction_exists(rows) -> bool:
    """Whether some split of the nodes puts every positive link inside a
    faction and every negative link across: union-find with side parity."""
    n = len(rows)
    parent, parity = list(range(n)), [0] * n

    def find(a):
        flip = 0
        while parent[a] != a:
            flip ^= parity[a]
            a = parent[a]
        return a, flip

    for a in range(n):
        for b in range(n):
            if a != b and rows[a][b]:
                across = int(rows[a][b] < 0)
                (ra, fa), (rb, fb) = find(a), find(b)
                if ra == rb:
                    if fa ^ fb != across:
                        return False
                else:
                    parent[ra], parity[ra] = rb, fa ^ fb ^ across
    return True


def _partition_problem(x, part):
    """What is wrong with a reported two-faction witness, or None."""
    if part.get("kind") not in ("two-faction", "no-negative-links"):
        return f"unknown two_faction kind {part.get('kind')!r}"
    side = {v: 0 for v in part.get("v1", [])}
    side.update({v: 1 for v in part.get("v2", [])})
    if len(part.get("v1", [])) + len(part.get("v2", [])) != len(side) or set(side) != set(x.labels):
        return "two_faction does not split the nodes into two disjoint factions"
    for a, i in enumerate(x.labels):
        for b, j in enumerate(x.labels):
            v = x.rows[a][b]
            if v and (v > 0) != (side[i] == side[j]):
                return f"two_faction puts link {i}->{j} of sign {v} on the wrong side"
    return None


@functools.lru_cache(maxsize=None)
def analyze_expected(path: Path) -> tuple:
    """(matrix, report fields, whether a two-faction split exists) of an input.

    They depend on the input alone, so each pool input is worked out once.
    ``triad_wise_balanced`` is the SIH equilibrium oracle's verdict; the rest
    is recounted from the definitions.
    """
    from balance_lab import dynamics, graphs

    x = graphs.read_edge_list(path)
    rows, n = x.rows, x.n
    links = [v for row in rows for v in row if v]
    negative = sum(v < 0 for v in links)
    mutual = [{b for b in range(n) if rows[a][b] and rows[b][a]} for a in range(n)]
    ego = {}
    for a, i in enumerate(x.labels):
        members = [b for b in range(n) if b == a or rows[a][b]]
        ego[str(i)] = two_faction_exists([[rows[p][q] for q in members] for p in members])
    fields = {
        "triad_wise_balanced": dynamics.is_sih_equilibrium(x),
        "conflict_ratio": negative / len(links) if links else None,
        "link_density": len(links) / (n * (n - 1)),
        # Each triangle is seen once from each of its six ordered pairs.
        "triad_count": sum(len(mutual[a] & mutual[b]) for a in range(n) for b in mutual[a]) // 6,
        "ego_two_faction": ego,
        "all_ego_two_faction": all(ego.values()),
    }
    return x, fields, two_faction_exists(rows)


def check_analyze(path: Path, report: dict, planted: bool) -> list:
    x, fields, exists = analyze_expected(path)
    problems = [
        f"{key} wrong"
        for key, value in fields.items()
        if not (_close(report.get(key), value) if isinstance(value, float) else report.get(key) == value)
    ]
    if planted and not exists:
        problems.append("no two-faction split found on a planted input")
    part = report.get("two_faction")
    if part is None:
        if exists:
            problems.append("two_faction is null but a two-faction split exists")
    else:
        problem = _partition_problem(x, part)
        if problem:
            problems.append(problem)
    return problems


@functools.lru_cache(maxsize=None)
def exhaustive_holds(path: Path) -> bool:
    """The exhaustive oracle's verdict on an input; worked out once per input."""
    from balance_lab import chordal, graphs

    return chordal.verify_equivalence_exhaustive(graphs.skeleton(graphs.read_edge_list(path)))


def check_equivalence(path: Path, report: dict, exhaustive: bool) -> list:
    from balance_lab import balance, graphs

    g = graphs.skeleton(graphs.read_edge_list(path))
    problems = []
    if sorted(list(e) for e in g.edges) != report.get("edges"):
        problems.append("edge list echoed wrong")
    certified = report.get("conditions_hold")
    if certified is True and g.edge_count() <= EXHAUSTIVE_EDGE_LIMIT:
        if not exhaustive_holds(path):
            problems.append("certified skeleton fails the exhaustive check")
    if exhaustive:
        verdict = report.get("exhaustive") or {}
        counterexample = verdict.get("counterexample")
        if verdict.get("equivalence_holds") != (counterexample is None):
            problems.append("exhaustive verdict contradicts its counterexample")
        if counterexample is not None:
            signs = {(a, b): s for a, b, s in counterexample}
            if set(signs) != set(g.edges) or any(s not in (-1, 1) for s in signs.values()):
                problems.append("counterexample does not sign every skeleton edge")
            else:
                x = graphs.AppraisalMatrix.from_edge_list(
                    g.n, [link for (a, b), s in signs.items() for link in ((a, b, s), (b, a, s))]
                )
                if not balance.is_triad_wise_balanced(x)[0] or balance.detect_two_faction(x) is not None:
                    problems.append("counterexample is not triad-wise-only balanced")
    return problems


WORKLOADS = {cls.name: cls for cls in (Study, Trajectory, Static)}
