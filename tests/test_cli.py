import contextlib
import errno
import hashlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from balance_lab import balance, chordal, cli, dynamics, experiments, graphs
from balance_lab.cli import (
    EXIT_GUARD,
    EXIT_NOT_ABSORBED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    build_parser,
    main,
)
from balance_lab.graphs import NODE_LIMIT, AppraisalMatrix, parse_edge_list, read_edge_list

from conftest import random_matrix, random_symmetric_matrix

POSITIVE_TRIANGLE = "n 3\n1 2 1\n2 1 1\n1 3 1\n3 1 1\n2 3 1\n3 2 1\n"
ONE_NEGATIVE_TRIANGLE = "n 3\n1 2 -1\n2 1 -1\n1 3 1\n3 1 1\n2 3 1\n3 2 1\n"
ALL_NEGATIVE_TRIANGLE = "n 3\n1 2 -1\n2 1 -1\n1 3 -1\n3 1 -1\n2 3 -1\n3 2 -1\n"
CHORDLESS_SQUARE = "n 4\n1 2 1\n2 1 1\n2 3 1\n3 2 1\n3 4 1\n4 3 1\n4 1 1\n1 4 1\n"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.el"
    path.write_text(POSITIVE_TRIANGLE)
    return str(path)


def ring_file(tmp_path, n):
    lines = [f"n {n}"]
    for i in range(1, n + 1):
        j = i % n + 1
        lines.append(f"{i} {j} 1")
        lines.append(f"{j} {i} 1")
    path = tmp_path / f"ring{n}.el"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestAnalyze:
    def test_positive_triangle_all_green(self, triangle_file, capsys):
        assert main(["analyze", "--input", triangle_file]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["triad_wise_balanced"] is True
        assert report["two_faction"]["kind"] == "no-negative-links"
        assert report["all_ego_two_faction"] is True
        assert report["violations"] == []

    def test_unbalanced_triangle_lists_triad(self, tmp_path, capsys):
        path = tmp_path / "bad.el"
        path.write_text(ONE_NEGATIVE_TRIANGLE)
        assert main(["analyze", "--input", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["triad_wise_balanced"] is False
        kinds = {v["kind"] for v in report["violations"]}
        assert kinds == {"negative-triad"}
        assert all(sorted(v["nodes"]) == [1, 2, 3] for v in report["violations"])

    def test_all_cycles_answers_without_guard_or_force(self, tmp_path, capsys):
        path = ring_file(tmp_path, 20)
        assert main(["analyze", "--input", path, "--all-cycles"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["all_cycles_positive"] is True
        assert main(["analyze", "--input", path, "--all-cycles", "--force"]) == EXIT_USAGE
        assert "unrecognized arguments: --force" in capsys.readouterr().err

    def test_cycle_check_refuses_sign_asymmetric_input(self, tmp_path, capsys):
        path = tmp_path / "asym.el"
        path.write_text("n 2\n1 2 1\n2 1 -1\n")
        assert main(["analyze", "--input", str(path), "--all-cycles"]) == EXIT_GUARD
        assert "sign-symmetric" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.el"
        path.write_text("n 3\n1 2\n")
        assert main(["analyze", "--input", str(path)]) == EXIT_PARSE
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_is_parse_error(self):
        assert main(["analyze", "--input", "/nonexistent.el"]) == EXIT_PARSE

    def test_empty_1024_node_graph_is_fast(self, tmp_path, capsys):
        # A node-triple scan took about 14 s here; the bound is loose on purpose.
        path = tmp_path / "empty.el"
        path.write_text("n 1024\n")
        start = time.perf_counter()
        assert main(["analyze", "--input", str(path)]) == EXIT_OK
        assert time.perf_counter() - start < 5.0
        report = json.loads(capsys.readouterr().out)
        assert (report["n"], report["triad_count"], report["violations"]) == (1024, 0, [])

    def test_one_request_reads_the_link_masks_once(self, tmp_path, capsys, monkeypatch):
        # Every module that holds a binding of `_link_masks` is counted,
        # so a second build anywhere in the request shows up.
        calls = []

        def counting(plus, minus):
            calls.append(len(plus))
            return real(plus, minus)

        real = graphs._link_masks
        for module in (graphs, balance, experiments, dynamics):
            if hasattr(module, "_link_masks"):
                monkeypatch.setattr(module, "_link_masks", counting)
        path = tmp_path / "bad.el"
        path.write_text(ONE_NEGATIVE_TRIANGLE)
        assert main(["analyze", "--input", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert (report["triad_count"], report["bilateral"]) == (1, True)
        assert calls == [3]

    def test_static_requests_never_build_the_rows_view(self, tmp_path, capsys, monkeypatch):
        # A parsed matrix keeps sign masks only; analyze (with and without
        # --all-cycles) and equivalence must answer without the dense rows.
        parsed = []

        def reading(path):
            parsed.append(real(path))
            return parsed[-1]

        real = cli.read_edge_list
        monkeypatch.setattr(cli, "read_edge_list", reading)
        rng = random.Random("no-rows-view")
        signed = tmp_path / "signed.el"
        signed.write_text(graphs.format_edge_list(random_matrix(rng, 12, 0.3)))
        symmetric = tmp_path / "symmetric.el"
        symmetric.write_text(graphs.format_edge_list(random_symmetric_matrix(rng, 12, 0.4, 0.3)))
        for argv in (
            ["analyze", "--input", str(signed)],
            ["analyze", "--input", str(symmetric), "--all-cycles"],
            ["equivalence", "--input", str(signed), "--verify-exhaustive", "--force"],
        ):
            assert main(argv) == EXIT_OK, argv
            capsys.readouterr()
        assert len(parsed) == 3
        for x in parsed:
            assert x.nonzero_count() > 0 and "rows" not in vars(x)

    def test_report_matches_library(self, triangle_file, capsys):
        # Thin-adapter check: same numbers as direct library calls.
        assert main(["analyze", "--input", triangle_file]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        x = read_edge_list(triangle_file)
        assert report["conflict_ratio"] == experiments.conflict_ratio(x)
        assert report["link_density"] == experiments.link_density(x)
        assert report["triad_count"] == experiments.count_triads(x)
        assert report["triad_wise_balanced"] == balance.is_triad_wise_balanced(x)[0]


class TestEquivalence:
    def test_triangle_conditions_hold(self, triangle_file, capsys):
        assert main(["equivalence", "--input", triangle_file]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["conditions_hold"] is True
        # Thin-adapter check against the library on the same input.
        from balance_lab.chordal import check_equivalence_conditions
        from balance_lab.graphs import skeleton

        ok, certificates = check_equivalence_conditions(
            skeleton(read_edge_list(triangle_file))
        )
        assert report["conditions_hold"] == ok
        assert len(report["subgraphs"]) == len(certificates)

    def test_chordless_square_fails_with_counterexample(self, tmp_path, capsys):
        path = tmp_path / "square.el"
        path.write_text(CHORDLESS_SQUARE)
        code = main(["equivalence", "--input", str(path), "--verify-exhaustive"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["conditions_hold"] is False
        assert report["exhaustive"]["equivalence_holds"] is False
        counterexample = report["exhaustive"]["counterexample"]
        assert counterexample, "expected an explicit sign assignment"
        # Rebuild the assignment and confirm it separates the two notions.
        entries = []
        for i, j, s in counterexample:
            entries.extend([(i, j, s), (j, i, s)])
        from balance_lab.graphs import AppraisalMatrix

        x = AppraisalMatrix.from_edge_list(4, entries)
        assert balance.is_triad_wise_balanced(x)[0]
        assert balance.detect_two_faction(x) is None

    def test_forced_ring_deeper_than_the_default_recursion_limit(self, tmp_path, capsys):
        # 1,100 nodes on one cycle: deeper than CPython's default recursion
        # limit of 1000, so a recursive cycle walk would end in a traceback.
        n = 1100
        path = tmp_path / "ring.el"
        path.write_text(f"n {n}\n" + "".join(f"{i} {i % n + 1} 1\n" for i in range(1, n + 1)))
        assert main(["equivalence", "--input", str(path), "--force"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        report = json.loads(out)
        assert report["conditions_hold"] is False
        assert report["subgraphs"] == [
            {
                "nodes": list(range(1, n + 1)),
                "certified": False,
                "cycle": None,
                "reason": "no covering cycle is subchordal",
            }
        ]

    def test_exhaustive_on_k6_without_edge_guard(self, tmp_path, capsys):
        path = tmp_path / "k6.el"
        links = [f"{i} {j} 1" for i in range(1, 7) for j in range(1, 7) if i != j]
        path.write_text("n 6\n" + "\n".join(links) + "\n")
        assert main(["equivalence", "--input", str(path), "--verify-exhaustive"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["exhaustive"] == {"equivalence_holds": True, "counterexample": None}

    def test_exhaustive_counterexample_on_chorded_ten_ring(self, tmp_path, capsys):
        # 15 edges: the inner pentagon 1-3-5-7-9 is a chordless cycle.
        pairs = [(i, i % 10 + 1) for i in range(1, 11)] + [(1, 3), (3, 5), (5, 7), (7, 9), (1, 9)]
        path = tmp_path / "ring10.el"
        path.write_text("n 10\n" + "".join(f"{i} {j} 1\n{j} {i} 1\n" for i, j in pairs))
        assert main(["equivalence", "--input", str(path), "--verify-exhaustive"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["exhaustive"]["equivalence_holds"] is False
        counterexample = report["exhaustive"]["counterexample"]
        assert sorted([i, j] for i, j, _ in counterexample) == report["edges"]
        assert report["edges"] == sorted(sorted(e) for e in pairs)
        assert all(s in (-1, 1) for _, _, s in counterexample)
        x = AppraisalMatrix.from_edge_list(
            10, [link for i, j, s in counterexample for link in ((i, j, s), (j, i, s))]
        )
        assert balance.is_triad_wise_balanced(x)[0]
        assert balance.detect_two_faction(x) is None

    def test_cycle_enumeration_guard_requires_force(self, tmp_path, capsys):
        path = ring_file(tmp_path, 13)
        assert main(["equivalence", "--input", path]) == EXIT_GUARD
        assert "refused" in capsys.readouterr().err
        assert main(["equivalence", "--input", path, "--force"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["conditions_hold"] is False

    def test_k9_conditions_hold_without_chord_guard(self, tmp_path, capsys):
        # 27 chords on every covering cycle; the subchordality test has no guard.
        path = tmp_path / "k9.el"
        links = [f"{i} {j} 1" for i in range(1, 10) for j in range(1, 10) if i != j]
        path.write_text("n 9\n" + "\n".join(links) + "\n")
        assert main(["equivalence", "--input", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert len(report["edges"]) == 36
        assert report["conditions_hold"] is True

    def test_disconnected_input_rejected(self, tmp_path, capsys):
        path = tmp_path / "disc.el"
        path.write_text("n 4\n1 2 1\n2 1 1\n3 4 1\n4 3 1\n")
        assert main(["equivalence", "--input", str(path)]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: equivalence conditions are defined for connected graphs\n"


_FUZZ_NOISE = st.one_of(
    st.lists(
        st.one_of(st.integers(-2, 10).map(str), st.sampled_from(["n", "#", "x", "1.5", "-", "0x1"])),
        max_size=4,
    ).map(" ".join),
    st.text(max_size=8),
)


# One shape per unordered pair {i, j}, i < j: the links it writes as (i, j, sign) triples.
_FUZZ_SHAPES = {
    "+": lambda i, j: [(i, j, 1), (j, i, 1)],
    "-": lambda i, j: [(i, j, -1), (j, i, -1)],
    "+-": lambda i, j: [(i, j, 1), (j, i, -1)],
    ">": lambda i, j: [(i, j, -1)],
    "<": lambda i, j: [(j, i, 1)],
}


def _fuzz_links(n):
    # Links on nodes 1..n (1..2 under a bad header), on distinct pairs, optionally
    # over a ring through every node so that more skeletons are connected, and
    # either all sign-symmetric or of mixed shapes.
    m = max(n, 2)
    pair = st.tuples(st.integers(1, m), st.integers(1, m)).filter(lambda t: t[0] < t[1])
    ring = [tuple(sorted((i, i % m + 1))) for i in range(1, m + 1)]
    pairs = st.tuples(st.sampled_from([[], ring]), st.lists(pair, max_size=20)).map(
        lambda t: list(dict.fromkeys(t[0] + t[1]))
    )
    shapes = st.sampled_from([["+", "-"], list(_FUZZ_SHAPES)])
    return st.tuples(pairs, shapes).flatmap(
        lambda t: st.lists(st.sampled_from(t[1]), min_size=len(t[0]), max_size=len(t[0])).map(
            lambda picks: [
                f"{i} {j} {sign}"
                for (a, b), shape in zip(t[0], picks)
                for i, j, sign in _FUZZ_SHAPES[shape](a, b)
            ]
        )
    )


_FUZZ_TEXT = st.builds(
    lambda before, header, noise: "\n".join(before + [f"n {header[0]}"] + header[1] + noise) + "\n",
    st.sampled_from([[], [""], ["# comment"], ["1 2 1"]]),
    st.sampled_from(range(-1, 9)).flatmap(lambda n: st.tuples(st.just(n), _fuzz_links(n))),
    st.one_of(st.just([]), st.just([]), st.just([]), _FUZZ_NOISE.map(lambda line: [line])),
)


class TestEdgeListFuzz:
    """Edge-list text with at most 8 nodes: a documented exit, never a traceback."""

    def _run(self, argv, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.el")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([argv[0], "--input", path] + argv[1:])
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_GUARD), (code, err.getvalue())
        if code == EXIT_OK:
            assert json.loads(out.getvalue())["n"] >= 1 and err.getvalue() == ""
        else:
            assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1

    @given(_FUZZ_TEXT, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_analyze(self, text, all_cycles):
        self._run(["analyze"] + (["--all-cycles"] if all_cycles else []), text)

    @given(_FUZZ_TEXT, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equivalence(self, text, verify):
        self._run(["equivalence"] + (["--verify-exhaustive"] if verify else []), text)


def _optional(flag, values):
    """No argument, or ``flag`` with one drawn value."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


_SIMULATE_ARGV = st.builds(
    lambda *parts: ["simulate"] + [arg for part in parts for arg in part],
    st.sampled_from([[], ["--engine", "sih"], ["--engine", "sioh"], ["--engine", "constructive"]]),
    st.integers(2, 10).map(lambda n: ["--n", str(n)]),
    st.floats(0, 1).map(lambda p: ["--p", repr(p)]),
    _optional("--p-neg", st.floats(0, 1).map(repr)),
    _optional("--seed", st.integers(-(10**6), 10**6)),
    _optional("--max-steps", st.integers(1, 500)),
    # Flags refused where they do not apply or when incomplete or out of range.
    st.lists(
        st.sampled_from([
            ["--q1", "0.2", "--q2", "0.3", "--q3", "0.5"],
            ["--p1", "0.5", "--p2", "0.3", "--p3", "0.2"],
            ["--q1", "0.5"],
            ["--p2", "0.5"],
            ["--input", "{graph}"],
            ["--max-steps", "0"],
            ["--n", "1"],
        ]),
        max_size=2,
    ).map(lambda groups: [arg for group in groups for arg in group]),
)


class TestSimulateArgvFuzz:
    """Generated ``simulate`` argv: exit 0, 1 or 4, never a traceback; the log holds the run."""

    @given(_SIMULATE_ARGV, st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_simulate(self, argv, with_log, with_out):
        with tempfile.TemporaryDirectory() as tmp:
            graph, log, final = (os.path.join(tmp, name) for name in ("g.el", "events.jsonl", "final.el"))
            with open(graph, "w", encoding="utf-8") as handle:
                handle.write(ONE_NEGATIVE_TRIANGLE)
            argv = [arg.format(graph=graph) for arg in argv]
            argv += ["--log", log] * with_log + ["--out", final] * with_out
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_NOT_ABSORBED), (argv, code, err.getvalue())
            if code == EXIT_USAGE:
                assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1, argv
                return
            assert err.getvalue() == "", argv
            payload = json.loads(out.getvalue())
            assert payload["absorbed"] == (code == EXIT_OK)
            if with_log:
                with open(log, encoding="utf-8") as handle:
                    lines = handle.readlines()
                assert len(lines) == payload["steps"], argv
                for line in lines:
                    assert json.dumps(json.loads(line), sort_keys=True) + "\n" == line
            if with_out:
                assert read_edge_list(final).n == payload["n"]


# Node counts past the ceiling, refused before any grid is built.
_OVER_CEILING = [NODE_LIMIT + 1, 99999999999999999999]

# Weight flags: none, a full valid set, an incomplete set, a set that does not sum to 1.
_EXPERIMENT_WEIGHTS = [
    [],
    ["--p1", "0.5", "--p2", "0.3", "--p3", "0.2"],
    ["--p1", "0.5"],
    ["--p1", "0.5", "--p2", "0.4", "--p3", "0.2"],
]


def _study_flags(study):
    """``--study`` and its ``--p``/``--p-neg`` flags: mostly the fixed ones it needs, else any."""
    drawn = experiments.STUDIES[study]
    value = st.floats(0, 1).map(repr)
    needed = st.tuples(*(
        st.just([]) if name == drawn else value.map(lambda v, flag=flag: [flag, v])
        for name, flag in (("p", "--p"), ("p_neg", "--p-neg"))
    ))
    anything = st.tuples(_optional("--p", value), _optional("--p-neg", value))
    return st.one_of(needed, needed, anything).map(lambda flags: ["--study", study] + flags[0] + flags[1])


_EXPERIMENT_ARGV = st.builds(
    lambda *parts: ["experiment"] + [arg for part in parts for arg in part],
    st.sampled_from(tuple(experiments.STUDIES)).flatmap(_study_flags),
    st.one_of(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6), st.sampled_from(_OVER_CEILING)).map(
        lambda n: ["--n", str(n)]
    ),
    st.integers(2, 5).map(lambda trials: ["--trials", str(trials)]),
    _optional("--seed", st.integers(-(10**6), 10**6)),
    _optional("--max-steps", st.integers(1, 500)),
    st.sampled_from(_EXPERIMENT_WEIGHTS + _EXPERIMENT_WEIGHTS[:2]),
)


def _experiment_should_run(argv):
    """Whether ``argv`` from ``_EXPERIMENT_ARGV`` names a study the CLI must run."""
    study = argv[argv.index("--study") + 1]
    fixed = {name: f"--{name}" in argv for name in ("p", "p-neg")}
    drawn = {"c0": "p-neg", "density": "p", "triads": None}[study]
    weights = argv[argv.index("--p1"):] if "--p1" in argv else []
    return (
        int(argv[argv.index("--n") + 1]) <= NODE_LIMIT
        and all(fixed[name] == (name != drawn) for name in fixed)
        and weights in _EXPERIMENT_WEIGHTS[:2]
    )


class TestExperimentArgvFuzz:
    """Generated ``experiment`` argv: exit 0 or 1, never a traceback; the CSV holds every trial."""

    @given(_EXPERIMENT_ARGV, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_experiment(self, argv, with_summary):
        with tempfile.TemporaryDirectory() as tmp:
            trials_csv, summary = os.path.join(tmp, "trials.csv"), os.path.join(tmp, "summary.json")
            full = argv + ["--out", trials_csv] + ["--summary", summary] * with_summary
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(full)
            if not _experiment_should_run(argv):
                assert code == EXIT_USAGE, (argv, code, err.getvalue())
                assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1, argv
                assert "Traceback" not in err.getvalue()
                assert os.listdir(tmp) == [], argv
                return
            assert code == EXIT_OK and err.getvalue() == "", (argv, code, err.getvalue())
            trials = int(argv[argv.index("--trials") + 1])
            assert json.loads(out.getvalue())["trials"] == trials
            with open(trials_csv, encoding="utf-8") as handle:
                assert len(handle.read().splitlines()) == trials + 1
            if with_summary:
                with open(summary, encoding="utf-8") as handle:
                    assert handle.read() == out.getvalue()


class TestSimulate:
    def test_balanced_input_zero_steps(self, triangle_file, capsys):
        code = main(["simulate", "--input", triangle_file, "--engine", "sih", "--seed", "1"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["absorbed"] is True and payload["steps"] == 0

    def test_constructive_log_has_strictly_decreasing_phase2_potential(
        self, tmp_path, capsys
    ):
        graph = tmp_path / "neg.el"
        graph.write_text(ALL_NEGATIVE_TRIANGLE)
        out = tmp_path / "final.el"
        log = tmp_path / "events.jsonl"
        code = main(
            [
                "simulate", "--input", str(graph), "--engine", "constructive",
                "--out", str(out), "--log", str(log),
            ]
        )
        assert code == EXIT_OK
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert events, "constructive run on an unbalanced graph must log updates"
        x = parse_edge_list(graph.read_text())
        h = x.negative_count()
        for ev in events:
            delta = (1 if ev["new"] < 0 else 0) - (1 if ev["old"] < 0 else 0)
            h_next = h + delta
            if ev["old"] != 0:  # phase-2 flip
                assert h_next == h - 1
            h = h_next
        final = read_edge_list(out)
        assert final.negative_count() == h
        assert balance.is_triad_wise_balanced(final)[0]

    def test_fixed_seed_reproduces_bytes(self, tmp_path):
        graph = tmp_path / "neg.el"
        graph.write_text(ALL_NEGATIVE_TRIANGLE)
        outputs = []
        for run in range(2):
            out = tmp_path / f"final{run}.el"
            log = tmp_path / f"log{run}.jsonl"
            code = main(
                [
                    "simulate", "--input", str(graph), "--engine", "sih",
                    "--seed", "42", "--out", str(out), "--log", str(log),
                ]
            )
            assert code == EXIT_OK
            outputs.append((out.read_bytes(), log.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_max_steps_exhaustion_exit_code(self, tmp_path, capsys):
        # One update can never balance the all-negative triangle (two flips
        # are needed), so a single step always exhausts the budget.
        graph = tmp_path / "neg.el"
        graph.write_text(ALL_NEGATIVE_TRIANGLE)
        code = main(
            ["simulate", "--input", str(graph), "--engine", "sih",
             "--seed", "0", "--max-steps", "1"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["absorbed"] is False
        assert code == EXIT_NOT_ABSORBED

    def test_sioh_reports_opinions(self, tmp_path, capsys):
        graph = tmp_path / "pair.el"
        graph.write_text("n 2\n1 2 1\n2 1 1\n")
        code = main(["simulate", "--input", str(graph), "--engine", "sioh", "--seed", "5"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["absorbed"] is True
        assert payload["final_opinions"] is not None
        assert all(v in (-1, 1) for v in payload["final_opinions"])

    def test_generator_flags(self, capsys):
        code = main(
            ["simulate", "--n", "6", "--p", "0.5", "--p-neg", "0.4", "--seed", "11"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 6 and payload["absorbed"] is True

    def test_missing_input_and_generator_is_usage_error(self, capsys):
        assert main(["simulate", "--engine", "sih"]) == EXIT_USAGE

    def test_bad_probability_sum_is_usage_error(self, triangle_file, capsys):
        code = main(
            ["simulate", "--input", triangle_file, "--p1", "0.5", "--p2", "0.4",
             "--p3", "0.2"]
        )
        assert code == EXIT_USAGE
        assert "sum to 1" in capsys.readouterr().err
        # Off by 5e-10: the library's tolerance decides, with the same message.
        code = main(
            ["simulate", "--input", triangle_file, "--p1", "0.5", "--p2", "0.3",
             "--p3", "0.2000000005"]
        )
        assert code == EXIT_USAGE
        assert "sum to 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--engine", "sih", "--q1", "0.5"], "--q1"),
            (["--engine", "constructive", "--q3", "0.5"], "--q3"),
            (["--engine", "constructive", "--p2", "0.5"], "--p2"),
            (["--n", "5"], "--n"),
            (["--p", "0.5"], "--p"),
            (["--p-neg", "0.5"], "--p-neg"),
            (["--engine", "constructive", "--max-steps", "1"], "--max-steps"),
            (["--engine", "constructive", "--seed", "5"], "--seed"),
            (["--engine", "constructive", "--seed", "0"], "--seed"),
        ],
    )
    def test_flag_it_would_ignore_is_usage_error(self, triangle_file, capsys, flags, flag):
        assert main(["simulate", "--input", triangle_file] + flags) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and len(err.strip().splitlines()) == 1
        assert err.startswith(f"error: {flag} ")

    def test_sioh_takes_q_flags(self, triangle_file, capsys):
        argv = ["simulate", "--input", triangle_file, "--engine", "sioh",
                "--q1", "0.2", "--q2", "0.3", "--q3", "0.5"]
        assert main(argv) == EXIT_OK

    def test_constructive_generator_takes_seed(self, capsys):
        # --seed seeds the generator, so it is not ignored without --input.
        outputs = []
        for seed in ("3", "3", "4"):
            argv = ["simulate", "--n", "7", "--p", "0.6", "--p-neg", "0.5",
                    "--engine", "constructive", "--seed", seed]
            assert main(argv) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != outputs[2]

    @pytest.mark.parametrize("engine", ["sih", "sioh"])
    def test_seed_and_max_steps_default_to_zero_and_the_library_budget(
        self, tmp_path, engine
    ):
        graph = tmp_path / "neg.el"
        graph.write_text(ALL_NEGATIVE_TRIANGLE)
        runs = []
        for extra in ([], ["--seed", "0", "--max-steps", str(dynamics.DEFAULT_MAX_STEPS)]):
            out, log = tmp_path / f"out{len(runs)}.el", tmp_path / f"log{len(runs)}.jsonl"
            argv = ["simulate", "--input", str(graph), "--engine", engine,
                    "--out", str(out), "--log", str(log)] + extra
            assert main(argv) == EXIT_OK
            runs.append((out.read_bytes(), log.read_bytes()))
        assert runs[0] == runs[1]


class TestExperimentCommand:
    def test_summary_and_csv(self, tmp_path, capsys):
        out = tmp_path / "exp.csv"
        code = main(
            ["experiment", "--study", "c0", "--n", "6", "--p", "0.4",
             "--trials", "20", "--seed", "3", "--out", str(out)]
        )
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["study"] == "c0" and summary["trials"] == 20
        assert out.exists()
        assert len(out.read_text().strip().splitlines()) == 21

    def test_trials_zero_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(
            ["experiment", "--study", "c0", "--p", "0.4", "--trials", "0",
             "--out", str(out)]
        )
        assert code == EXIT_USAGE

    def test_study_requires_matching_fixed_params(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["experiment", "--study", "c0", "--trials", "5", "--out", str(out)]) == EXIT_USAGE
        assert main(["experiment", "--study", "density", "--trials", "5", "--out", str(out)]) == EXIT_USAGE
        assert main(["experiment", "--study", "triads", "--trials", "5", "--p", "0.4", "--out", str(out)]) == EXIT_USAGE

    @pytest.mark.parametrize("study, flag", [("c0", "--p-neg"), ("density", "--p")])
    def test_flag_for_drawn_parameter_is_usage_error(self, tmp_path, capsys, study, flag):
        out = tmp_path / "x.csv"
        code = main(
            ["experiment", "--study", study, "--p", "0.4", "--p-neg", "0.3",
             "--trials", "4", "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: study '{study}' draws {flag} per trial\n"
        assert not out.exists()

    def test_same_seed_identical_csv(self, tmp_path, capsys):
        paths = []
        for run in range(2):
            out = tmp_path / f"run{run}.csv"
            code = main(
                ["experiment", "--study", "density", "--n", "6", "--p-neg", "0.3",
                 "--trials", "15", "--seed", "8", "--out", str(out)]
            )
            assert code == EXIT_OK
            capsys.readouterr()
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestEventLog:
    """`simulate --log` writes `json.dumps(e.to_dict(), sort_keys=True)` per event, streamed."""

    RUNS = {
        "sih": ("run_sih", ["--n", "10", "--p", "0.6", "--p-neg", "0.4", "--seed", "5", "--max-steps", "2000"]),
        "sioh": ("run_sioh", ["--n", "8", "--p", "0.6", "--p-neg", "0.4", "--seed", "7", "--max-steps", "400"]),
        "constructive": ("constructive_sih_sequence", ["--n", "8", "--p", "0.6", "--p-neg", "0.5", "--seed", "2"]),
    }

    @pytest.mark.parametrize("engine", list(RUNS))
    def test_lines_are_json_dumps_of_the_same_run_logged_in_memory(
        self, tmp_path, monkeypatch, capsys, engine
    ):
        name, flags = self.RUNS[engine]
        original = getattr(dynamics, name)
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, spy)
        log = tmp_path / "events.jsonl"
        main(["simulate", "--engine", engine, *flags, "--log", str(log)])
        (args, kwargs), = calls
        if engine != "constructive":
            kwargs = {**kwargs, "log": True}
        events = original(*args, **kwargs).events
        lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == len(events)
        for line, event in zip(lines, events):  # line by line: a whole-file diff is slow
            assert line == json.dumps(event.to_dict(), sort_keys=True) + "\n"
        assert any(e.k is None for e in events) and any(e.k is not None for e in events)
        assert any(e.old < 0 for e in events)
        if engine == "sioh":
            assert any(e.mechanism == dynamics.OPINION_GOSSIP for e in events)

    def test_golden_log_bytes(self, tmp_path, capsys):
        log, out = tmp_path / "events.jsonl", tmp_path / "final.el"
        argv = ["simulate", "--engine", "sioh", *self.RUNS["sioh"][1], "--log", str(log), "--out", str(out)]
        code = main(argv)
        assert code == EXIT_NOT_ABSORBED
        assert hashlib.sha256(log.read_bytes()).hexdigest() == (
            "43af1c1fba6d6a64b60dba4016ba50102ff85cef74c4a5c9ba0c55f4178efe6e"
        )
        # The payload on stdout and the final state in --out are pinned too.
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "4d23634631ecd2d1b37fee0db176046a5138c93813ba70295a45faa5b396945d"
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "5457f485841a4fab044195e61f3ea158748930ff914d5021a932483693ed9990"
        )

    def test_logged_run_memory_stays_flat(self, tmp_path, capsys):
        # Buffering the events of this run peaked at about 3.6 MB traced.
        log = tmp_path / "events.jsonl"
        argv = ["simulate", "--n", "16", "--p", "0.5", "--p-neg", "0.3", "--seed", "3",
                "--max-steps", "20000", "--log", str(log)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_NOT_ABSORBED
        assert log.read_bytes().count(b"\n") == 20000
        assert peak < 0.5 * 2**20, peak


class TestInputErrors:
    """Out-of-range flags and unreadable inputs end in a code, not a traceback."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--n", "1", "--p", "0.5"], "--n"),
            (["simulate", "--n", "5", "--p", "1.5"], "--p"),
            (["simulate", "--n", "5", "--p", "0.5", "--max-steps", "0"], "--max-steps"),
            (["experiment", "--study", "c0", "--p", "0.4", "--n", "1", "--trials", "4"], "--n"),
            (["experiment", "--study", "c0", "--p", "0.4", "--trials", "4", "--max-steps", "0"], "--max-steps"),
            (["experiment", "--study", "c0", "--p", "0.4", "--trials", "1"], "--trials"),
        ],
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, argv, flag):
        if argv[0] == "experiment":
            argv = argv + ["--out", str(tmp_path / "x.csv")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert f"argument {flag}:" in err

    @pytest.mark.parametrize(
        "argv, threads, message",
        [
            (["simulate", "--n", "x", "--p", "0.5"], None,
             "balance-lab simulate: error: argument --n: invalid integer: 'x'"),
            (["simulate", "--n", "4", "--p", "x"], None,
             "balance-lab simulate: error: argument --p: invalid number: 'x'"),
            (["experiment", "--study", "c0", "--n", "x", "--p", "0.4", "--trials", "2"], None,
             "balance-lab experiment: error: argument --n: invalid integer: 'x'"),
            (["experiment", "--study", "c0", "--p", "x", "--trials", "2"], None,
             "balance-lab experiment: error: argument --p: invalid number: 'x'"),
            (["experiment", "--study", "c0", "--n", "4", "--p", "0.4", "--trials", "2"], "x",
             "error: BALANCE_LAB_THREADS must be an integer, got 'x'"),
        ],
        ids=["simulate-n", "simulate-p", "experiment-n", "experiment-p", "threads"],
    )
    def test_unparsable_value_is_usage_error(self, tmp_path, capsys, monkeypatch, argv, threads, message):
        if argv[0] == "experiment":
            argv = argv + ["--out", str(tmp_path / "x.csv")]
        if threads is not None:
            monkeypatch.setenv(cli.THREADS_ENV, threads)
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == message + "\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("n", _OVER_CEILING)
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["analyze", "--input", "{graph}"], EXIT_PARSE),
            (["simulate", "--n", "{n}", "--p", "0.5"], EXIT_USAGE),
            (["experiment", "--study", "c0", "--n", "{n}", "--p", "0.4", "--trials", "2",
              "--out", "{dir}/trials.csv"], EXIT_USAGE),
        ],
        ids=["analyze-header", "simulate-n", "experiment-n"],
    )
    def test_node_count_over_the_ceiling_is_refused_before_any_grid(
        self, tmp_path, capsys, argv, code, n
    ):
        graph = tmp_path / "big.el"
        graph.write_text(f"n {n}\n1 2 1\n")
        argv = [a.format(graph=graph, n=n, dir=tmp_path) for a in argv]
        build_parser()  # built before tracing starts
        tracemalloc.start()
        try:
            assert main(argv) == code
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        if code == EXIT_PARSE:
            assert err == f"parse error: line 1: node count {n} exceeds the ceiling of {NODE_LIMIT}\n"
        else:
            assert f"argument --n: must be at most {NODE_LIMIT}, got {n}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.el"]
        # The rows of one grid past the ceiling alone take over 100 MB.
        assert peak < 2**20, peak

    def test_directory_input_is_parse_error(self, tmp_path, capsys):
        assert main(["simulate", "--input", str(tmp_path)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("parse error:")

    @pytest.mark.parametrize("command", ["analyze", "equivalence", "simulate"])
    @pytest.mark.parametrize(
        "fault", ["not-a-directory", "symlink-loop", "name-too-long", "permission-denied"]
    )
    def test_unreadable_input_is_parse_error(self, tmp_path, capsys, monkeypatch, command, fault):
        plain = tmp_path / "plain.el"
        plain.write_text(POSITIVE_TRIANGLE)
        path = {
            "not-a-directory": plain / "x",
            "symlink-loop": tmp_path / "loop",
            "name-too-long": tmp_path / ("x" * 5000),
            "permission-denied": plain,
        }[fault]
        if fault == "symlink-loop":
            os.symlink(path, path)
        if fault == "permission-denied":
            # File modes do not stop a superuser, so the refusal is injected.
            read_text = pathlib.Path.read_text

            def refuse(self, *args, **kwargs):
                if self == plain:
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
                return read_text(self, *args, **kwargs)

            monkeypatch.setattr(pathlib.Path, "read_text", refuse)
        assert main([command, "--input", str(path)]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("parse error: [Errno ") and len(err.splitlines()) == 1

    def test_undecodable_input_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "binary.el"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["analyze", "--input", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("parse error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "4", "--p", "0.5", "--out", "{gone}/final.el"],
            ["simulate", "--n", "4", "--p", "0.5", "--log", "{dir}"],
            ["experiment", "--study", "c0", "--p", "0.4", "--trials", "4",
             "--out", "{gone}/trials.csv"],
            ["experiment", "--study", "c0", "--p", "0.4", "--trials", "4",
             "--out", "{dir}/trials.csv", "--summary", "{gone}/summary.json"],
        ],
    )
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, argv):
        # The last argument is the bad path.  It is refused before anything
        # runs, so no CSV is written beside a bad --summary.
        argv = [a.format(dir=tmp_path, gone=tmp_path / "missing") for a in argv]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {argv[-1]}: ")
        assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "4", "--p", "0.5", "--out", "{file}", "--log", "{dir}/./kept.txt"],
            ["experiment", "--study", "c0", "--p", "0.4", "--trials", "4",
             "--out", "{file}", "--summary", "{file}"],
        ],
    )
    def test_two_outputs_naming_one_file_are_usage_error(self, tmp_path, capsys, argv):
        kept = tmp_path / "kept.txt"
        kept.write_text("kept\n")
        argv = [a.format(dir=tmp_path, file=kept) for a in argv]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "name the same file" in err and len(err.splitlines()) == 1
        assert kept.read_text() == "kept\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "8", "--p", "0.5", "--p-neg", "0.3", "--log", "/dev/full"],
            ["simulate", "--n", "8", "--p", "0.5", "--p-neg", "0.3", "--engine", "sioh",
             "--max-steps", "3", "--log", "/dev/full"],
            ["simulate", "--n", "8", "--p", "0.5", "--p-neg", "0.3", "--engine", "constructive",
             "--log", "/dev/full"],
            ["simulate", "--n", "8", "--p", "0.5", "--out", "/dev/full"],
            ["experiment", "--study", "triads", "--p", "0.5", "--p-neg", "0.3", "--trials", "2",
             "--out", "/dev/full"],
            ["experiment", "--study", "triads", "--p", "0.5", "--p-neg", "0.3", "--trials", "2",
             "--out", "{dir}/trials.csv", "--summary", "/dev/full"],
        ],
    )
    def test_failed_write_is_usage_error(self, tmp_path, capsys, argv):
        # /dev/full opens for writing but every write fails with ENOSPC, so
        # the error comes from the write itself, the log's from inside the run.
        argv = [a.format(dir=tmp_path) for a in argv]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"

    def test_failed_captured_stdout_leaves_descriptors_alone(self, monkeypatch, capsys):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        dup2 = []
        monkeypatch.setattr(os, "dup2", lambda *args: dup2.append(args))
        monkeypatch.setattr(sys, "stdout", Full())
        assert main(["simulate", "--n", "4", "--p", "0.5"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
        assert dup2 == []

    def test_one_node_analyze_reports_null_density(self, tmp_path, capsys):
        path = tmp_path / "one.el"
        path.write_text("n 1\n")
        assert main(["analyze", "--input", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 1 and report["link_density"] is None


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("injected")


class TestOutputLifecycle:
    """A new output file exists only while its command runs, unless written; an old one keeps its bytes."""

    # Each command fails after the probe; "--out PATH" is appended.
    FAILURES = {
        "analyze-missing-input": (["analyze", "--input", "{dir}/missing.el"], EXIT_PARSE),
        "equivalence-guard": (["equivalence", "--input", "{ring13}"], EXIT_GUARD),
        "equivalence-disconnected": (["equivalence", "--input", "{disconnected}"], EXIT_PARSE),
        "simulate-refused-flag": (
            ["simulate", "--n", "4", "--p", "0.5", "--engine", "constructive", "--max-steps", "5"],
            EXIT_USAGE,
        ),
        "equivalence-exception": (["equivalence", "--input", "{triangle}"], RuntimeError),
    }

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("case", list(FAILURES))
    def test_failed_command_leaves_outputs_as_they_were(
        self, tmp_path, triangle_file, monkeypatch, capsys, case, existing
    ):
        disconnected = tmp_path / "disc.el"
        disconnected.write_text("n 4\n1 2 1\n2 1 1\n3 4 1\n4 3 1\n")
        argv, expected = self.FAILURES[case]
        argv = [
            a.format(dir=tmp_path, ring13=ring_file(tmp_path, 13), disconnected=disconnected, triangle=triangle_file)
            for a in argv
        ]
        out = tmp_path / "out.txt"
        if existing:
            out.write_bytes(b"kept\r\nbytes")
        argv += ["--out", str(out)]
        if expected is RuntimeError:
            monkeypatch.setattr(chordal, "check_equivalence_conditions", _raise_runtime_error)
            with pytest.raises(RuntimeError):
                main(argv)
        else:
            assert main(argv) == expected
        assert capsys.readouterr().out == ""
        if existing:
            assert out.read_bytes() == b"kept\r\nbytes"
        else:
            assert not os.path.lexists(out)

    def test_dangling_symlink_output_writes_its_target(self, tmp_path, triangle_file, capsys):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        os.symlink(target, link)
        assert main(["analyze", "--input", triangle_file, "--out", str(link)]) == EXIT_OK
        assert target.read_text(encoding="utf-8") == capsys.readouterr().out
        assert link.is_symlink() and os.readlink(link) == str(target)

    def test_one_new_output_is_opened_once(self, tmp_path, triangle_file, monkeypatch, capsys):
        # One output flag has nothing to compare against, and a written file
        # is never removed: no path is resolved and nothing is unlinked.
        for name in ("remove", "unlink"):
            monkeypatch.setattr(os, name, _raise_runtime_error)
        monkeypatch.setattr(os.path, "realpath", _raise_runtime_error)
        report = tmp_path / "report.json"
        assert main(["analyze", "--input", triangle_file, "--out", str(report)]) == EXIT_OK
        assert report.read_text(encoding="utf-8") == capsys.readouterr().out


class TestSubprocessInvocation:
    def test_module_entry_point_and_thread_env_invariance(self, tmp_path):
        """Byte-identical CSV under different BALANCE_LAB_THREADS settings."""
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.csv"
            env = dict(os.environ, BALANCE_LAB_THREADS=threads)
            proc = subprocess.run(
                [
                    sys.executable, "-m", "balance_lab", "experiment",
                    "--study", "triads", "--n", "6", "--p", "0.5",
                    "--p-neg", "0.5", "--trials", "30", "--seed", "17",
                    "--out", str(out),
                ],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == EXIT_OK, proc.stderr.decode()
            outputs.append((out.read_bytes(), proc.stdout))
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "4", "--p", "0.5"],
            ["analyze", "--input", "{triangle}"],
        ],
    )
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_failed_stdout_is_one_line_usage_error(self, triangle_file, argv, unbuffered):
        # Buffered, the failed text stays pending, and the interpreter's
        # exit-time flush of stdout must not fail a second time.
        argv = [a.format(triangle=triangle_file) for a in argv]
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "balance_lab", *argv],
                stdout=full, stderr=subprocess.PIPE, env=env,
            )
        err = proc.stderr.decode()
        assert proc.returncode == EXIT_USAGE, err
        assert err == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"

    def test_usage_error_from_argparse(self):
        proc = subprocess.run(
            [sys.executable, "-m", "balance_lab", "no-such-command"],
            capture_output=True,
        )
        assert proc.returncode == EXIT_USAGE


# One-way links and opposite signs on the pair {4, 5}.
MIXED_GRAPH = (
    "n 6\n1 2 1\n2 1 1\n1 3 -1\n3 1 -1\n2 3 -1\n3 4 1\n4 3 1\n"
    "4 5 1\n5 4 -1\n1 4 -1\n5 1 1\n6 2 -1\n"
)


class TestReusedParser:
    """``main`` shares one parser per process; no call may leave state for the next."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_seed_of_an_earlier_call_does_not_leak(self, triangle_file, capsys):
        # With --input, the constructive engine refuses --seed: a leaked 3 would exit 1.
        assert main(["simulate", "--n", "4", "--p", "0.5", "--seed", "3"]) == EXIT_OK
        assert main(["simulate", "--engine", "constructive", "--input", triangle_file]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_usage_error_between_two_calls_changes_nothing(self, triangle_file, capsys):
        argv = ["simulate", "--input", triangle_file, "--engine", "sioh", "--seed", "5"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["simulate", "--input", triangle_file, "--max-steps", "0"]) == EXIT_USAGE
        assert "--max-steps" in capsys.readouterr().err
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
    def test_help_prints_the_same_text_twice(self, argv, capsys):
        texts = []
        for _ in range(2):
            assert main(argv) == EXIT_OK
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and "usage: balance-lab" in texts[0]

    @pytest.mark.parametrize("argv", [["analyze"], ["equivalence", "--verify-exhaustive"]])
    def test_output_after_other_calls_equals_a_fresh_process(
        self, tmp_path, triangle_file, argv, capsys
    ):
        path = tmp_path / "mixed.el"
        path.write_text(MIXED_GRAPH)
        argv = [argv[0], "--input", str(path)] + argv[1:]
        main(["simulate", "--n", "6", "--p", "0.5", "--p-neg", "0.5", "--seed", "2"])
        main(["analyze", "--input", triangle_file, "--out", str(tmp_path / "t.json")])
        main(["equivalence", "--input", triangle_file, "--force"])
        main(["analyze"])
        capsys.readouterr()
        code = main(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "balance_lab", *argv], capture_output=True, text=True
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == EXIT_OK


# Values for the report writer's differential test: every scalar json.dumps
# spells in its own way, and the shapes the writer takes in bulk (lists of
# dicts on one key set, lists of lists of one length).
_KEYS = st.one_of(
    st.text(max_size=6), st.sampled_from(["{", "}", "{}", "\0", "é", "\n", '"', "\\", "kind", "nodes"])
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.floats(),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324, 0.1]),
    st.text(),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(_KEYS, children, max_size=5),
        st.lists(_KEYS, max_size=3, unique=True).flatmap(
            lambda keys: st.lists(st.fixed_dictionaries({key: children for key in keys}), max_size=4)
        ),
        st.integers(0, 3).flatmap(
            lambda size: st.lists(st.lists(children, min_size=size, max_size=size), max_size=4)
        ),
    )


def _written(value):
    return cli._json_texts([value], "")[0]


class TestReportWriter:
    """Reports are exactly ``json.dumps(report, indent=2, sort_keys=True)``."""

    @given(st.recursive(_SCALARS, _containers, max_leaves=30))
    @settings(max_examples=400, deadline=None)
    @example([1, True, None, 1.5])
    @example({"a": [[1, 2], [3, 4, 5], [], [6, 7]], "b": [{"k": 1}, {"k": None}, {"j": 2}], "c": {}})
    @example([[{"x": [-0.0, math.nan]}, {"x": [math.inf, -math.inf]}], [{}], []])
    def test_matches_json_dumps(self, value):
        assert _written(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [(1, 2), {1: "a"}, {"a": {1, 2}}, [1, b"x"], [{"a": 1}, {2: 1}]])
    def test_any_other_type_is_refused(self, value):
        with pytest.raises(TypeError):
            _written(value)

    def _payloads(self, monkeypatch, *argvs):
        payloads = []
        monkeypatch.setattr(cli, "_emit", lambda payload, *_: payloads.append(payload))
        for argv in argvs:
            assert main(argv) in (EXIT_OK, EXIT_NOT_ABSORBED)
        return payloads

    def _assert_written_as_json_dumps(self, payloads):
        for payload in payloads:
            assert _written(payload) == json.dumps(payload, indent=2, sort_keys=True)

    def test_analyze_reports(self, tmp_path, capsys):
        # ``analyze`` writes its violation list by templates of its own, so
        # each report is checked as text against json.dumps of what it parses to.
        split = "n 4\n1 2 -1\n2 1 -1\n2 3 1\n3 2 1\n3 4 -1\n4 3 -1\n"
        texts = [ONE_NEGATIVE_TRIANGLE, POSITIVE_TRIANGLE, MIXED_GRAPH, split, "n 5\n"]
        both = {balance.ASYMMETRIC_PAIR, balance.NEGATIVE_TRIAD}
        rng = random.Random(2713)
        while len(texts) < 205:
            x = random_matrix(rng, rng.randint(3, 10), rng.uniform(0.3, 0.9))
            if {v.kind for v in balance.is_triad_wise_balanced(x)[1]} == both:
                texts.append(graphs.format_edge_list(x))
        reports = []
        for index, text in enumerate(texts):
            path, out = tmp_path / f"in{index}.el", tmp_path / f"out{index}.json"
            path.write_text(text)
            argv = ["analyze", "--input", str(path), "--out", str(out)]
            assert main(argv + ["--all-cycles"] if text is split else argv) == EXIT_OK
            stdout = capsys.readouterr().out
            report = json.loads(stdout)
            assert stdout == out.read_text(encoding="utf-8") == json.dumps(report, indent=2, sort_keys=True) + "\n"
            expected = [{"kind": v.kind, "nodes": list(v.nodes)} for v in balance.is_triad_wise_balanced(read_edge_list(path))[1]]
            # As JSON text too, so that a node written as a bool or a float would not pass as an int.
            assert report["violations"] == expected and json.dumps(report["violations"]) == json.dumps(expected)
            reports.append(report)
        assert reports[0]["violations"] and reports[0]["two_faction"] is None
        assert not reports[1]["violations"] and reports[1]["two_faction"]["v1"] == [1, 2, 3]
        assert reports[3]["two_faction"]["v2"] and "all_cycles_positive" in reports[3]
        assert reports[1]["violations"] == reports[3]["violations"] == reports[4]["violations"] == []
        assert reports[4]["n"] == 5 and reports[4]["link_density"] == 0

    def test_equivalence_reports(self, tmp_path, monkeypatch):
        square, triangle = tmp_path / "square.el", tmp_path / "triangle.el"
        square.write_text(CHORDLESS_SQUARE)
        triangle.write_text(POSITIVE_TRIANGLE)
        payloads = self._payloads(
            monkeypatch,
            ["equivalence", "--input", str(square)],
            ["equivalence", "--input", str(square), "--verify-exhaustive"],
            ["equivalence", "--input", str(triangle), "--verify-exhaustive"],
        )
        assert "exhaustive" not in payloads[0]
        assert payloads[1]["exhaustive"]["counterexample"]
        assert payloads[2]["exhaustive"]["counterexample"] is None
        self._assert_written_as_json_dumps(payloads)

    def test_simulate_reports(self, monkeypatch):
        payloads = self._payloads(
            monkeypatch,
            ["simulate", "--n", "6", "--p", "0.6", "--p-neg", "0.4", "--seed", "3"],
            ["simulate", "--n", "6", "--p", "0.6", "--p-neg", "0.4", "--engine", "sioh", "--max-steps", "5"],
        )
        assert payloads[0]["final_opinions"] is None and payloads[1]["final_opinions"]
        self._assert_written_as_json_dumps(payloads)

    def test_study_summaries(self, tmp_path, monkeypatch):
        payloads = self._payloads(
            monkeypatch,
            ["experiment", "--study", "density", "--n", "4", "--p-neg", "0.3", "--trials", "3",
             "--out", str(tmp_path / "t.csv")],
        )
        payloads.append(
            experiments.study_summary(
                "triads", [], experiments.RegressionResult(None, None, None, 0), {"n": 8, "p": 0.5, "p_neg": 0.3}
            )
        )
        assert payloads[0]["p"] is None and isinstance(payloads[0]["k"], float)
        assert payloads[1]["k"] is payloads[1]["b"] is payloads[1]["r"] is None
        self._assert_written_as_json_dumps(payloads)
