"""``benchmarks/collect.py``: parent/change report pairs into one record."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "collect.py"
_spec = importlib.util.spec_from_file_location("bench_collect", _PATH)
collect = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(collect)


def write_report(tmp_path, side, workload, seed, unit_cost, trace=0, failed=0, by_class=None):
    path = tmp_path / side / f"{workload}-seed{seed}-trace{trace}" / "report.json"
    path.parent.mkdir(parents=True)
    meta = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "implementation": "CPython",
        "python": "3.11.7",
        "cpus_usable": 2,
        "seconds": 20.0,
        "source_sha256": side * 4,
    }
    metrics = {"setup_s": 0.03, "peak_rss_mb": 30.0, "unit_cost_ref": unit_cost}
    report = {"meta": meta, "metrics": metrics, "failed": failed}
    if by_class is not None:
        report["rates"] = {"unit_cost_us_by_class": by_class}
    path.write_text(json.dumps(report))
    return str(path)


def test_pairs_by_workload_and_seed(tmp_path):
    parent = [
        write_report(tmp_path, "parent", "study", 1, 1.0),
        write_report(tmp_path, "parent", "study", 2, 2.0),
        write_report(tmp_path, "parent", "study", 3, 3.0),
        write_report(tmp_path, "parent", "static", 9, 5.0),  # no change run: left out
    ]
    change = [
        write_report(tmp_path, "change", "study", 1, 0.5),
        write_report(tmp_path, "change", "study", 2, 2.5, failed=1),
        write_report(tmp_path, "change", "study", 3, 3.0),
        write_report(tmp_path, "change", "study", 4, 0.1),  # no parent run: left out
    ]
    out = tmp_path / "BENCH.json"
    assert collect.main(["--parent", *parent, "--change", *change, "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == ["study"]
    study = record["workloads"]["study"]
    assert study["seeds"] == [1, 2, 3]
    assert study["failed_ops"] == {"parent": 0, "change": 1}
    assert study["host"]["python"] == ["3.11.7"]
    assert study["source_sha256"] == {"parent": ["parent" * 4], "change": ["change" * 4]}
    cost = study["metrics"]["unit_cost_ref"]
    assert (cost["pairs"], cost["directions"]) == (3, "-+=")
    assert (cost["parent_median"], cost["change_median"]) == (2.0, 2.5)
    assert cost["change_pct"] == pytest.approx(25.0)
    assert cost["parent_quartile_spread_pct"] == pytest.approx(50.0)
    assert (cost["unit"], cost["better"]) == ("ref", "lower")
    assert study["metrics"]["setup_s"]["directions"] == "==="


def test_copies_per_class_medians_of_each_side(tmp_path):
    costs = {
        "parent": [{"analyze-n16": 100.0, "equivalence-n4": 10.0},
                   {"analyze-n16": 120.0, "equivalence-n4": 12.0},
                   {"analyze-n16": 110.0, "equivalence-n4": 11.0}],
        # A class one run lacks is left out.
        "change": [{"analyze-n16": 80.0, "equivalence-n4": 11.0},
                   {"analyze-n16": 90.0, "equivalence-n4": 11.0},
                   {"analyze-n16": 85.0}],
    }
    paths = {
        side: [
            write_report(tmp_path, side, "static", seed, 1.0, by_class=by_class)
            for seed, by_class in enumerate(runs, start=1)
        ]
        for side, runs in costs.items()
    }
    out = tmp_path / "BENCH.json"
    argv = ["--parent", *paths["parent"], "--change", *paths["change"], "--out", str(out)]
    assert collect.main(argv) == 0
    classes = json.loads(out.read_text())["workloads"]["static"]["unit_cost_us_by_class"]
    assert list(classes) == ["analyze-n16"]
    entry = classes["analyze-n16"]
    assert (entry["parent_median_us"], entry["change_median_us"]) == (110.0, 85.0)
    assert entry["change_pct"] == pytest.approx(100 * (85 / 110 - 1))


def test_refuses_traced_and_duplicate_runs(tmp_path):
    traced = write_report(tmp_path, "parent", "study", 1, 1.0, trace=1)
    with pytest.raises(SystemExit, match="traced"):
        collect.load([traced])
    first = write_report(tmp_path, "a", "study", 2, 1.0)
    second = write_report(tmp_path, "b", "study", 2, 1.0)
    with pytest.raises(SystemExit, match="second run"):
        collect.load([first, second])


def test_no_common_seed_is_an_error(tmp_path, capsys):
    parent = write_report(tmp_path, "parent", "study", 1, 1.0)
    change = write_report(tmp_path, "change", "study", 2, 1.0)
    out = tmp_path / "BENCH.json"
    assert collect.main(["--parent", parent, "--change", change, "--out", str(out)]) == 1
    assert "no workload" in capsys.readouterr().err
    assert not out.exists()
