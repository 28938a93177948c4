"""Checks on the benchmark itself; run with ``pytest perfbench/``.

Every workload runs three times at ``--scale 0.05`` for one second:
seed 1 untraced, seed 1 traced, seed 2 untraced (two at a time).
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import catalog  # noqa: E402
import compare  # noqa: E402

RUNS = ((1, 0), (1, 1), (2, 0))
EXACT_COUNTS = ("iterations", "windows_sealed", "recomputed_objects",
                "error_rate", "mnad")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload: str, seed: int, trace: int, out: Path) -> dict:
    stem = out / f"{workload}-s{seed}-t{trace}"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--scale", "0.05",
         "--trace", str(trace), "--out", f"{stem}.json",
         "--spans", f"{stem}.jsonl"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    document = json.loads(Path(f"{stem}.json").read_text())
    return {"line": json.loads(proc.stdout.strip().splitlines()[-1]),
            "result": document["workloads"][workload],
            "document": document, "path": Path(f"{stem}.json")}


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perfbench")
    jobs = [(w, seed, trace) for w in catalog.WORKLOAD_NAMES
            for seed, trace in RUNS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(lambda job: _run(*job, out), jobs))
    return dict(zip(jobs, done))


def test_benchmark_json_follows_its_schema():
    spec = catalog.BENCHMARK
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        names.append(entry["name"])
        assert UNIT.match(entry["unit"]) and entry["better"] in (
            "lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = catalog.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", catalog.WORKLOAD_NAMES)
def test_every_end_to_end_metric_is_emitted_with_its_unit(runs, workload):
    line = runs[workload, 1, 0]["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == set(catalog.END_TO_END)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == catalog.END_TO_END[name]["unit"]
        assert math.isfinite(entry["value"]) and entry["value"] > 0


@pytest.mark.parametrize("workload", catalog.WORKLOAD_NAMES)
def test_trace_emits_every_layer_metric_or_a_reason(runs, workload):
    run = runs[workload, 1, 1]
    line = run["line"]
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == set(catalog.PER_LAYER)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == catalog.PER_LAYER[name]["unit"]
        assert math.isfinite(entry["value"])
    result = run["result"]
    for name in catalog.PER_LAYER:
        assert (result["layers"].get(name) is not None
                or result["layer_reasons"].get(name)), name
    assert not result["missing"]


@pytest.mark.parametrize("workload", catalog.WORKLOAD_NAMES)
def test_exact_counts_repeat_for_one_seed(runs, workload):
    plain = runs[workload, 1, 0]["result"]["counts"]
    traced = runs[workload, 1, 1]["result"]
    shared = [k for k in EXACT_COUNTS if k in plain]
    assert shared
    assert {k: plain[k] for k in shared} == {
        k: traced["counts"][k] for k in shared}
    layers = traced["layers"]
    if workload.startswith("batch"):
        assert layers["core.iterations"] == plain["iterations"]
    else:
        assert layers["streaming.windows_sealed"] == plain["windows_sealed"]


@pytest.mark.parametrize("workload", catalog.WORKLOAD_NAMES)
def test_seed_decides_the_inputs(runs, workload):
    first = runs[workload, 1, 0]["result"]["inputs_digest"]
    assert first == runs[workload, 1, 1]["result"]["inputs_digest"]
    assert first != runs[workload, 2, 0]["result"]["inputs_digest"]


def test_results_carry_provenance(runs):
    provenance = runs["batch_adult", 1, 0]["document"]["provenance"]
    assert {"python", "cpus", "numpy"} <= set(provenance)


def test_compare_reports_no_change_between_identical_sets(runs, capsys):
    files = [str(runs[w, 1, 0]["path"]) for w in catalog.WORKLOAD_NAMES]
    assert compare.main(["--base", *files, "--head", *files]) == 0
    verdicts = {line.split()[-1] for line in
                capsys.readouterr().out.splitlines()[1:]}
    assert verdicts <= {"unchanged", "info"}


@pytest.mark.parametrize("base, head, better, bound, expected", [
    ([10.0] * 10, [12.0] * 10, "lower", 0.1, "regressed"),
    ([10.0] * 10, [10.5] * 10, "lower", 0.1, "unchanged"),
    ([10.0, 10.1] * 5, [8.0, 8.1] * 5, "lower", 0.1, "improved"),
    ([10.0, 10.1] * 5, [8.0, 8.1] * 5, "higher", 0.1, "regressed"),
    ([5.0, 15.0] * 5, [9.0, 11.0] * 5, "lower", 0.1, "unresolved"),
    ([5.0, 6.0] * 5, [1.0, 2.0] * 5, "lower", 0.1, "improved"),
])
def test_compare_verdicts(base, head, better, bound, expected):
    pairs = list(zip(base, head))
    assert compare.verdict(base, head, pairs, better, bound) == expected


def test_missing_wrap_target_is_reported_not_fatal(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    monkeypatch.setitem(spans.TARGETS, "core.gone",
                        [("repro.core.solver", "NoSuchSolver.fit")])
    recorder = spans.Recorder()
    recorder.install()
    recorder.uninstall()
    assert recorder.missing == {
        "core.gone": "repro.core.solver.NoSuchSolver.fit"}


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_adult",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
