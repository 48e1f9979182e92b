"""Tests of the benchmark itself, at tiny sizes."""

import hashlib
import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer
import workloads


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("linalg.solve", 1.0, 4.0, 0),
        ("linalg.rref", 2.0, 3.0, 1),
        ("linalg.rref", 2.25, 2.5, 2),  # nested call of the same name
        ("linalg.rref", 5.0, 6.0, 0),
        ("cli.cmd_verify", 6.5, 9.0, 0),
        ("linalg.rank", 7.0, 8.0, 5),
    ]
    assert tracer.self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 1.0 - 2.5, 3.0 - 1.0, 1.0 - 0.25, 0.25, 1.0, 2.5 - 1.0, 1.0])
    agg = tracer.summarize(spans)
    assert agg["linalg.rref"] == pytest.approx(
        {"calls": 3, "busy_s": 2.0, "self_s": 2.0})
    assert agg["linalg.solve"] == pytest.approx(
        {"calls": 1, "busy_s": 3.0, "self_s": 2.0})
    assert agg["cli.main"]["self_s"] == pytest.approx(3.5)
    # Layer spans below cli cover [1,4], [5,6] and [7,8] of cli.main.
    assert tracer.uncovered(spans) == pytest.approx((10.0, 5.0))


def test_overlapping_children_are_counted_once():
    spans = [("a.f", 0.0, 4.0, -1), ("b.g", 1.0, 3.0, 0), ("b.h", 2.0, 5.0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_scaled_time_sums_the_slices_before_a_moment():
    slices = [(0.0, 1.0, 0.5), (1.5, 2.0, 2.0)]  # (start, end, factor)
    assert run.scaled_until(slices, float("inf")) == pytest.approx(1.5)
    assert run.scaled_until(slices, 0.5) == pytest.approx(0.25)
    assert run.scaled_until(slices, 1.25) == pytest.approx(0.5)  # stopped
    assert run.scaled_until(slices, 1.75) == pytest.approx(1.0)


def test_generator_is_deterministic_per_seed():
    gen = workloads.invariants_large_pass
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)
    for seed in range(200):
        for argv in gen(seed):
            assert argv[:5] in (["invariants", "--n", str(n), "--m", str(m)]
                                for n, m in workloads.LARGE_WEIGHTS)
            beta = argv[argv.index("--format") - 1]
            assert beta.startswith("--beta=") and beta != "--beta=0"
    assert workloads.verify_sweep_pass(1) == workloads.verify_sweep_pass(2)
    assert workloads.ring_table_pass(1) == workloads.ring_table_pass(2)


@pytest.fixture
def runner():
    run.OUT.mkdir(exist_ok=True)
    return run.Runner(time.perf_counter())


def test_two_traced_runs_give_identical_counts(runner):
    argvs = [["verify", "--max-sum", "4", "--format", "json"]]
    first = run.layer_metrics(runner.run_pass(argvs, "trace")[2])
    second = run.layer_metrics(runner.run_pass(argvs, "trace")[2])
    counts = [k for k in first if not k.endswith("_s")
              and k != "cli.main.uncovered_share"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["cohomology.hh_dims_computed.calls"] > 0
    assert first["linalg.elim.cells"] > 0
    assert first["cli.cmd_verify.calls"] == 1 and first["linalg.matmul.calls"] > 0
    # Every per-layer metric of BENCHMARK.json is produced.
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    produced = set(first) | {"trace_overhead_ratio", "failed_ratio"}
    assert {m["name"] for m in spec["per_layer"]} <= produced


def _ratio(gate_result):
    attempted, failed, _ = gate_result
    return failed / attempted


def test_verify_gate_counts_a_fault_and_an_altered_reference(runner):
    argv = ["verify", "--max-sum", "4", "--format", "json"]
    _, clean, _, _ = runner.run_pass([argv])
    out = clean[0][2]
    ref = {"sha256": hashlib.sha256(out).hexdigest(),
           "checks": json.loads(out)["summary"]["total"]}
    assert _ratio(workloads.gate_verify(clean, ref)) == 0
    _, faulty, _, _ = runner.run_pass([argv + ["--inject-fault", "lambda-sign"]])
    assert faulty[0][1] == 1
    assert _ratio(workloads.gate_verify(faulty, ref)) > 0
    altered = dict(ref, sha256=("0" if ref["sha256"][0] != "0" else "1")
                   + ref["sha256"][1:])
    assert _ratio(workloads.gate_verify(clean, altered)) > 0


def test_ring_gate_counts_an_altered_reference_byte(runner):
    argv = ["table", "--which", "ring", "--max-sum", "3", "--format", "csv"]
    _, results, _, _ = runner.run_pass([argv])
    lines = results[0][2].decode().splitlines()
    golden = workloads.GOLDEN_RING.read_text().splitlines()
    ref = {"lines": lines, "golden": golden}
    assert _ratio(workloads.gate_ring(results, ref)) == 0
    row = lines[2]
    lines_altered = lines[:2] + [row[:-1] + chr(ord(row[-1]) ^ 1)] + lines[3:]
    attempted, failed, _ = workloads.gate_ring(
        results, dict(ref, lines=lines_altered))
    assert (attempted, failed) == (len(lines) - 1, 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "ring-table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
