"""Benchmark runner for the downup-hh CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass of the workload runs the
CLI (`downup_hh.cli.main`) in fresh interpreters, one process at a time,
with `HH_THREADS` removed from their environment, because a CLI user pays
all set-up on every call.  Passes repeat while the next one is expected to
finish within S seconds (at least one pass), and every pass is checked
against `reference.json`.

All processes run on one core, and their times are scaled to a fixed
reference speed of that core, measured by a calibration loop between slices
of each process (see `Runner.spawn`).  --trace 0 reports the end-to-end
metrics of BENCHMARK.json: the median pass wall time, the median set-up time
over all processes of the run (two import-only probes follow each pass) and
the largest peak RSS among them.  --trace 1 runs one untraced pass, then
traced passes, and reports the per-layer metrics.  The last line of
standard output is the result object; the line before it records the seed,
the generated argument lists and the environment.  Exits 2, printing no
result, when the program or the benchmark's own files are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench-out"
NPROC = len(os.sched_getaffinity(0))  # before main() pins the run to one core
PROBES_PER_PASS = 2  # import-only processes after each untraced pass
TIME_LIMIT = 170.0  # seconds for a whole run, which must end within 180
# The fastest time of `calibrate()` seen on an uncontended core of the
# reference machine (a shared 2-core Linux VM, Python 3.11.7).  Times are
# reported in seconds of a core that runs the calibration this fast.
CALIBRATION_S = 0.0035
SLICE_S = 0.5  # seconds a process runs between two calibrations


def calibrate() -> float:
    """Fastest of five runs of a fixed loop of `Fraction` arithmetic, the
    program's own kind of work, on the current core."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for i in range(1, 600):
            (Fraction(i, 7) + Fraction(3, i)) * Fraction(i, 11) - Fraction(1, i + 2)
        best = min(best, time.perf_counter() - t0)
    return best


def scaled_until(slices, t: float) -> float:
    """Reference seconds that a process's slices spent before time t.

    A slice (start, end, k) that ran from `start` to `end` between
    calibrations c1 and c2 has k = CALIBRATION_S / ((c1 + c2) / 2).
    """
    return sum((min(end, t) - start) * k for start, end, k in slices if start < t)


class Runner:
    """Spawns the CLI processes of one benchmark run and keeps their records."""

    def __init__(self, started: float):
        self.deadline = started + TIME_LIMIT
        self.setups: list[float] = []
        self.spawned = 0
        # Bytecode caches on, as an installed package has them.
        env = {k: v for k, v in os.environ.items()
               if k not in ("HH_THREADS", "PYTHONDONTWRITEBYTECODE")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = "0"  # set iteration order, so counts repeat
        self.env = env

    def spawn(self, mode: str, argv: list[str]) -> tuple[int, bytes, Path, list]:
        """Runs one process: (exit code, stdout, info path, its slices).

        Other tenants of a shared host slow the core down, to less than half
        its speed, in bursts from a fraction of a second to minutes.  So the
        process runs in slices of SLICE_S seconds; between two slices it is
        stopped while `calibrate()` measures how fast the core runs, and each
        slice is scaled by the calibrations on either side of it (see
        `scaled_until`).
        """
        self.spawned += 1
        stem = OUT / f"{os.getpid()}-{self.spawned}"
        info, stdout = stem.with_suffix(".json"), stem.with_suffix(".out")
        slices = []  # (start, end, reference seconds per second)
        speed = calibrate()
        start = time.perf_counter()
        with open(stdout, "wb") as fh:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(info), mode, *argv],
                cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.DEVNULL)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                budget = min(SLICE_S, self.deadline - time.perf_counter())
                exited = budget > 0 and select.select([pidfd], [], [], budget)[0]
                if not exited:
                    proc.send_signal(signal.SIGSTOP)
                end = time.perf_counter()
                after = calibrate()
                slices.append((start, end, 2 * CALIBRATION_S / (speed + after)))
                if exited or end >= self.deadline:
                    break
                speed = after
                proc.send_signal(signal.SIGCONT)
                start = time.perf_counter()
        finally:
            os.close(pidfd)
            if proc.poll() is None:
                proc.kill()  # at the time limit, or on SIGTERM
            code = proc.wait()
        out = stdout.read_bytes()
        stdout.unlink()
        if info.exists():
            rec = json.loads(info.read_text())
            if Path(rec["file"]).resolve() != ROOT / "src" / "downup_hh" / "cli.py":
                raise RuntimeError(f"imported the CLI from {rec['file']}")
            self.setups.append(scaled_until(slices, rec["ready"]))
            info.unlink()
        return code, out, info, slices

    def run_pass(self, argvs, mode: str = "plain"):
        """One pass: (wall seconds, [(argv, code, stdout)], [(trace file,
        slices)], the sum of its processes' reference seconds)."""
        results, traces, scaled = [], [], 0.0
        t0 = time.perf_counter()
        for i, argv in enumerate(argvs):
            code, out, info, slices = self.spawn(
                mode if mode == "plain" else f"{mode}:{i}", argv)
            results.append((argv, code, out))
            traces.append((Path(str(info) + ".trace"), slices))
            scaled += scaled_until(slices, math.inf)
        return time.perf_counter() - t0, results, traces, scaled

    def repeat(self, argvs, seconds: float, mode: str = "plain", probes: int = 0):
        """Passes while the next is expected to end within `seconds`, each
        followed by `probes` import-only processes."""
        passes, t0 = [], time.perf_counter()
        while True:
            passes.append(self.run_pass(argvs, mode))
            for _ in range(probes):
                self.spawn("probe", [])
            elapsed = time.perf_counter() - t0
            expected = statistics.median(p[0] for p in passes)
            if elapsed + expected > seconds or time.perf_counter() + expected > self.deadline:
                return passes


def zero() -> dict:
    return {"calls": 0, "busy_s": 0.0, "self_s": 0.0}


def layer_metrics(traces) -> dict:
    """Per-layer metrics of one traced pass, from its processes' trace files
    and slices; span times are in reference seconds."""
    spans_total: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    distinct: dict[str, set] = {}
    traced: set = set()
    main_s = main_uncovered = 0.0
    for path, slices in traces:
        if not path.exists():  # killed at the time limit; the gate counts it
            continue
        rec = tracer.load(str(path))
        path.unlink()
        rec["spans"] = [
            (name, scaled_until(slices, start), scaled_until(slices, end), *rest)
            for name, start, end, *rest in rec["spans"]]
        traced.update(rec["traced"])
        for name, agg in tracer.summarize(rec["spans"]).items():
            tot = spans_total.setdefault(name, zero())
            for k, v in agg.items():
                tot[k] += v
        for k, v in rec["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in rec["distinct"].items():
            distinct.setdefault(k, set()).update(v)
        total, unc = tracer.uncovered(rec["spans"])
        main_s += total
        main_uncovered += unc
    out = {}
    for name in traced:  # a traced function never called reads 0
        for k, v in spans_total.get(name, zero()).items():
            out[f"{name}.{k}"] = v
    for k in ("linalg.elim.cells", "linalg.elim.nnz", "linalg.matmul.mults",
              "resolution.HomComplex.d_nnz", "resolution.HomComplex.d_cells"):
        out[k] = counts.get(k, 0)
    for name, suffix in (("cohomology.hh_dims_computed", "per_instance"),
                         ("resolution.HomComplex", "per_instance"),
                         ("invariants.derived_invariants", "per_weight_pair")):
        seen = len(distinct.get(name, ()))
        out[f"{name}.{suffix}"] = out[f"{name}.calls"] / seen if seen else 0.0
    out["cli.main.uncovered_share"] = main_uncovered / main_s if main_s else 0.0
    return out


def traced_metrics(traced, untraced_wall: float) -> dict:
    """Medians over the traced passes; counts must agree exactly."""
    per_pass = [layer_metrics(p[2]) for p in traced]
    metrics = {}
    for key, first in per_pass[0].items():
        vals = [m[key] for m in per_pass]
        if isinstance(first, int):
            if len(set(vals)) != 1:
                raise RuntimeError(f"count {key} differs between traced passes: {vals}")
            metrics[key] = first
        else:
            metrics[key] = statistics.median(vals)
    metrics["trace_overhead_ratio"] = statistics.median(
        p[3] for p in traced) / untraced_wall
    return metrics


def environment(seed: int, argvs) -> dict:
    meta = {"seed": seed, "argv": argvs, "python": sys.version.split()[0],
            "nproc": NPROC, "git_sha": None,
            "git_dirty": None}
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        meta["git_sha"] = git("rev-parse", "HEAD") or None
        meta["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return meta


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (ROOT / "BENCHMARK.json", ROOT / "src" / "downup_hh" / "cli.py",
                 workloads.GOLDEN_RING):
        if not need.is_file():
            sys.stderr.write(f"error: {need} is missing; run from a full checkout\n")
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = workloads.load_reference()
    make_pass, gate = workloads.WORKLOADS[args.workload]
    argvs = make_pass(args.seed)
    OUT.mkdir(exist_ok=True)

    # One core for the runner and its children, so that the calibration
    # measures the core the program runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(started)
    runner.spawn("probe", [])  # fills __pycache__ before anything is timed
    runner.setups.clear()

    if args.trace:
        passes = [runner.run_pass(argvs)]
        wall = passes[0][3]
        traced = runner.repeat(argvs, args.seconds - wall, mode="trace")
        passes += traced
        metrics = traced_metrics(traced, wall)
        wanted = spec["per_layer"]
    else:
        passes = runner.repeat(argvs, args.seconds, probes=PROBES_PER_PASS)
        metrics = {
            "wall_s": statistics.median(p[3] for p in passes),
            "setup_s": statistics.median(runner.setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]

    attempted = failed = 0
    notes = []
    for _, results, _, _ in passes:
        a, f, n = gate(results, reference[args.workload])
        attempted, failed, notes = attempted + a, failed + f, notes + n
    metrics["failed_ratio"] = failed / attempted
    unknown = [m["name"] for m in wanted if m["name"] not in metrics]
    if unknown:
        raise RuntimeError(f"BENCHMARK.json names metrics the run lacks: {unknown}")

    meta = environment(args.seed, argvs)
    meta.update(workload=args.workload, trace=args.trace,
                pass_walls=[p[0] for p in passes],
                pass_scaled_s=[p[3] for p in passes], processes=runner.spawned,
                notes=notes[:20])
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # subprocess.run kills and reaps its child


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
