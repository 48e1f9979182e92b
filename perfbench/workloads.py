"""The benchmark's workloads: CLI arguments from a seed, and correctness gates.

A workload turns a seed into one *pass*: the argument lists of the CLI
processes that run one after another.  Its gate compares the outputs of a
pass with `reference.json`, which holds the outputs of the unmodified
program at commit fb09f1c, and returns (attempted, failed, notes),
counting the workload's own items: checks for verify-sweep, table rows for
ring-table, queries for invariants-large.  A nonzero exit, a crash or an
output mismatch fails the items it affects.

Run this file directly to record `reference.json` again from the program
in the surrounding checkout (it runs the CLI in-process):

    PYTHONPATH=src python3 perfbench/workloads.py
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
GOLDEN_RING = ROOT / "tests" / "golden" / "ring_table.csv"

VERIFY_ARGV = ["verify", "--max-sum", "6", "--format", "json"]
RING_ARGV = ["table", "--which", "ring", "--max-sum", "8", "--format", "csv"]
LARGE_WEIGHTS = ((3, 8), (5, 7), (7, 9))
INVARIANT_FIELDS = ("rank_K0", "chi_hh", "serre_unipotent",
                    "surface_obstructed")


def invariants_argv(n: int, m: int, alpha, beta) -> list[str]:
    return ["invariants", "--n", str(n), "--m", str(m), f"--alpha={alpha}",
            f"--beta={beta}", "--format", "json"]


def random_rational(rng: random.Random, nonzero: bool) -> Fraction:
    num = rng.choice([k for k in range(-4, 5) if k or not nonzero])
    return Fraction(num, rng.randint(1, 4))


# -- argument lists -----------------------------------------------------------

def verify_sweep_pass(seed: int) -> list[list[str]]:
    # The sweep's own stratum sampler fixes the input, so the seed is unused.
    return [list(VERIFY_ARGV)]


def ring_table_pass(seed: int) -> list[list[str]]:
    return [list(RING_ARGV)]  # seed unused, as for verify-sweep


def invariants_large_pass(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    out = []
    for n, m in LARGE_WEIGHTS:
        alpha = random_rational(rng, nonzero=False)
        beta = random_rational(rng, nonzero=True)
        out.append(invariants_argv(n, m, alpha, beta))
    return out


# -- gates ----------------------------------------------------------------------
# Each takes the pass as [(argv, returncode, stdout_bytes)] and the
# workload's part of the reference.

def gate_verify(results, ref) -> tuple[int, int, list[str]]:
    total = ref["checks"]
    (_, code, out), = results
    if code != 0:
        return total, total, [f"verify exited {code}"]
    try:
        summary = json.loads(out)["summary"]
    except (ValueError, KeyError, TypeError):
        return total, total, ["verify printed no JSON report with a summary"]
    if summary["failed"] != 0:
        return total, total, [f"verify reports {summary['failed']} failed checks"]
    if hashlib.sha256(out).hexdigest() != ref["sha256"]:
        return total, total, ["verify report differs from the reference bytes"]
    return total, 0, []


def gate_ring(results, ref) -> tuple[int, int, list[str]]:
    expected = ref["lines"]
    attempted = len(expected) - 1  # rows, without the header
    (_, code, out), = results
    if code != 0:
        return attempted, attempted, [f"table exited {code}"]
    got = out.decode("utf-8", "replace").splitlines()
    if not got or got[0] != expected[0]:
        return attempted, attempted, ["table header differs from the reference"]
    golden = {line.split(",", 1)[0]: line for line in ref["golden"][1:]}
    notes, failed = [], 0
    for i, want in enumerate(expected[1:], start=1):
        have = got[i] if i < len(got) else None
        key = want.split(",", 1)[0]
        if have != want or (key in golden and have != golden[key]):
            failed += 1
            notes.append(f"row {i} ({key}) differs")
    if len(got) != len(expected):
        notes.append(f"table has {len(got) - 1} rows, reference {attempted}")
        failed = max(failed, 1)
    return attempted, failed, notes


def gate_invariants(results, ref) -> tuple[int, int, list[str]]:
    notes, failed = [], 0
    for argv, code, out in results:
        n, m = argv[argv.index("--n") + 1], argv[argv.index("--m") + 1]
        want = ref["fields"][f"{n},{m}"]
        try:
            rep = json.loads(out)
            ok = (code == 0 and all(c["pass"] for c in rep["checks"])
                  and len(rep["checks"]) == 2
                  and {k: rep["invariants"][k] for k in INVARIANT_FIELDS} == want)
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            failed += 1
            notes.append(f"invariants n={n} m={m} exited {code} or differs")
    return len(results), failed, notes


def check_golden_in_reference(ref, golden_lines) -> None:
    """The golden ring rows must be rows of the reference table."""
    missing = set(golden_lines[1:]) - set(ref["ring-table"]["lines"][1:])
    if golden_lines[:1] != ref["ring-table"]["lines"][:1] or missing:
        raise ValueError(f"{GOLDEN_RING} rows missing from the reference: "
                         f"{sorted(missing)}")


WORKLOADS = {  # name -> (pass from seed, gate)
    "verify-sweep": (verify_sweep_pass, gate_verify),
    "ring-table": (ring_table_pass, gate_ring),
    "invariants-large": (invariants_large_pass, gate_invariants),
}


def load_reference() -> dict:
    """The recorded outputs, with the golden ring rows attached and checked."""
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    golden = GOLDEN_RING.read_text().splitlines()
    check_golden_in_reference(ref, golden)
    ref["ring-table"]["golden"] = golden
    return ref


# -- recording the reference ----------------------------------------------------

def _run_in_process(argv: list[str]) -> tuple[int, bytes]:
    import contextlib
    import io

    from downup_hh.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode()


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"refusing to record a failing reference: {what}")


def record_reference() -> dict:
    code, out = _run_in_process(VERIFY_ARGV)
    rep = json.loads(out)
    _require(code == 0 and rep["summary"]["failed"] == 0, "verify")
    ref = {"verify-sweep": {"argv": VERIFY_ARGV,
                            "sha256": hashlib.sha256(out).hexdigest(),
                            "checks": rep["summary"]["total"]}}
    code, out = _run_in_process(RING_ARGV)
    _require(code == 0, "table")
    ref["ring-table"] = {"argv": RING_ARGV, "lines": out.decode().splitlines()}
    fields = {}
    for n, m in LARGE_WEIGHTS:
        code, out = _run_in_process(invariants_argv(n, m, 1, 1))
        rep = json.loads(out)
        _require(code == 0 and all(c["pass"] for c in rep["checks"]),
                 f"invariants n={n} m={m}")
        fields[f"{n},{m}"] = {k: rep["invariants"][k] for k in INVARIANT_FIELDS}
    ref["invariants-large"] = {"fields": fields}
    check_golden_in_reference(ref, GOLDEN_RING.read_text().splitlines())
    return ref


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(record_reference(), indent=1) + "\n")
