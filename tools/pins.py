"""Check the recorded outputs of the `downup-hh` CLI against PINS.json.

Each pin is one command: its argv, the sha256 of its standard output, its
exit status, and the check count of a JSON report that has one.  Every
command runs in a fresh interpreter on this checkout's `src`, serially
(HH_THREADS unset).

    python tools/pins.py                   # check every pin
    python tools/pins.py --record COMMIT   # rewrite PINS.json from this tree

Prints one line per pin and exits 1 if any pin does not match.  A pin
changes only deliberately: --record rewrites every value, so the diff of
PINS.json shows exactly what moved.

Standard library only; not installed with the package.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "PINS.json"


def load():
    return json.loads(PINS.read_text())


def run(argv):
    """(stdout sha256, exit status, check count or None) of one serial
    `downup-hh` run on this checkout."""
    env = {k: v for k, v in os.environ.items() if k != "HH_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-m", "downup_hh.cli", *argv],
                          capture_output=True, env=env, cwd=ROOT)
    return (hashlib.sha256(proc.stdout).hexdigest(), proc.returncode,
            check_count(proc.stdout))


def check_count(stdout):
    """The number of checks of a JSON report (`verify`'s summary total, or
    the length of a single-instance report's check list), else None."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    if isinstance(report, dict):
        if "summary" in report:
            return report["summary"]["total"]
        if isinstance(report.get("checks"), list):
            return len(report["checks"])
    return None


def check(pin):
    """(whether the pin holds, one report line)."""
    sha, code, checks = run(pin["argv"])
    bad = [f"{field} {got!r} != {pin[field]!r}"
           for field, got in (("sha256", sha), ("exit", code),
                              ("checks", checks)) if got != pin[field]]
    status = "FAIL" if bad else "ok"
    line = (f"{status:4} {pin['name']}: {' '.join(pin['argv'])}"
            + (" -- " + "; ".join(bad) if bad else ""))
    return not bad, line


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", metavar="COMMIT",
                    help="run every pin and rewrite PINS.json, recorded at "
                         "COMMIT")
    args = ap.parse_args(argv)
    data = load()
    if args.record:
        for pin in data["pins"]:
            pin["sha256"], pin["exit"], pin["checks"] = run(pin["argv"])
        data["recorded_at"] = args.record
        PINS.write_text(json.dumps(data, indent=1) + "\n")
        print(f"recorded {len(data['pins'])} pins at {args.record}")
        return 0
    pins = data["pins"]
    failed = 0
    for pin in pins:
        ok, line = check(pin)
        failed += not ok
        print(line, flush=True)
    print(f"{len(pins)} pins, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
