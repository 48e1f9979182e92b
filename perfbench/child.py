"""One benchmarked process: import the CLI, then run it on the given arguments.

Usage: child.py INFO_PATH MODE [CLI ARGS...]

MODE is `probe` (import only), `plain` (run the CLI untraced) or
`trace:RUN_ID` (run it under the span tracer).  The process writes the
`time.perf_counter()` reading taken once `downup_hh.cli` is imported to
INFO_PATH; the parent compares it, and the span times, with its own readings
around the process, which works because perf_counter is the system-wide
monotonic clock on Linux.
A traced process writes its spans to INFO_PATH + ".trace" when it ends.
"""

import json
import sys
import time


def main() -> None:
    info_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import downup_hh.cli as cli
    ready = time.perf_counter()
    with open(info_path, "w") as fh:
        json.dump({"ready": ready, "file": cli.__file__}, fh)
    if mode == "probe":
        return
    if mode == "plain":
        sys.exit(cli.main(argv))
    import tracer
    tr = tracer.install(mode.split(":", 1)[1])
    try:
        code = cli.main(argv)  # the rebound, traced main
    finally:
        tr.dump(info_path + ".trace")
    sys.exit(code)


if __name__ == "__main__":
    main()
