"""One timed invocation of the qmac CLI in a fresh interpreter.

Usage: child.py RESULT_JSON TRACE(0|1) -- ARGV...

Times ``import qmac.cli`` (set-up) and the ``qmac.cli.main(argv)`` call
(wall), with the CLI writing to this process's stdout, which the parent
points at a file.  With TRACE=1 the layer wrappers are installed between the
two and the spans are written to RESULT_JSON + ".spans" afterwards.  The
result JSON holds the exit code, both times, the peak resident set of this
process's own image (``ru_maxrss`` would also count the parent's memory at
fork time), the number of wrappers found installed after the call, and the
times of a fixed calibration kernel run before the import, before the call
and after it.
"""

import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402  (standard library only)


CALIBRATION_ROUNDS = 12000


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def calibrate() -> float:
    """Time a fixed pure-Python workload: the speed the machine gives us now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_ROUNDS):
        d = {k: k * 0.5 for k in range(32)}
        acc += sum(d.values()) + len([x for x in d if x & 1]) + math.sqrt(i)
    return time.perf_counter() - t0


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE -- ARGV...")
    argv = sys.argv[4:]

    calibration = [calibrate()]
    t0 = time.perf_counter()
    import qmac.cli
    setup_s = time.perf_counter() - t0
    calibration.append(calibrate())

    spans = None
    if trace:
        spans = tracer.Tracer()
        spans.install()

    t0 = time.perf_counter()
    code = qmac.cli.main(argv)
    sys.stdout.flush()
    wall_s = time.perf_counter() - t0
    calibration.append(calibrate())

    if spans is not None:
        spans.dump(result_path + ".spans", wall_s)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "code": code,
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb(),
            "wrapped": tracer.count_wrapped(),
            "calibration_s": calibration,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
