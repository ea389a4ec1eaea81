"""Regenerate the stored seed pools and reference outputs in bench/reference/.

    python3 bench/make_reference.py [--workload NAME]

Run it on the commit whose outputs are to be the reference, and only when
the benchmark's inputs change: a change that claims a speed-up must pass
against the references as they are.

For each CLI-seeded workload, candidate CLI seeds 0, 1, 2, ... are run in
this process, and the pool takes the seeds whose work is closest to the
candidates' typical work:

- ``simulate-*``: the seeds whose number of pretty-good-measurement builds
  (one per distinct decoded prefix, which the codebook draws decide; counted
  with the layer tracer) equals the most common count;
- ``check-suite``: the seeds whose calibrated time (median of interleaved
  repetitions, scaled by child.calibrate() as in run.py) is closest to the
  candidates' median.  The random channels behind a seed decide the work,
  and no single count predicts it: seeds with equal eigensolver counts
  differed by 30% in time.

The pool and the output of every pool seed are written to
``reference/<workload>.json``.  The ``region-sweep`` output for the default
seed is written to ``reference/region-sweep.json.gz``; any other seed is
checked by the oracle in workloads.py.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gzip
import io
import json
import os
import statistics
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from child import calibrate  # noqa: E402

POOL_SIZE = 12
CANDIDATES = {"simulate-chain": 60, "simulate-decoder": 80, "check-suite": 48}
TIMING_REPS = 3


def run_cli(argv: list[str]) -> str:
    import qmac.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qmac.cli.main(argv)
    if code != 0:
        raise SystemExit(f"qmac {' '.join(argv)} exited {code}")
    return out.getvalue()


def survey_builds(name: str, spans: tracer.Tracer) -> tuple[list[tuple[int, int, str]], str]:
    """(cli seed, PGM builds, stdout) of the pool seeds, and the rule."""
    rows = []
    for seed in range(CANDIDATES[name]):
        for arr in (spans.span_name, spans.span_parent, spans.span_start, spans.span_end):
            del arr[:]
        text = run_cli(workloads.ARGV[name] + ["--seed", str(seed)])
        builds = collections.Counter(spans.names[i] for i in spans.span_name)["coding.pgm_decoder"]
        rows.append((seed, builds, text))
        print(f"{name} seed {seed}: {builds} builds", file=sys.stderr, flush=True)
    counts = [b for _, b, _ in rows]
    target = max(sorted(set(counts)), key=counts.count)
    keep = [r for r in rows if r[1] == target]
    if len(keep) < POOL_SIZE:
        raise SystemExit(f"{name}: only {len(keep)} candidates match; raise CANDIDATES")
    return keep[:POOL_SIZE], f"{target} pretty-good-measurement builds, the most common count"


def survey_times(name: str) -> tuple[list[tuple[int, float, str]], str]:
    """(cli seed, calibrated time / median, stdout) of the pool seeds, and the rule."""
    times: dict[int, list[float]] = {s: [] for s in range(CANDIDATES[name])}
    texts = {}
    for rep in range(TIMING_REPS):
        for seed in times:
            before = calibrate()
            t0 = time.perf_counter()
            texts[seed] = run_cli(workloads.ARGV[name] + ["--seed", str(seed)])
            wall = time.perf_counter() - t0
            times[seed].append(wall / (before + calibrate()))
            print(f"{name} rep {rep} seed {seed}: {times[seed][-1]:.3f}",
                  file=sys.stderr, flush=True)
    med = {s: statistics.median(v) for s, v in times.items()}
    center = statistics.median(med.values())
    pool = sorted(sorted(med, key=lambda s: abs(med[s] - center))[:POOL_SIZE])
    rule = (f"the {POOL_SIZE} of {len(med)} candidates whose calibrated time "
            f"(median of {TIMING_REPS}) is closest to the candidates' median")
    return [(s, round(med[s] / center, 4), texts[s]) for s in pool], rule


def write_pool(name: str, spans: tracer.Tracer | None) -> None:
    if spans is None:
        keep, rule = survey_times(name)
    else:
        keep, rule = survey_builds(name, spans)
    doc = {
        "argv": workloads.ARGV[name],
        "candidates": CANDIDATES[name],
        "rule": rule,
        "pool": [seed for seed, _, _ in keep],
        "signature": {str(seed): sig for seed, sig, _ in keep},
        "outputs": {str(seed): text for seed, _, text in keep},
    }
    with open(workloads.reference_path(name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_sweep() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        argv, _ = workloads.make("region-sweep", workloads.DEFAULT_SEED, tmp)
        text = run_cli(argv)
    with open(workloads.reference_path("region-sweep"), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(text.encode("utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, default=None)
    args = parser.parse_args()
    import qmac.cli  # noqa: F401  (the tracer wraps loaded modules only)
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    names = [args.workload] if args.workload else list(workloads.NAMES)
    if "region-sweep" in names:
        write_sweep()
    if "check-suite" in names:
        write_pool("check-suite", None)   # timed, so before the tracer goes in
    spans = None
    for name in names:
        if name.startswith("simulate-"):
            if spans is None:
                spans = tracer.Tracer()
                spans.install()
            write_pool(name, spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
