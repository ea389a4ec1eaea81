"""Benchmark of the qmac command-line program.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload named in BENCHMARK.json (see workloads.py) repeatedly for
S seconds, each run ``qmac.cli.main(argv)`` in a fresh interpreter with one
BLAS thread, and checks every output against its reference.  With --trace 0
the k-th run of a pooled workload takes the pool entry k places after the
seed's own, so that a result does not hinge on one CLI seed's work (the
entries still differ by up to 10%); with --trace 1 every run repeats the
seed's own entry, so that counts can be compared.

--trace 0 reports the end-to-end metrics:
  wall_s       time of the main(argv) call, after import
  setup_s      time of ``import qmac.cli`` in a fresh interpreter
  peak_rss_mb  peak resident set of the child process (median over runs)
Both times are in calibrated seconds.  Each child also times a fixed
pure-Python kernel (child.calibrate) before the import, between import and
call, and after the call; a time is the total of that time over all runs,
times CALIBRATION_REF_S, over the total of the two kernel times around it.
On a shared 2-vCPU virtual machine the speed a process gets flips by up to
1.6x within seconds; the kernel slows with it, and the calibrated times of
ten runs spread about half as much as the raw medians.  The raw medians
(wall_raw_s, setup_raw_s) and the kernel's median time are printed and
recorded too.
--trace 1 alternates traced and untraced runs and reports the per-layer
metrics of tracer.py's spans (medians of times, exact counts, which must
repeat exactly between the traced runs), plus trace.coverage and
trace.overhead; it also lists the end-to-end metrics of its untraced runs,
so that this one command shows every metric.

A run fails on a nonzero exit, a traceback, an output that differs from
its reference, wrappers present in an untraced run, or counts that do not
repeat.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it list every metric,
fail_rate and the environment, which are also written to
.bench_build/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
CHILD = os.path.join(BENCH, "child.py")

sys.path.insert(0, BENCH)
sys.dont_write_bytecode = True  # keep the benchmark directory as checked in

import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_BUDGET_S = 160      # no child starts, and every child is stopped, after this
MIN_RUNS = 3            # untraced runs per benchmark run, however short --seconds is
MIN_TRACED = 2          # traced runs, so that counts can be compared
BLAS_THREADS = "1"      # on 2 cores, 2 BLAS threads made `simulate` slower, not faster
# calibration kernel time that counts as nominal speed: about its median on
# a 2-vCPU 2.1 GHz Xeon virtual machine
CALIBRATION_REF_S = 0.09

EIG = ("operators.numpy.eigh", "operators.numpy.eigvalsh")
CHECKS = ("operators.check_density", "operators.check_povm", "operators.check_hermitian")

# metric -> span names whose self times it sums
SELF_METRICS = {
    "channel.load_s": ("channel.load_channel", "channel.channel_from_dict",
                       "channel.validate_channel"),
    "channel.build_s": ("channel.channel_state", "channel.reduced_channel",
                        "channel.make_ensemble", "channel.BlockChannel.state_for_words"),
    "operators.eig_s": EIG,
    "operators.check_s": CHECKS,
    "coding.chain_s": ("coding.average_error",),
}
# metric -> span names whose outermost spans' durations it sums
INCLUSIVE_METRICS = {
    "coding.decoder_build_s": ("coding.pgm_decoder", "coding.TenderInstrument.from_povm"),
    "coding.accounting_s": ("operators.trace_norm",),
    "checks.entropy_suite_s": ("checks.entropy_suite",),
    "checks.lemma_suite_s": ("checks.lemma_suite",),
    "checks.region_suite_s": ("checks.region_suite",),
    "checks.oracle_s": ("entropy.subsystem_entropy_dense",),
}
# metric -> span names whose calls it counts
CALL_METRICS = {
    "channel.block_states": ("channel.BlockChannel.state_for_words",),
    "operators.eig_calls": EIG,
    "operators.check_calls": CHECKS,
    "entropy.restrict_calls": ("entropy.restrict",),
    "entropy.mi_calls": ("entropy.mutual_information",),
    "region.priors": ("region.constraint_set",),
    "coding.pgm_builds": ("coding.pgm_decoder",),
    "coding.instrument_lookups": ("coding.SequentialDecoder.stage_instrument",),
}
COUNTER_METRICS = {"operators.eig_work": "eig_work", "coding.tuples": "tuples"}

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "wall_raw_s": "s", "setup_raw_s": "s", "calibration_s": "s",
         "coding.instrument_hit_ratio": "ratio", "trace.coverage": "ratio",
         "trace.overhead": "ratio"}


def count_metric(metric: str) -> bool:
    return metric in CALL_METRICS or metric in COUNTER_METRICS


def unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "count" if count_metric(metric) else "s"


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(BUILD, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # set-up is timed with cached bytecode
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


class Runner:
    """Runs children for one workload input and checks what they print."""

    def __init__(self, job, workdir: str):
        """job(k) gives the k-th run's argv and its check, a function of the
        run's stdout that returns the list of problems with it."""
        self.job, self.workdir = job, workdir
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.problems: list[str] = []

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def warm_up(self) -> None:
        """Compile bytecode and fill the file cache before anything is timed."""
        subprocess.run([sys.executable, "-c", "import qmac.cli"], env=self.env,
                       cwd=self.workdir, timeout=self.time_left(), check=False,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def run(self, trace: bool) -> dict | None:
        """One child run; its result dict, or None (and a recorded problem) if it failed."""
        k = self.attempted
        self.attempted += 1
        argv, check = self.job(k)
        base = os.path.join(self.workdir, f"run{k}")
        try:
            with open(base + ".out", "w") as out, open(base + ".err", "w") as err:
                proc = subprocess.run(
                    [sys.executable, CHILD, base + ".json", "1" if trace else "0", "--",
                     *argv],
                    stdout=out, stderr=err, env=self.env, cwd=self.workdir,
                    timeout=max(self.time_left(), 0.1), check=False)
        except subprocess.TimeoutExpired:
            return self._fail(k, f"stopped at the {RUN_BUDGET_S} s budget")
        with open(base + ".err", encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        if proc.returncode != 0 or "Traceback" in stderr:
            return self._fail(k, f"exit {proc.returncode}: {stderr.strip()[-300:]}")
        with open(base + ".json", encoding="utf-8") as fh:
            result = json.load(fh)
        if result["code"] != 0:
            return self._fail(k, f"qmac exited {result['code']}: {stderr.strip()[-300:]}")
        if not trace and result["wrapped"]:
            return self._fail(k, f"untraced run found {result['wrapped']} wrappers")
        with open(base + ".out", encoding="utf-8") as fh:
            problems = check(fh.read())
        if problems:
            return self._fail(k, f"{len(problems)} output mismatches, first: {problems[0]}")
        if trace:
            result["trace"] = tracer.summarize(tracer.load(base + ".json.spans"),
                                               INCLUSIVE_METRICS)
        return result

    def _fail(self, k: int, problem: str) -> None:
        self.problems.append(f"run {k}: {problem}")
        return None


def layer_metrics(summary: dict) -> dict:
    calls, self_s = summary["calls"], summary["self_s"]
    out: dict[str, float] = {}
    for layer in tracer.LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    for metric, names in SELF_METRICS.items():
        out[metric] = sum(self_s.get(n, 0.0) for n in names)
    for metric in INCLUSIVE_METRICS:
        out[metric] = summary["inclusive_s"][metric]
    for metric, names in CALL_METRICS.items():
        out[metric] = sum(calls.get(n, 0) for n in names)
    for metric, key in COUNTER_METRICS.items():
        out[metric] = summary["counters"].get(key, 0)
    lookups = out["coding.instrument_lookups"]
    out["coding.instrument_hit_ratio"] = (
        1.0 - out["coding.pgm_builds"] / lookups if lookups else 0.0)
    out["trace.coverage"] = sum(self_s.values()) / summary["wall_s"]
    return out


def calibrated(results: list[dict], key: str) -> float:
    """A time per run in calibrated seconds: its total over the runs, scaled by
    CALIBRATION_REF_S over the total of the kernel times around it."""
    pair = slice(0, 2) if key == "setup_s" else slice(1, 3)
    kernel = sum(sum(r["calibration_s"][pair]) / 2 for r in results)
    return sum(r[key] for r in results) * CALIBRATION_REF_S / kernel


def end_to_end(results: list[dict]) -> dict:
    if not results:
        return {}
    return {"wall_s": calibrated(results, "wall_s"),
            "setup_s": calibrated(results, "setup_s"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results)}


def raw_times(results: list[dict]) -> dict:
    if not results:
        return {}
    return {"wall_raw_s": statistics.median(r["wall_s"] for r in results),
            "setup_raw_s": statistics.median(r["setup_s"] for r in results),
            "calibration_s": statistics.median(c for r in results for c in r["calibration_s"])}


def measure_plain(runner: Runner, seconds: float) -> list[dict]:
    start = time.perf_counter()
    results = []
    while ((runner.attempted < MIN_RUNS or time.perf_counter() - start < seconds)
           and runner.time_left() > 0):
        res = runner.run(trace=False)
        if res is not None:
            results.append(res)
    return results


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    """Per-layer metrics of the traced runs, and the untraced runs in between."""
    start = time.perf_counter()
    traced, plain = [], []
    n_traced = n_plain = 0
    while ((n_traced < MIN_TRACED or n_plain < 1
            or time.perf_counter() - start < seconds) and runner.time_left() > 0):
        if n_traced <= n_plain:
            n_traced += 1
            res = runner.run(trace=True)
            if res is not None:
                traced.append(res)
        else:
            n_plain += 1
            res = runner.run(trace=False)
            if res is not None:
                plain.append(res)
    if not traced or not plain:
        return {}, plain
    layers = [layer_metrics(r["trace"]) for r in traced]
    metrics = {}
    for m in layers[0]:
        values = [t[m] for t in layers]
        if count_metric(m):
            if len(set(values)) != 1:
                runner.problems.append(f"count {m} did not repeat: {values}")
            metrics[m] = values[0]
        else:
            metrics[m] = statistics.median(values)
    metrics["trace.overhead"] = (end_to_end(traced)["wall_s"]
                                 / end_to_end(plain)["wall_s"] - 1.0)
    return metrics, plain


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "qmac", "cli.py")):
        print(f"error: no qmac sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    os.makedirs(BUILD, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD)
    inputs: list[list[str]] = []

    def job(k: int):
        argv, ctx = workloads.make(args.workload, args.seed, workdir, 0 if args.trace else k)
        inputs.append(argv)
        return argv, lambda text: workloads.verify(args.workload, ctx, text)

    try:
        runner = Runner(job, workdir)
        runner.warm_up()
        if args.trace:
            metrics, plain = measure_traced(runner, args.seconds)
        else:
            plain = measure_plain(runner, args.seconds)
            metrics = end_to_end(plain)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.problems)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": inputs, "environment": environment(),
        "attempted": runner.attempted, "failed": failed,
        "fail_rate": failed / runner.attempted, "problems": runner.problems,
        "metrics": {m: {"value": v, "unit": unit(m)} for m, v in metrics.items()},
        "untraced": {m: {"value": v, "unit": unit(m)}
                     for m, v in dict(end_to_end(plain), **raw_times(plain)).items()},
        "samples": [{m: r[m] for m in ("wall_s", "setup_s", "peak_rss_mb", "calibration_s")}
                    for r in plain],
    }
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for problem in runner.problems:
        print(f"FAIL {problem}")
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"{'fail_rate':32s} {record['fail_rate']:<14.6g} ratio "
          f"({failed} of {runner.attempted} runs)")
    shown = dict(record["untraced"], **record["metrics"])
    for m, v in shown.items():
        print(f"{m:32s} {v['value']:<14.6g} {v['unit']}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
