"""slhnet benchmark: one workload, one seed, one measurement.

    python3 perfbench/run.py --workload reduce_chain --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/slhnet`` must exist; nothing
needs installing).  The run is a closed loop: one caller in this process
runs one job at a time, with BLAS pinned to one thread.  It

1. measures set-up: SETUP_REPEATS fresh interpreters each import slhnet
   and run one job of every kind (``setup_probe.py``); the median counts;
2. generates the workload's job pool from ``--seed`` and writes its input
   files under ``perfbench/_out``;
3. runs every job once untimed, keeps a digest of its output and checks
   that output against the oracle (``oracles.py``);
4. visits the pool in passes, each slot once per pass in a seeded order,
   until ``--seconds`` have passed.  Every job must exit 0 and reproduce
   its first output byte for byte.  Metrics use whole passes only.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1``
it alternates untraced and traced runs of each job and prints per-layer
metrics from the traced ones (``spans.py``); the spans are written to
``perfbench/_out/spans-<workload>-<seed>.jsonl``.  The line before the
result is a JSON report with versions, thread settings, per-job sizes and
failure reasons.  The last line is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

import os

# Pin BLAS before numpy loads: more threads than this 1-job loop needs only
# adds contention noise.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "_out")
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120

sys.path.insert(0, HERE)
import numpy as np  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(workload: str, seed: int, workdir: str) -> list[float]:
    """Set-up seconds of SETUP_REPEATS cold starts, each in a new interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", workdir],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(probe["import_s"] + sum(probe["warmup_s"]))
    return samples


def run_job(job, reference: bytes | None) -> tuple[float, str | None]:
    """Run one job; (seconds, failure reason or None)."""
    t0 = time.perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # a failing job is counted, the loop goes on
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if reference is None or job.digest(out) != reference:
        return elapsed, "output differs from the first run"
    return elapsed, None


def reference_pass(jobs) -> tuple[list[bytes | None], list[str | None]]:
    """Run each job once; its output digest and its oracle verdict."""
    digests, verdicts = [], []
    for job in jobs:
        try:
            out = job.run()
        except Exception as exc:  # reported per job, never hidden
            digests.append(None)
            verdicts.append(f"{type(exc).__name__}: {exc}")
            continue
        digests.append(job.digest(out))
        try:
            job.check(out)
            verdicts.append(None)
        except oracles.OracleMismatch as exc:
            verdicts.append(f"oracle: {exc}")
        except Exception as exc:  # output the oracle cannot even read
            verdicts.append(f"oracle: {type(exc).__name__}: {exc}")
    return digests, verdicts


class Run(NamedTuple):
    """One run of one job in the timed loop."""

    pass_no: int
    visit: int
    slot: int
    traced: bool
    seconds: float
    failure: str | None


def timed_loop(jobs, digests, verdicts, seed, seconds, recorder=None):
    """Closed loop over the pool for ``seconds``, in passes.

    Each pass visits every slot once, in a fresh seeded order.  Without a
    recorder each visit runs the job once; with one, it runs it untraced
    and traced, alternating which goes first.  Returns the per-run records
    (pass, visit, slot, traced, seconds, failure) and the wall time of each
    complete pass.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    records, pass_times = [], []
    deadline = time.perf_counter() + seconds
    visit = 0
    for pass_no in itertools.count():
        pass_start = time.perf_counter()
        for i, slot in enumerate(rng.permutation(len(jobs)).tolist()):
            modes = [False] if recorder is None else [visit % 2 == 0, visit % 2 == 1]
            for traced in modes:
                if traced:
                    recorder.job = visit
                    with recorder.installed():
                        elapsed, failure = run_job(jobs[slot], digests[slot])
                else:
                    elapsed, failure = run_job(jobs[slot], digests[slot])
                records.append(Run(pass_no, visit, slot, traced, elapsed,
                                   failure or verdicts[slot]))
            visit += 1
            out_of_time = time.perf_counter() >= deadline
            if out_of_time and i < len(jobs) - 1:
                return records, pass_times
        pass_times.append(time.perf_counter() - pass_start)
        if out_of_time:
            return records, pass_times


def whole_passes(records, pass_times):
    """The records of complete passes; all records if no pass completed.

    Percentiles and rates use whole passes, so every slot weighs the same.
    """
    if not pass_times:
        return records
    return [r for r in records if r.pass_no < len(pass_times)]


def pass_percentile(records, pass_times, q: float) -> float:
    """Median over whole passes of each pass's nearest-rank percentile.

    A pass holds one run of every slot, so each pass sees the pool's
    composition exactly; the median over passes ignores a pass that a
    burst of load on the machine slowed down.
    """
    if not pass_times:
        return percentile([r.seconds for r in records], q)
    by_pass = [[] for _ in pass_times]
    for r in whole_passes(records, pass_times):
        by_pass[r.pass_no].append(r.seconds)
    return statistics.median(percentile(times, q) for times in by_pass)


def end_to_end(records, pass_times, setup_samples) -> dict:
    used = whole_passes(records, pass_times)
    passed_per_pass = sum(1 for r in used if not r.failure) / max(1, len(pass_times))
    pass_s = statistics.median(pass_times) if pass_times else sum(r.seconds for r in used)
    failed = sum(1 for r in records if r.failure)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "jobs_per_s": (passed_per_pass / pass_s, "1/s"),
        "job_ms_p50": (1e3 * pass_percentile(records, pass_times, 0.5), "ms"),
        "job_ms_p90": (1e3 * pass_percentile(records, pass_times, 0.9), "ms"),
        "ok_ratio": ((len(records) - failed) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(records, pass_times, recorder) -> dict:
    used = whole_passes(records, pass_times)
    traced = [r for r in used if r.traced]
    plain = [r for r in used if not r.traced]
    jobs = len(traced)
    visits = {r.visit for r in traced}
    kept = [s for s in recorder.spans if s.job in visits]
    totals = spans.layer_totals(kept)

    def total(name, key):
        return totals.get(name, {}).get(key, 0)

    metrics = {}
    for owner, fname, _ in spans.TRACED:
        name = f"{owner}.{fname}"
        metrics[f"{name}.self_s"] = (total(name, "self_s") / jobs, "s/job")
        metrics[f"{name}.calls"] = (total(name, "calls") / jobs, "calls/job")
    points = total("transfer.freq_response", "points")
    built = total("netfile.build_partitioned", "entries")
    copied = spans.nested_counts(kept, "netfile.build_partitioned",
                                 "slh.concatenate", "entries")
    metrics.update({
        "transfer.freq_response.points": (points / jobs, "points/job"),
        "transfer.freq_response.singular_ratio": (
            total("transfer.freq_response", "singular") / points if points else 0.0, "ratio"),
        "slh.concatenate.copy_ratio": (copied / built if built else 0.0, "ratio"),
        "network.feedback_reduce.channels": (
            total("network.feedback_reduce", "channels") / jobs, "channels/job"),
        "netfile.serialize.bytes": (total("netfile.serialize", "bytes") / jobs, "B/job"),
        "netfile.parse.bytes": (total("netfile.parse", "bytes") / jobs, "B/job"),
        "trace.overhead_ratio": (sum(r.seconds for r in traced) / sum(r.seconds for r in plain),
                                 "ratio"),
    })
    return metrics


def environment() -> dict:
    import scipy
    threads = None
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": int(BLAS_THREADS), "process_threads": threads,
            "loop": "closed, 1 caller, 1 job at a time"}


def main() -> int:
    parser = argparse.ArgumentParser(description="slhnet benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "slhnet", "__init__.py")):
        print(f"error: no slhnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload]
        setup_samples = [] if args.trace else measure_setup(args.workload, args.seed, workdir)
        import slhnet  # noqa: F401
        import slhnet.cli  # noqa: F401
        jobs = workload.build(args.seed, workdir)
        digests, verdicts = reference_pass(jobs)
        recorder = spans.Recorder() if args.trace else None
        gc.collect()
        gc.freeze()   # full collections in the loop then scan only the program's objects
        records, pass_times = timed_loop(jobs, digests, verdicts, args.seed,
                                         args.seconds, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if recorder is not None:
        metrics = per_layer(records, pass_times, recorder)
        recorder.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = end_to_end(records, pass_times, setup_samples)
    failed = sum(1 for r in records if r.failure)
    runs = Counter(r.slot for r in records)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "jobs": [{"slot": i, "kind": j.kind, **j.sizes, "runs": runs[i],
                  "oracle": verdicts[i] or "ok"} for i, j in enumerate(jobs)],
        "samples": {"jobs": len(records), "passes": len(pass_times),
                    "jobs_in_passes": len(whole_passes(records, pass_times)),
                    "pass_s": pass_times, "setup_s": setup_samples},
        "failures": dict(Counter(r.failure for r in records if r.failure)),
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0 and not any(verdicts),
        "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
