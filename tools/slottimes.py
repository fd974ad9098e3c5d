"""Per-slot job times of one perfbench workload, and the slots its percentiles fall on.

    python3 tools/slottimes.py freqresp_sweep --seed 11 --repeat 5
    python3 tools/slottimes.py freqresp_sweep --seed 11 --against ../parent --rounds 3

Builds the workload's job pool from ``perfbench/workloads.py`` of the
checkout, as ``perfbench/run.py`` does, with the input files in a
temporary directory.  Every job runs once untimed, then ``--repeat``
times in this process with BLAS pinned to one thread; each slot's best
time is printed with its sizes.  The last lines name the slots that
perfbench's nearest-rank p50 and p90 of one pass fall on when every slot
takes its best time.

With ``--against ROOT`` the same is measured for this checkout and for the
checkout at ROOT, each in a fresh process, alternating which goes first
for ``--rounds`` rounds; each side keeps its best time per slot over the
rounds, and the ratio change/parent is printed per slot (this checkout is
the change, ROOT the parent).  The digest of each slot's output (the
workload's ``Job.digest`` of its first run in each process) is compared
between the two checkouts and between the rounds of each side, and every
slot whose bytes differ is named.  Standard library and numpy only.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, as perfbench does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUANTILES = (0.5, 0.9)


def percentile_slots(times: list[float], quantiles=QUANTILES) -> dict[float, int]:
    """The slot at each quantile's nearest rank, as perfbench/run.py's ``percentile`` ranks."""
    ranked = sorted(range(len(times)), key=times.__getitem__)
    return {q: ranked[max(0, math.ceil(q * len(times)) - 1)] for q in quantiles}


def measure(root: str, workload: str, seed: int, repeat: int) -> list[dict]:
    """Kind, sizes, output digest and best-of-``repeat`` seconds of every slot, run in this process."""
    sys.dont_write_bytecode = True     # leave no __pycache__ under perfbench/
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import slhnet.cli  # noqa: F401  (workloads look slhnet's modules up in sys.modules)
    from workloads import WORKLOADS
    with tempfile.TemporaryDirectory() as workdir:
        jobs = WORKLOADS[workload].build(seed, workdir)
        digests = [job.digest(job.run()).hex() for job in jobs]
        best = [math.inf] * len(jobs)
        for _ in range(repeat):
            for slot, job in enumerate(jobs):
                t0 = time.perf_counter()
                job.run()
                best[slot] = min(best[slot], time.perf_counter() - t0)
    return [{"kind": job.kind, "sizes": job.sizes, "digest": d, "best_s": b}
            for job, d, b in zip(jobs, digests, best)]


def differing_slots(parent: list[dict], change: list[dict]) -> list[int]:
    """The slots whose output digests differ between two measurements."""
    return [slot for slot, (p, c) in enumerate(zip(parent, change)) if p["digest"] != c["digest"]]


def merge_rounds(rounds: list[list[dict]]) -> tuple[list[dict], list[int]]:
    """One side's slots with the best time over its rounds, and the slots whose digest varies."""
    first = rounds[0]
    merged = [dict(slot, best_s=min(r[k]["best_s"] for r in rounds)) for k, slot in enumerate(first)]
    varying = sorted({k for r in rounds[1:] for k in differing_slots(first, r)})
    return merged, varying


def _measure_in_subprocess(root: str, args) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), args.workload, "--seed", str(args.seed),
         "--repeat", str(args.repeat), "--root", root, "--json"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _sizes(slot: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in slot["sizes"].items())


def _slot_list(slots: list[int], total: int) -> str:
    return f"slots {', '.join(map(str, slots))} ({len(slots)} of {total})"


def _report(sides: dict[str, list[dict]], varying: dict[str, list[int]] | None = None) -> None:
    names = list(sides)
    first = sides[names[0]]
    print(f"{'slot':>4}  {'kind':<18} {'sizes':<24}"
          + "".join(f" {name + ' ms':>12}" for name in names)
          + ("  ratio" if len(names) == 2 else ""))
    for slot, entry in enumerate(first):
        times = [sides[name][slot]["best_s"] * 1e3 for name in names]
        line = (f"{slot:>4}  {entry['kind']:<18} {_sizes(entry):<24}"
                + "".join(f" {t:>12.3f}" for t in times))
        if len(names) == 2:
            line += f"  {times[1] / times[0]:.3f}"
        print(line)
    if len(names) == 2:
        differ = differing_slots(*sides.values())
        print(f"outputs differ on {_slot_list(differ, len(first))}"
              if differ else f"outputs identical on all {len(first)} slots")
    for name, slots in (varying or {}).items():
        if slots:
            print(f"{name} outputs vary between rounds on {_slot_list(slots, len(first))}")
    for name in names:
        times = [slot["best_s"] for slot in sides[name]]
        total = f"{name}: sum {sum(times) * 1e3:.3f} ms"
        for q, slot in percentile_slots(times).items():
            rank = max(1, math.ceil(q * len(times)))
            total += (f"; p{round(q * 100)} (rank {rank} of {len(times)}) slot {slot},"
                      f" {times[slot] * 1e3:.3f} ms")
        print(total)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", help="freqresp_sweep, reduce_chain or algebra_mix")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per slot")
    parser.add_argument("--root", default=ROOT, help="checkout to measure (default: this one)")
    parser.add_argument("--against", help="a second checkout: the parent")
    parser.add_argument("--rounds", type=int, default=3,
                        help="processes per side with --against")
    parser.add_argument("--json", action="store_true", help="print the slots as JSON")
    args = parser.parse_args(argv)
    for flag in ("repeat", "rounds"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be at least 1")
    if args.against is None:
        slots = measure(os.path.abspath(args.root), args.workload, args.seed, args.repeat)
        if args.json:
            print(json.dumps(slots))
        else:
            _report({"time": slots})
        return 0
    roots = {"parent": os.path.abspath(args.against), "change": os.path.abspath(args.root)}
    rounds: dict[str, list[list[dict]]] = {"parent": [], "change": []}
    for round_no in range(args.rounds):
        for name in (["parent", "change"] if round_no % 2 == 0 else ["change", "parent"]):
            rounds[name].append(_measure_in_subprocess(roots[name], args))
    merged = {name: merge_rounds(runs) for name, runs in rounds.items()}
    _report({name: slots for name, (slots, _) in merged.items()},
            {name: varying for name, (_, varying) in merged.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
