"""One cold set-up of a workload, in a fresh interpreter; run.py starts it.

Times ``import slhnet`` (with its command line module) and then one job of
each kind the workload runs.  Inputs for those jobs are generated between
the two timed parts, so generation is not counted.  Prints one JSON line:
{"import_s": ..., "warmup_s": [...]}.

    python3 perfbench/setup_probe.py --workload reduce_chain --seed 1 --workdir DIR
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    t0 = time.perf_counter()
    import slhnet  # noqa: F401
    import slhnet.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    jobs = workload.build(args.seed, args.workdir, slots=workload.warmup_slots)
    warmup = []
    for job in jobs:
        t0 = time.perf_counter()
        job.run()
        warmup.append(time.perf_counter() - t0)
    print(json.dumps({"import_s": import_s, "warmup_s": warmup}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
