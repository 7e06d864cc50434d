"""One set-up of a workload in a fresh interpreter; prints its seconds.

Set-up is what a user pays before the first result: importing helmlab
(numpy, scipy), generating the workload's inputs and one warm-up call.
`run.py` starts this script several times and reports the median, since
import time can only be measured once per process.

    python3 perfbench/setup_probe.py --workload table1 --seed 1 [--smoke]
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    workload.warmup()
    print(time.perf_counter() - _T0)


if __name__ == "__main__":
    main()
