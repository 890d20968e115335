"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED TINY(0|1)

Prints the seconds spent importing compodna (numpy included) from the
checkout's `src` and building the workload's inputs.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    workload, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import compodna  # noqa: F401
    import workloads

    workloads.build(workload, seed, tiny)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
