"""Print the seconds a fresh process takes to import manifold_ukf and make()
the models of one workload; run.py starts it several times for setup_s.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path


def main(workload, seed):
    sys.path.insert(0, str(Path.cwd() / "src"))
    t0 = time.perf_counter()
    import manifold_ukf as mu
    import workloads
    workloads.build_models(workloads.WORKLOADS[workload], seed, mu)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
