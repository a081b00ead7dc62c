"""Set-up probe: a fresh interpreter from start to its first job ready.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``.  Imports the
simulator, builds the workload's first job (configuration, kernel and
``GPU``) and prints ``ready``; the benchmark times that from the spawn.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.gpu import GPU  # noqa: E402
from repro.workloads.suite import get_benchmark  # noqa: E402

from jobs import JOB_LISTS  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    job = JOB_LISTS[workload](seed)[0]
    GPU(job.config, get_benchmark(job.benchmark, job.scale), seed=job.seed)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
