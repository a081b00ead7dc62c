"""Figure 1: the latency tolerance profile.

Reproduces the paper's headline figure: replace everything below the L1
with a fixed-latency responder, sweep the latency, and plot IPC normalized
to the true baseline.  The observations the paper draws:

* baseline performance sits far below the low-latency plateau, and
* the 1.0x intercept (the effective baseline latency) is far above the
  unloaded L2 (~120 cy) and DRAM (~220 cy) access latencies

both fall out of the printed table.

Usage::

    python examples/latency_tolerance.py [scale] [benchmark ...]
"""

import sys

from repro import PAPER_SUITE, profile_latency_tolerance, small_gpu
from repro.core.latency_profile import REPORT_LATENCIES
from repro.core.report import render_figure1


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    benchmarks = sys.argv[2:] or ["cfd", "leukocyte", "nn", "sc"]
    if benchmarks == ["all"]:
        benchmarks = list(PAPER_SUITE)

    config = small_gpu()
    profiles = []
    for name in benchmarks:
        print(f"profiling {name} ...", flush=True)
        profile = profile_latency_tolerance(
            name, config, latencies=REPORT_LATENCIES, iteration_scale=scale)
        profiles.append(profile)
        intercept = profile.intercept_latency()
        print(f"  baseline IPC {profile.baseline_ipc:.2f}; "
              f"measured avg miss latency "
              f"{profile.baseline_avg_miss_latency:.0f} cy; "
              f"1.0x intercept at "
              f"{'beyond sweep' if intercept is None else f'{intercept:.0f} cy'}")

    print()
    print(render_figure1(profiles))
    print("\nReading the table: for memory-intensive benchmarks the "
          "intercept (effective baseline latency) sits far above the "
          "~120/~220-cycle unloaded L2/DRAM latencies — that excess is "
          "congestion, the paper's Section II observation.")


if __name__ == "__main__":
    main()
