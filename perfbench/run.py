"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload design_space --seed 1 --seconds 25 --trace 0

Prints a human-readable report, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer
metrics (``--trace 1``), each with its unit.  Exits 1 when a correctness
check failed and 2 when the simulator sources are missing.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("design_space", "magic_sweep", "serve")
#: Scratch directory inside the checkout: daemon state, trace files.
OUT_DIR = ".perfbench_out"
#: Per-layer metric prefixes each kind of workload does no work for.
IDLE_LAYERS = {
    "in_process": ("runner.", "service."),
    "serve": ("sim.", "workloads.", "gpu.", "cores.", "cache.", "icnt.",
              "dram.", "mem.", "core."),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest waited-for descendant (MiB)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / OUT_DIR
    workdir.mkdir(exist_ok=True)

    if args.workload == "serve":
        import serve

        outcome = serve.measure(args.seed, args.seconds, bool(args.trace), workdir)
        kind = "serve"
    else:
        import inprocess

        outcome = inprocess.measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
        kind = "in_process"
    outcome.e2e["peak_rss_mb"] = peak_rss_mb()

    if args.trace:
        for m in spec["per_layer"]:
            if m["name"].startswith(IDLE_LAYERS[kind]):
                outcome.layers.setdefault(m["name"], 0.0)
        trace_path = workdir / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"layers": outcome.layers, "spans": outcome.spans}, indent=1))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome.layers if args.trace else outcome.e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not outcome.failed:
        outcome.check(False, f"metrics not measured: {', '.join(missing)}")

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}; samples: "
          + ", ".join(f"{k}={v}" for k, v in outcome.samples.items()))
    for m in wanted:
        if m["name"] in values:
            print(f"  {m['name']:<28} {values[m['name']]:>14.6g} {m['unit']}")
    for name, (value, unit) in outcome.report.items():
        shown = f"{value:>14.6g}" if isinstance(value, float) else f"{value:>14}"
        print(f"  {name:<28} {shown} {unit}")
    print(f"  {'ops_failed_frac':<28} {outcome.failed / max(1, outcome.attempted):>14.6g} "
          f"ratio ({outcome.failed} of {outcome.attempted} ops)")
    for error in outcome.errors:
        print(f"  FAILED: {error}")
    print(json.dumps({
        "correct": not outcome.failed,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }))
    return 0 if not outcome.failed else 1


if __name__ == "__main__":
    sys.exit(main())
