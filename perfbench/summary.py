"""Every benchmark number in one table: both workloads, untraced and traced.

    python3 perfbench/summary.py [--seed 0]

Runs ``run.py`` once per workload with tracing off, for the
``run_seconds`` that BENCHMARK.json declares, and once with tracing on
(the traced run covers both workloads), then prints:

- the end-to-end metrics of each workload with their units, the
  failed-operation share, and the per-command wall and host-adjusted
  seconds behind ``experiment_s``;
- the protocol's accuracy (worst test RMSE per model) and flop counts;
- the per-layer metrics, the tracing overhead (traced minus untraced
  time of the same operation) and the isolation shares.

Takes about four minutes at full size on a 2-core machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload, seed, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True,
                          check=True)
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def show(metrics):
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    untraced = {}
    for workload in ("protocol", "cli"):
        info, result = run(workload, args.seed, 0)
        detail = info["info"][-1]
        untraced[workload] = detail
        share = result["failed"] / result["attempted"]
        print(f"{workload}: {result['attempted']} operations, failed share "
              f"{share:.3f}, correct {result['correct']}")
        show(result["metrics"])
        for name, values in detail["wall_s"].items():
            adjusted = statistics.median(detail["adjusted_s"][name])
            print(f"  wall {name:35s} {statistics.median(values):>16.6g} s"
                  f"  (median of {len(values)}; host-adjusted {adjusted:.6g} s)")
        if workload == "protocol":
            for model, value in detail["rmse"].items():
                print(f"  rmse.{model:35s} {value:>16.6g} nrmse")
            for model, value in detail["flops"].items():
                print(f"  flops.{model:34s} {value:>16d} flops")
        for line in info["failures"]:
            print(f"  FAILED {line}")

    info, result = run("protocol", args.seed, 1)
    metrics = result["metrics"]
    print(f"traced run: correct {result['correct']}, {result['attempted']} "
          "operations")
    show(metrics)
    pairs = (("protocol", "experiment", "protocol.trace.experiment_s"),
             ("cli", "train.efunn", "cli.trace.train.efunn_s"))
    for workload, op, traced in pairs:
        plain = statistics.median(untraced[workload]["wall_s"][op])
        extra = metrics[traced]["value"] - plain
        print(f"tracing overhead on {workload} {op}: traced "
              f"{metrics[traced]['value']:.3f} s vs untraced {plain:.3f} s "
              f"wall ({extra / plain:+.1%})")


if __name__ == "__main__":
    main()
