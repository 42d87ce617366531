"""Run the full comparison protocol at desk scale and read the report.

Four forecasters, several random training samples, one shared 96-period
holdout at the end of the series. Scores are reported as the worst
test error over the samples, so a model only looks good if it is good
on every draw.
"""

import tempfile
from pathlib import Path

from demandcast.bench import (HOLDOUT_PERIODS, ExperimentConfig, emit_report,
                              run_experiment)


def main():
    config = ExperimentConfig(
        synth_days=45,
        seed=0,
        epochs=60,       # desk scale; raise for a serious comparison
        n_samples=3,
        training_fraction=0.2,
    )
    print("protocol: 45 synthetic days, three 20% training samples,")
    print(f"mlp trainers capped at {config.epochs} epochs, efunn one "
          "pass, arima fitted once on the contiguous series\n")

    report = run_experiment(config)

    print(f"training examples per sample: {report.training_examples}")
    print(f"holdout: {HOLDOUT_PERIODS} half hours starting at row "
          f"{report.test_start}\n")

    print("worst-of-samples scores (normalized rmse):")
    print("model      epochs   train     test      flops")
    for name in config.models:
        o = report.worst[name]
        train = "-" if o.train_rmse is None else f"{o.train_rmse:.4f}"
        print(f"{name:<9s}  {o.epochs:5d}   {train:>6s}   "
              f"{o.test_rmse:.4f}   {o.flops:.3g}")

    efunn = report.worst["efunn"]
    scg = report.worst["mlp-scg"]
    print(f"\nefunn builds {efunn.nodes} rule nodes in its single pass "
          f"and spends\n{efunn.flops / scg.flops:.2%} of the scg "
          "training budget at this epoch cap.")

    with tempfile.TemporaryDirectory() as tmp:
        paths = emit_report(report, Path(tmp) / "bench")
        print("\nreport files:")
        for p in paths:
            print(f"  {p.name:<16s} {p.stat().st_size:6d} bytes")
        head = paths[0].read_text().splitlines()
        print("\nreport.csv opens with the protocol description:")
        for line in head[:4]:
            print(f"  {line}")


if __name__ == "__main__":
    main()
