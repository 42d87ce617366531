"""One pass over a demand stream: watch the rule base evolve.

The network sees every example exactly once. Nodes appear when an
example is spatially or functionally new, drift toward examples they
absorb, and never require a second epoch.
"""

import numpy as np

from demandcast import dataset
from demandcast.efunn import EfunnConfig, EfunnModel
from demandcast.fuzzy import build_partition
from demandcast.mlp import rmse

FEATURES = ("tmin", "tmax", "prev_day_demand", "half_hour", "season",
            "weekday")


def build_pool(days: int, seed: int):
    """Normalized inputs (one row per example) and targets."""
    # start near a season boundary so all six features vary in a short run
    records = dataset.synthesize(days, seed,
                                 dataset.SynthConfig(start="1995-02-22"))
    raw = dataset.encode_features(records, 48, len(records))
    return dataset.apply_norm(raw, dataset.fit_norm(raw))


def main():
    xs, targets = build_pool(14, seed=4)
    inputs = [build_partition(0.0, 1.0, 4, name=n) for n in FEATURES]
    output = build_partition(0.0, 1.0, 4, name="demand")

    model = EfunnModel(EfunnConfig(), inputs, output)
    print(f"streaming {len(xs)} half-hourly examples, one pass:")
    created = 0
    for i, (x, y) in enumerate(zip(xs, targets)):
        outcome = model.learn_one(x, y)
        created += outcome.created_node
        if (i + 1) % 96 == 0:
            print(f"  after {i + 1:4d} examples: {model.n_nodes:4d} rule "
                  f"nodes ({created} created so far)")

    preds = model.predict(xs)
    print(f"\none-pass training rmse (normalized): "
          f"{rmse(preds, targets):.4f}")
    print(f"rule nodes: {model.n_nodes} for {len(xs)} examples")

    print("\nfirst three rules, in linguistic form:")
    for rule in model.extract_rules()[:3]:
        print(f"  {rule.text()}")

    # a fresh model rebuilt from the extracted rules predicts identically
    rebuilt = EfunnModel(EfunnConfig(), inputs, output)
    for rule in model.extract_rules():
        rebuilt.insert_rule(rule)
    gap = np.abs(model.predict(xs[:50]) - rebuilt.predict(xs[:50])).max()
    print(f"\nrebuilt-from-rules model max prediction gap: {gap:.2e}")

    loose = EfunnModel(EfunnConfig(sthr=0.90, errthr=0.10), inputs, output)
    for x, y in zip(xs, targets):
        loose.learn_one(x, y)
    loose_preds = loose.predict(xs)
    print(f"\nrelaxing sthr to 0.90 and errthr to 0.10 trades size for "
          f"error:\n  {loose.n_nodes} nodes, "
          f"rmse {rmse(loose_preds, targets):.4f}")


if __name__ == "__main__":
    main()
