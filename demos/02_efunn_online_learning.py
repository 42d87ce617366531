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
    # start near a season boundary so all six features vary in a short run
    records = dataset.synthesize(days, seed,
                                 dataset.SynthConfig(start="1995-02-22"))
    raw = [dataset.encode_features(records, i)
           for i in range(48, len(records))]
    stats = dataset.fit_norm(raw)
    return [dataset.apply_norm(v, stats) for v in raw]


def main():
    pool = build_pool(14, seed=4)
    inputs = [build_partition(0.0, 1.0, 4, name=n) for n in FEATURES]
    output = build_partition(0.0, 1.0, 4, name="demand")

    model = EfunnModel(EfunnConfig(), inputs, output)
    print(f"streaming {len(pool)} half-hourly examples, one pass:")
    created = 0
    for i, vec in enumerate(pool):
        outcome = model.learn_one(vec.x, vec.y)
        created += outcome.created_node
        if (i + 1) % 96 == 0:
            print(f"  after {i + 1:4d} examples: {model.n_nodes:4d} rule "
                  f"nodes ({created} created so far)")

    xs = np.stack([v.x for v in pool])
    preds = model.predict_batch(xs)
    targets = np.array([v.y for v in pool])
    print(f"\none-pass training rmse (normalized): "
          f"{rmse(preds, targets):.4f}")
    print(f"rule nodes: {model.n_nodes} for {len(pool)} examples")

    print("\nfirst three rules, in linguistic form:")
    for rule in model.extract_rules()[:3]:
        print(f"  {rule.text()}")

    # a fresh model rebuilt from the extracted rules predicts identically
    rebuilt = EfunnModel(EfunnConfig(), inputs, output)
    for rule in model.extract_rules():
        rebuilt.insert_rule(rule)
    gap = max(abs(model.predict(v.x) - rebuilt.predict(v.x))
              for v in pool[:50])
    print(f"\nrebuilt-from-rules model max prediction gap: {gap:.2e}")

    loose = EfunnModel(EfunnConfig(sthr=0.90, errthr=0.10), inputs, output)
    for vec in pool:
        loose.learn_one(vec.x, vec.y)
    loose_preds = loose.predict_batch(xs)
    print(f"\nrelaxing sthr to 0.90 and errthr to 0.10 trades size for "
          f"error:\n  {loose.n_nodes} nodes, "
          f"rmse {rmse(loose_preds, targets):.4f}")


if __name__ == "__main__":
    main()
