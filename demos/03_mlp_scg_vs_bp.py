"""Backprop with momentum against scaled conjugate gradients.

Both trainers start from the same initial weights on the same demand
sample, so the error traces are directly comparable. The conjugate
trainer needs no learning rate and its trace never goes up.
"""

from demandcast import dataset, mlp
from demandcast.flops import FlopCounter


def training_sample(days: int, seed: int, fraction: float):
    # short window, so start it where the season feature changes value
    records = dataset.synthesize(days, seed,
                                 dataset.SynthConfig(start="1995-02-15"))
    raw = dataset.encode_features(records, 48, len(records) - 96)
    x, y = dataset.apply_norm(raw, dataset.fit_norm(raw))
    idx = dataset.sample_training(y, fraction, seed=seed, n_samples=1)[0]
    return x[idx], y[idx]


def main():
    X, y = training_sample(30, seed=2, fraction=0.2)
    print(f"training sample: {len(X)} examples, 6 features each\n")

    epochs = 400
    layers = (6, 10, 10, 1)

    bp_model = mlp.init_mlp(layers, seed=0)
    bp_counter = FlopCounter()
    bp_trace = mlp.bp_train(
        bp_model, (X, y),
        mlp.BpConfig(epochs=epochs, epsilon=0.01, alpha=0.9),
        counter=bp_counter,
    )

    scg_model = mlp.init_mlp(layers, seed=0)  # identical start
    scg_counter = FlopCounter()
    scg_trace = mlp.scg_train(scg_model, (X, y), epochs,
                              counter=scg_counter)

    print("epoch      bp rmse    scg rmse")
    for k in (0, 9, 49, 99, 199, 399):
        print(f"{k + 1:5d}    {bp_trace[k]:.5f}    {scg_trace[k]:.5f}")

    bp_final = mlp.rmse(mlp.forward(bp_model, X), y)
    scg_final = mlp.rmse(mlp.forward(scg_model, X), y)
    print(f"\nfinal training rmse: bp {bp_final:.5f}, scg {scg_final:.5f}")
    print(f"flops spent: bp {bp_counter.total:.3g}, "
          f"scg {scg_counter.total:.3g}")
    print("scg pays roughly one extra gradient per epoch for its line "
          "search,\nyet reaches a lower error on the same budget of "
          f"{epochs} epochs.")

    rises = sum(1 for a, b in zip(scg_trace, scg_trace[1:]) if b > a + 1e-15)
    print(f"\nscg trace increases: {rises} (the trainer rejects any step "
          "that would raise the error)")

    bad = mlp.init_mlp(layers, seed=0)
    try:
        mlp.bp_train(bad, (X, y), mlp.BpConfig(epochs=50, epsilon=50.0))
    except mlp.DivergenceError as exc:
        print(f"\nan oversized learning rate fails loudly:\n  {exc}")


if __name__ == "__main__":
    main()
