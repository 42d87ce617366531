"""Acceptance gate: ten protocol-level checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict
lines; every check also asserts, so the suite fails loudly when a
property breaks. Model-quality checks run on synthetic data at desk
scale with seeded randomness.
"""

import time

import numpy as np

from demandcast import arima, bench, dataset, mlp
from demandcast.arima import ArimaSpec
from demandcast.bench import ExperimentConfig, emit_report, run_experiment
from demandcast.efunn import EfunnConfig, EfunnModel
from demandcast.fuzzy import build_partition, defuzzify, fuzzify, fuzzy_difference


def verdict(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {label}: {status} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for k in range(20):
        layers = (int(rng.integers(1, 7)), int(rng.integers(2, 11)),
                  int(rng.integers(2, 11)), 1)
        model = mlp.init_mlp(layers, seed=k)
        X = rng.normal(size=(5, layers[0]))
        y = rng.normal(size=(5, 1))
        batch = mlp.Batch(model, (X, y))
        mlp.gradient(model, batch)
        g = batch.grad  # in the order of model.params
        w0 = model.params.copy()
        fd = np.empty_like(w0)
        h = 1e-6
        for i in range(w0.size):
            up = w0.copy()
            up[i] += h
            np.copyto(model.params, up)
            _, _, e_up = mlp.gradient(model, (X, y))
            dn = w0.copy()
            dn[i] -= h
            np.copyto(model.params, dn)
            _, _, e_dn = mlp.gradient(model, (X, y))
            fd[i] = (e_up - e_dn) / (2.0 * h)
        rel = float(np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-300))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    verdict(1, "gradient oracle", worst < 1e-6 and elapsed < 10.0,
            f"max rel err {worst:.3g} over 20 nets in {elapsed:.1f}s")


def test_criterion_02_scg_quadratic_and_curvature_probe():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(20, 20))
    A = A @ A.T + 20.0 * np.eye(20)
    b = rng.normal(size=20)

    def quad(w):
        return 0.5 * w @ A @ w - b @ w, A @ w - b

    res = mlp.scg_minimize(quad, np.zeros(20), iterations=100, grad_tol=1e-8)
    quad_ok = res.iterations <= 20 and res.grad_norm < 1e-8

    # the finite-difference curvature estimate is first order in sigma,
    # so halving sigma should roughly halve the error
    ratios = []
    for net_seed in range(3):
        model = mlp.init_mlp((4, 6, 1), seed=net_seed)
        data_rng = np.random.default_rng(100 + net_seed)
        X = data_rng.normal(size=(8, 4))
        y = data_rng.normal(size=(8, 1))
        batch = mlp.Batch(model, (X, y))

        def fun_grad(vec):
            np.copyto(model.params, vec)
            e_value = mlp.gradient(model, batch)[2]
            return e_value, batch.grad.copy()

        w0 = model.params.copy()
        p = data_rng.normal(size=w0.size)
        p /= np.linalg.norm(p)
        eps = 1e-7
        _, gp = fun_grad(w0 + eps * p)
        _, gm = fun_grad(w0 - eps * p)
        reference = (gp - gm) / (2.0 * eps)
        errors = []
        for sigma in (1e-1, 5e-2, 2.5e-2, 1.25e-2):
            est = mlp.hessian_vector_estimate(fun_grad, w0, p, sigma)
            errors.append(float(np.linalg.norm(est - reference)))
        ratios += [errors[i + 1] / errors[i] for i in range(3)]
    halving_ok = all(0.35 <= r <= 0.65 for r in ratios)
    verdict(2, "scg finite termination and curvature probe",
            quad_ok and halving_ok,
            f"quadratic grad {res.grad_norm:.2g} in {res.iterations} iters; "
            f"halving ratios {[round(r, 3) for r in ratios]}")


def test_criterion_03_one_pass_desk_run():
    t0 = time.perf_counter()
    config = ExperimentConfig(synth_days=90, seed=0, models=("efunn",))
    report = run_experiment(config)
    elapsed = time.perf_counter() - t0
    one_pass = all(o.epochs == 1 for o in report.outcomes)
    rmse_ok = all(o.train_rmse <= 0.05 for o in report.outcomes)
    growth_ok = all(o.nodes < report.training_examples
                    for o in report.outcomes)
    verdict(3, "one-pass desk run", one_pass and rmse_ok and growth_ok
            and elapsed < 60.0,
            f"train rmse {[round(o.train_rmse, 4) for o in report.outcomes]}, "
            f"nodes {[o.nodes for o in report.outcomes]} of "
            f"{report.training_examples} examples, {elapsed:.1f}s")


def test_criterion_04_scg_converges_faster_than_bp():
    records = dataset.synthesize(90, 0)
    test_start = len(records) - 96
    raw = dataset.encode_features(records, 48, test_start)
    x, y = dataset.apply_norm(raw, dataset.fit_norm(raw))
    idx = dataset.sample_training(y, 0.2, seed=0, n_samples=1)[0]
    X, y = x[idx], y[idx]
    wins = 0
    finals = []
    for seed in range(3):
        bp_model = mlp.init_mlp((6, 10, 10, 1), seed)
        scg_model = mlp.init_mlp((6, 10, 10, 1), seed)
        mlp.bp_train(bp_model, (X, y), mlp.BpConfig(epochs=500))
        mlp.scg_train(scg_model, (X, y), 500)
        bp_rmse = mlp.rmse(mlp.forward(bp_model, X), y)
        scg_rmse = mlp.rmse(mlp.forward(scg_model, X), y)
        finals.append((round(bp_rmse, 4), round(scg_rmse, 4)))
        wins += scg_rmse <= bp_rmse
    verdict(4, "scg vs bp convergence ordering", wins >= 2,
            f"scg wins {wins}/3, (bp, scg) finals {finals}")


def test_criterion_05_arima_parameter_recovery():
    timings = []

    def timed_fit(series, spec):
        t0 = time.perf_counter()
        fitted = arima.fit(series, spec)
        timings.append(time.perf_counter() - t0)
        return fitted

    rng = np.random.default_rng(42)
    n = 2000
    y = np.zeros(n)
    e = rng.normal(size=n)
    for t in range(1, n):
        y[t] = 0.7 * y[t - 1] + e[t]
    ar_hat = timed_fit(y, ArimaSpec(p=1)).ar[0]

    rng = np.random.default_rng(11)
    e = rng.normal(size=2000)
    ma_hat = timed_fit(e[1:] + 0.5 * e[:-1], ArimaSpec(q=1)).ma[0]

    rng = np.random.default_rng(5)
    n = 5000
    y = np.zeros(n)
    e = rng.normal(size=n)
    for t in range(48, n):
        y[t] = 0.5 * y[t - 48] + e[t]
    sar_hat = timed_fit(y, ArimaSpec(sp=1, season=48)).seasonal_ar[0]

    ok = (abs(ar_hat - 0.7) <= 0.05 and abs(ma_hat - 0.5) <= 0.07
          and abs(sar_hat - 0.5) <= 0.1 and max(timings) < 30.0)
    verdict(5, "arima recovery oracle", ok,
            f"phi {ar_hat:.3f}, theta {ma_hat:.3f}, seasonal {sar_hat:.3f}, "
            f"slowest fit {max(timings):.1f}s")


def test_criterion_06_fuzzy_metric_and_reconstruction():
    rng = np.random.default_rng(23)
    metric_ok = True
    for _ in range(1000):
        a = rng.uniform(0.0, 1.0, size=8) + 1e-12
        b = rng.uniform(0.0, 1.0, size=8) + 1e-12
        d = fuzzy_difference(a, b)
        metric_ok &= 0.0 <= d <= 1.0
        metric_ok &= fuzzy_difference(a, a) == 0.0
        metric_ok &= fuzzy_difference(b, a) == d
    partition = build_partition(0.0, 1.0, 4)
    grid = np.linspace(0.05, 0.95, 19)
    worst = max(abs(defuzzify(fuzzify(x, partition), partition) - x)
                for x in grid)
    verdict(6, "fuzzy metric suite", metric_ok and worst < 0.06,
            f"1000 random pairs clean, reconstruction err {worst:.4f}")


def test_criterion_07_efunn_structural_suite():
    inputs = [build_partition(0.0, 1.0, 4, name=f"x{i}") for i in range(3)]
    output = build_partition(0.0, 1.0, 4, name="y")
    rng = np.random.default_rng(9)
    data = [(rng.uniform(size=3), float(rng.uniform())) for _ in range(150)]

    counts = []
    for sthr in (0.7, 0.9, 0.99):
        model = EfunnModel(EfunnConfig(sthr=sthr, errthr=0.5), inputs, output)
        for x, y in data:
            model.learn_one(x, y)
        counts.append(model.n_nodes)
    monotone = counts == sorted(counts)

    merged_model = EfunnModel(EfunnConfig(), inputs[:1], output)
    w1a = fuzzify(0.30, inputs[0])
    w1b = fuzzify(0.34, inputs[0])
    w2a = fuzzify(0.50, output)
    w2b = fuzzify(0.54, output)
    merged_model.create_rule_node(w1a, w2a)
    merged_model.create_rule_node(w1b, w2b)
    before = merged_model.n_nodes
    merged_model.aggregate(0.3, 0.3)
    agg_ok = (merged_model.n_nodes <= before
              and np.array_equal(merged_model.w1[0], (w1a + w1b) / 2.0)
              and np.array_equal(merged_model.w2[0], (w2a + w2b) / 2.0))

    trained = EfunnModel(EfunnConfig(errthr=0.05), inputs, output)
    for x, y in data[:60]:
        trained.learn_one(x, y)
    rebuilt = EfunnModel(EfunnConfig(errthr=0.05), inputs, output)
    for rule in trained.extract_rules():
        rebuilt.insert_rule(rule)
    xs = np.array([[defuzzify(rule.w1[4 * i: 4 * i + 4], inputs[i])
                    for i in range(3)] for rule in trained.extract_rules()])
    worst_gap = float(np.abs(trained.predict(xs) - rebuilt.predict(xs)).max())
    round_trip_ok = worst_gap <= 1e-12

    verdict(7, "efunn structural suite",
            monotone and agg_ok and round_trip_ok,
            f"node counts {counts} over sthr 0.7/0.9/0.99, merge exact, "
            f"round-trip gap {worst_gap:.2g}")


def test_criterion_08_difference_round_trip():
    rng = np.random.default_rng(31)
    lags = (1, 2, 7, 48, 336)
    worst = 0.0
    for case in range(100):
        lag = lags[case % len(lags)]
        n = lag + int(rng.integers(20, 120))
        y = rng.normal(scale=100.0, size=n) + 4000.0
        z = arima.difference(y, lag)
        back = arima.undifference(z, y[:lag], lag)
        worst = max(worst, float(np.max(np.abs(back - y[lag:]))))
    verdict(8, "difference round trip", worst < 1e-9,
            f"100 series, lags up to 336, max err {worst:.2g}")


def test_criterion_09_benchmark_determinism(tmp_path):
    config = ExperimentConfig(synth_days=40, seed=1, epochs=5, n_samples=2)
    paths_a = emit_report(run_experiment(config), tmp_path / "a")
    paths_b = emit_report(run_experiment(config), tmp_path / "b")
    same = all(pa.read_bytes() == pb.read_bytes()
               for pa, pb in zip(paths_a[:2], paths_b[:2]))
    verdict(9, "benchmark determinism", same,
            "report.csv and forecast.csv byte-identical across reruns; "
            "test-window isolation asserted in both runs")


def test_criterion_10_one_pass_flop_budget():
    config = ExperimentConfig(synth_days=90, seed=0, epochs=2500,
                              n_samples=1, models=("efunn", "mlp-scg"))
    report = run_experiment(config)
    efunn_flops = report.worst["efunn"].flops
    scg_flops = report.worst["mlp-scg"].flops
    ratio = efunn_flops / scg_flops
    verdict(10, "one-pass flop budget", ratio < 0.10,
            f"efunn {efunn_flops:.3g} vs scg-2500 {scg_flops:.3g} flops, "
            f"ratio {ratio:.2%}")
