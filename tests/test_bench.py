import numpy as np
import pytest

from demandcast import dataset
from demandcast.bench import (HOLDOUT_PERIODS, ExperimentConfig, emit_report,
                              recursive_forecast, run_experiment, train_model,
                              training_pool)
from demandcast.errors import ConfigError, DataError
from demandcast.flops import FlopCounter


def small_config(**kwargs):
    defaults = dict(synth_days=40, seed=1, epochs=8, n_samples=2,
                    models=("efunn", "mlp-bp", "mlp-scg", "arima"))
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(small_config())


def test_flop_counter_primitives():
    c = FlopCounter()
    c.add_mac(10)
    assert c.total == 20  # multiply plus add per element
    c.add_gemm(2, 3, 4)
    assert c.total == 20 + 2 * 2 * 3 * 4
    c.add_transcendental(5)
    assert c.total == 20 + 48 + 50
    c.add_mac(7)
    assert c.total == 20 + 48 + 50 + 14
    c.add(1)
    assert c.total == 133


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(training_fraction=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(n_samples=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(models=("efunn", "svm"))
    with pytest.raises(ConfigError):
        ExperimentConfig(models=())
    with pytest.raises(ConfigError, match="bp_epsilon must be finite"):
        ExperimentConfig(bp_epsilon=float("nan"))


def test_run_experiment_needs_enough_records():
    # test window, one day of lookback and one training example: 145
    with pytest.raises(DataError, match="^3-day synthetic series: need at "
                                        "least 145 records, got 144$"):
        run_experiment(ExperimentConfig(synth_days=3, seed=0))


def test_outcome_matrix_and_sampling_scale(small_report):
    rep = small_report
    assert len(rep.outcomes) == 4 * 2
    # 40 days minus the test window and lookback, sampled at 20%
    assert rep.training_examples == round(0.2 * (40 * 48 - 96 - 48))
    for name in ("efunn", "mlp-bp", "mlp-scg", "arima"):
        rows = [o for o in rep.outcomes if o.model == name]
        assert [o.sample for o in rows] == [0, 1]


def test_worst_case_selection_is_max_test_rmse(small_report):
    for name, w in small_report.worst.items():
        rows = [o for o in small_report.outcomes if o.model == name]
        assert w.test_rmse == max(o.test_rmse for o in rows)


def test_efunn_trains_one_pass_and_grows_fewer_nodes_than_examples(small_report):
    for o in small_report.outcomes:
        if o.model == "efunn":
            assert o.epochs == 1
            assert o.nodes is not None
            assert o.nodes < small_report.training_examples
            assert o.train_rmse is not None


def test_arima_row_has_no_train_rmse(small_report):
    for o in small_report.outcomes:
        if o.model == "arima":
            assert o.train_rmse is None
            assert o.epochs >= 1  # estimation iterations


def test_sampling_never_touches_the_test_window(small_report):
    rep = small_report
    cfg = rep.config
    pool_size = rep.test_start - dataset.HALF_HOURS_PER_DAY
    samples = dataset.sample_training(
        list(range(pool_size)), cfg.training_fraction, cfg.seed, cfg.n_samples
    )
    for idx in samples:
        assert idx.max() + dataset.HALF_HOURS_PER_DAY < rep.test_start


def test_predictions_cover_the_test_window(small_report):
    rep = small_report
    assert rep.actuals.shape == (96,)
    assert len(rep.timestamps) == 96
    for w in rep.worst.values():
        assert w.predictions.shape == (96,)
        assert np.all(np.isfinite(w.predictions))


def test_report_files_structure(small_report, tmp_path):
    paths = emit_report(small_report, tmp_path / "out")
    names = [p.name for p in paths]
    assert names == ["report.csv", "forecast.csv", "convergence.csv",
                     "forecast.svg"]

    report_lines = paths[0].read_text().splitlines()
    comments = [l for l in report_lines if l.startswith("#")]
    data = [l for l in report_lines if not l.startswith("#")]
    assert len(comments) >= 3
    header = data[0].split(",")
    assert header[:5] == ["model", "learning_epochs", "train_rmse",
                          "test_rmse", "flops"]
    assert len(data) == 1 + 4  # header plus one row per model
    rows = {l.split(",")[0]: l.split(",") for l in data[1:]}
    assert rows["efunn"][1] == "1"
    assert rows["arima"][2] == "-"
    assert rows["mlp-bp"][1] == "8"
    # wall-clock numbers stay out of the deterministic reports
    assert not any("wall" in l for l in report_lines)

    forecast_lines = paths[1].read_text().splitlines()
    assert len(forecast_lines) == 97
    assert forecast_lines[0] == ("period,timestamp,actual_mwh,efunn_mwh,"
                                 "mlp_bp_mwh,mlp_scg_mwh,arima_mwh")
    first = forecast_lines[1].split(",")
    assert first[0] == "1"

    conv_lines = paths[2].read_text().splitlines()
    assert conv_lines[0] == "trainer,epoch,rmse"
    trainers = {l.split(",")[0] for l in conv_lines[1:]}
    assert trainers == {"mlp-bp", "mlp-scg"}
    assert len(conv_lines) == 1 + 2 * 8
    assert conv_lines[1].split(",")[1] == "1"  # epochs are 1-based

    svg = paths[3].read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 5  # actual plus four models


def test_model_subset_restricts_outputs(tmp_path):
    rep = run_experiment(small_config(models=("efunn", "arima"), n_samples=1))
    assert {o.model for o in rep.outcomes} == {"efunn", "arima"}
    paths = emit_report(rep, tmp_path)
    forecast_header = paths[1].read_text().splitlines()[0]
    assert forecast_header == "period,timestamp,actual_mwh,efunn_mwh,arima_mwh"
    conv_lines = paths[2].read_text().splitlines()
    assert conv_lines == ["trainer,epoch,rmse"]


def test_identical_seeds_reproduce_reports_byte_for_byte(tmp_path):
    cfg = small_config(epochs=5, n_samples=2)
    a = emit_report(run_experiment(cfg), tmp_path / "a")
    b = emit_report(run_experiment(cfg), tmp_path / "b")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_csv_input_matches_synthetic_route(tmp_path):
    records = dataset.synthesize(40, seed=1)
    csv_path = tmp_path / "demand.csv"
    dataset.write_csv(records, csv_path)
    direct = run_experiment(small_config(models=("efunn",), n_samples=1))
    via_csv = run_experiment(small_config(models=("efunn",), n_samples=1,
                                          csv_path=str(csv_path)))
    assert direct.worst["efunn"].test_rmse == via_csv.worst["efunn"].test_rmse


def _a_half_hour_at_a_time(records, stats, predict, test_start):
    """The test-window recursion one row per ``predict`` call."""
    norm, demand = [], []
    for k in range(HOLDOUT_PERIODS):
        prev = [demand[k - 48]] if k >= 48 else None
        raw = dataset.encode_features(records, test_start + k,
                                      test_start + k + 1, prev)
        norm.append(predict(dataset.apply_norm(raw, stats)[0])[0])
        demand.append(float(dataset.denorm_target(norm[-1], stats)))
    return np.array(norm), np.array(demand)


@pytest.fixture(scope="module")
def fitted():
    """Records, pool stats and an EFuNN and an MLP fitted on the pool
    before the test window."""
    records = dataset.synthesize(40, seed=1)
    x, y, stats = training_pool(records, len(records) - HOLDOUT_PERIODS)
    config = small_config(epochs=50)
    return records, stats, {
        name: train_model(name, config, x[::4], y[::4], seed=2).predict
        for name in ("efunn", "mlp-scg")}


@pytest.mark.parametrize("name", ["efunn", "mlp-scg"])
def test_day_blocks_forecast_as_a_half_hour_at_a_time(fitted, name):
    records, stats, models = fitted
    test_start = len(records) - HOLDOUT_PERIODS
    calls = []

    def predict(x):
        calls.append(len(x))
        return models[name](x)

    norm, demand = recursive_forecast(records, stats, predict, test_start)
    assert calls == [48, 48]  # one call per day of the window
    want_norm, want_demand = _a_half_hour_at_a_time(
        records, stats, models[name], test_start)
    if name == "efunn":
        assert norm.tobytes() == want_norm.tobytes()
        assert demand.tobytes() == want_demand.tobytes()
    else:  # a gemm over 48 rows rounds unlike one-row products
        assert np.abs(norm - want_norm).max() <= 1e-15
    assert demand.tobytes() == dataset.denorm_target(norm, stats).tobytes()
