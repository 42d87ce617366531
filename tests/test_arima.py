import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandcast import arima
from demandcast.arima import (ArimaFit, ArimaSpec, ForecastAnchors, acf,
                              _chi2_sf, diagnostics, difference, fit,
                              forecast, undifference)
from demandcast.errors import (ConfigError, ConvergenceError, DataError,
                               DegenerateError, ParseError)


def simulate_ar1(phi, n, seed, c=0.0):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=n)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = c + phi * y[t - 1] + e[t]
    return y


def test_spec_counts_and_labels():
    spec = ArimaSpec(p=1, d=1, q=1, sp=1, sd=0, sq=1, season=48,
                     pre_diff_lag=336)
    assert spec.n_coeffs == 4
    assert spec.label() == "(1,1,1)(1,0,1)[48]+prediff336"
    assert not spec.estimates_intercept
    assert ArimaSpec(p=2).estimates_intercept


def test_spec_validation():
    with pytest.raises(ConfigError):
        ArimaSpec(p=-1)
    with pytest.raises(ConfigError):
        ArimaSpec(sp=1)  # seasonal order without a season
    with pytest.raises(ConfigError):
        ArimaSpec(season=0)


def test_difference_oracle():
    assert difference([5, 7, 4, 9], 2).tolist() == [-1.0, 2.0]
    assert difference(difference([5, 7, 4, 9], 1), 1).tolist() == [-5.0, 8.0]


def test_difference_errors():
    with pytest.raises(ConfigError):
        difference([1, 2, 3], 0)
    with pytest.raises(DataError):
        difference([1, 2, 3], 3)


def test_undifference_oracle():
    out = undifference([-1.0, 2.0], [5.0, 7.0], 2)
    assert out.tolist() == [4.0, 9.0]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 400), st.integers(1, 60), st.data())
def test_difference_undifference_exact_inverse(lag, extra, data):
    # values on a common binary grid, as demand in whole MWh is, make
    # every difference and sum exact; criterion 08 bounds the rounding
    # of arbitrary doubles
    grid = st.integers(-2**40, 2**40).map(lambda k: k / 1024.0)
    y = np.array(data.draw(st.lists(grid, min_size=lag + extra,
                                    max_size=lag + extra)))
    back = undifference(difference(y, lag), y[:lag], lag)
    assert np.concatenate((y[:lag], back)).tobytes() == y.tobytes()


def test_acf_alternating_series_oracle():
    n = 100
    y = np.tile([1.0, -1.0], n // 2)
    r = acf(y, 2)
    assert r[0] == 1.0
    assert r[1] == pytest.approx(-(n - 1) / n)
    assert r[2] == pytest.approx((n - 2) / n)


def test_acf_errors():
    with pytest.raises(DataError):
        acf([1.0, 2.0], 5)
    with pytest.raises(DegenerateError):
        acf(np.ones(50), 3)


def test_fit_recovers_ar1_coefficient():
    y = simulate_ar1(0.7, 2000, seed=42)
    f = fit(y, ArimaSpec(p=1))
    assert f.ar[0] == pytest.approx(0.7, abs=0.05)
    assert f.iterations >= 1
    assert f.sigma2 == pytest.approx(1.0, abs=0.15)
    assert not f.near_unit_root


def test_fit_recovers_ma1_coefficient():
    rng = np.random.default_rng(11)
    e = rng.normal(size=2000)
    y = e[1:] + 0.5 * e[:-1]
    f = fit(y, ArimaSpec(q=1))
    assert f.ma[0] == pytest.approx(0.5, abs=0.07)


def test_fit_recovers_seasonal_ar_coefficient():
    rng = np.random.default_rng(5)
    n = 3000
    y = np.zeros(n)
    e = rng.normal(size=n)
    for t in range(4, n):
        y[t] = 0.5 * y[t - 4] + e[t]
    f = fit(y, ArimaSpec(sp=1, season=4))
    assert f.seasonal_ar[0] == pytest.approx(0.5, abs=0.1)


def test_fit_recovers_intercept_of_stationary_model():
    y = simulate_ar1(0.5, 4000, seed=9, c=2.0)
    f = fit(y, ArimaSpec(p=1))
    assert f.intercept == pytest.approx(2.0, abs=0.2)
    assert f.ar[0] == pytest.approx(0.5, abs=0.05)


def test_fit_pins_intercept_under_differencing():
    rng = np.random.default_rng(3)
    y = np.cumsum(rng.normal(0.5, 1.0, size=500))  # drifting walk
    f = fit(y, ArimaSpec(d=1))
    assert f.intercept == 0.0
    # differencing factors are exact by construction and never flagged
    assert not f.near_unit_root


def test_near_unit_root_flags_estimated_coefficients():
    # an AR(1) fit to a deterministic trend drives phi to 1
    t = np.arange(200.0)
    f = fit(t + 0.05 * np.sin(t), ArimaSpec(p=1))
    assert f.ar[0] == pytest.approx(1.0, abs=1e-3)
    assert f.near_unit_root


def test_random_walk_forecast_is_flat_at_last_value():
    rng = np.random.default_rng(0)
    y = np.concatenate([[3.0, 4.0, 6.0], rng.normal(5.0, 1.0, 60)])
    f = fit(y, ArimaSpec(d=1))
    fc = forecast(f, 4)
    assert np.allclose(fc, y[-1])


def test_double_difference_continues_a_ramp_exactly():
    y = np.arange(1.0, 51.0)
    f = fit(y, ArimaSpec(d=2))
    assert np.allclose(forecast(f, 3), [51.0, 52.0, 53.0], atol=1e-9)


def test_ar1_forecast_decays_geometrically():
    spec = ArimaSpec(p=1)
    f = ArimaFit(
        spec=spec, intercept=0.0, ar=np.array([0.8]), ma=np.empty(0),
        seasonal_ar=np.empty(0), seasonal_ma=np.empty(0),
        residuals=np.zeros(100), sigma2=1.0,
        training_tail=ForecastAnchors(stages=[], z_tail=np.array([2.0]),
                                      e_tail=np.empty(0)),
    )
    assert np.allclose(forecast(f, 3), [1.6, 1.28, 1.024])


def test_forecast_validates_horizon():
    f = fit(simulate_ar1(0.5, 300, seed=1), ArimaSpec(p=1))
    with pytest.raises(ConfigError):
        forecast(f, 0)


def test_fit_rejects_short_and_bad_series():
    with pytest.raises(DataError):
        fit(np.ones(5), ArimaSpec(p=1))
    with pytest.raises(DataError):
        fit(np.array([1.0, np.nan, 2.0] * 20), ArimaSpec(p=1))
    with pytest.raises(DataError):
        fit(np.ones((10, 2)), ArimaSpec())


def test_fit_names_the_length_its_spec_needs():
    # a seasonal AR reach of 48 needs 49 values to leave one innovation
    y = np.random.default_rng(0).normal(size=49)
    assert fit(y, ArimaSpec(sp=1, season=48)).residuals.size == 1
    with pytest.raises(DataError, match=re.escape(
            "(0,0,0)(1,0,0)[48] needs at least 49 observations "
            "(0 for differencing, then 49), got 48")):
        fit(y[:48], ArimaSpec(sp=1, season=48))
    # the weekly pre-difference and d=1 take 337 values first
    with pytest.raises(DataError, match=re.escape(
            "needs at least 387 observations (337 for differencing, then "
            "50), got 384")):
        fit(np.arange(384.0), ArimaSpec(p=1, d=1, q=1, sp=1, sq=1, season=48,
                                        pre_diff_lag=336))
    # an order no series covers is refused before its lags are listed
    with pytest.raises(DataError, match=re.escape(
            "(0,1000000000000,0) needs at least 1000000000010 observations")):
        fit(y, ArimaSpec(d=10**12))


def test_seasonal_model_with_prediff_runs_end_to_end():
    rng = np.random.default_rng(8)
    n = 1400
    t = np.arange(n)
    y = (100.0 + 0.01 * t + 10.0 * np.sin(2 * np.pi * t / 12)
         + rng.normal(0.0, 0.5, n))
    spec = ArimaSpec(p=1, d=1, q=1, season=12, sp=1, sq=1, pre_diff_lag=24)
    f = fit(y, spec)
    fc = forecast(f, 24)
    assert fc.shape == (24,)
    assert np.all(np.isfinite(fc))
    # forecasts should stay in the neighborhood of the signal
    assert np.all(np.abs(fc - y[-24:]) < 30.0)


def test_convergence_error_carries_last_params():
    err = ConvergenceError("no luck", last_params=np.array([1.0]))
    assert err.last_params is not None
    assert "no luck" in str(err)


def test_diagnostics_on_white_and_colored_residuals():
    y = simulate_ar1(0.6, 1500, seed=13)
    good = diagnostics(fit(y, ArimaSpec(p=1)))
    assert good.max_lag == 20
    assert good.p_value > 0.001
    assert abs(good.residual_mean) < 0.1
    # an undersized model leaves structure behind
    bad = diagnostics(fit(y, ArimaSpec()))
    assert bad.p_value < 1e-6
    assert bad.ljung_box > good.ljung_box


def test_chi2_tail_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    xs = np.concatenate(([0.0, 1e-9, 0.5, 1.0, 1.5],
                         np.linspace(0.0, 2000.0, 97)))
    for dof in range(1, 201):
        want = stats.chi2.sf(xs, dof)
        got = np.array([_chi2_sf(float(x), dof) for x in xs])
        normal = want >= 1e-300
        assert np.all(np.abs(got - want)[normal] <= 1e-12 * want[normal])
        assert np.all(got[~normal] < 1e-290)


def test_diagnostics_needs_enough_residuals():
    f = ArimaFit(
        spec=ArimaSpec(), intercept=0.0, ar=np.empty(0), ma=np.empty(0),
        seasonal_ar=np.empty(0), seasonal_ma=np.empty(0),
        residuals=np.ones(10), sigma2=1.0,
        training_tail=ForecastAnchors(),
    )
    with pytest.raises(DataError):
        diagnostics(f)


def test_snapshot_round_trip_preserves_forecasts(tmp_path):
    rng = np.random.default_rng(19)
    y = np.cumsum(rng.normal(size=400)) + 50.0
    f = fit(y, ArimaSpec(p=1, d=1, q=1))
    text = arima.to_text(f, extra={"trained.rows": "400"})
    f2, extra = arima.from_text(text)
    assert extra == {"trained.rows": "400"}
    assert arima.to_text(f2, extra=extra) == text
    assert np.array_equal(forecast(f, 10), forecast(f2, 10))
    path = tmp_path / "model.snap"
    arima.save(f, path)
    f3, _ = arima.load(path)
    assert np.array_equal(forecast(f, 10), forecast(f3, 10))


def test_snapshot_rejects_wrong_kind():
    with pytest.raises(ParseError):
        arima.from_text("demandcast-snapshot v1 kind=mlp\n")


# -- property: the float MA recursion is the numpy-scalar one, bit for bit -


def _residuals_on_numpy_scalars(z, spec, intercept, coeffs):
    """_residuals with its MA recursion on numpy scalars, as first written."""
    a_poly, c_poly = arima._lag_polys(spec, coeffs)
    la = a_poly.size - 1
    ar_part = np.convolve(z, a_poly)[la : z.size]
    ma_lags = [(j, c_poly[j]) for j in range(1, c_poly.size) if c_poly[j] != 0.0]
    e = np.empty(z.size - la)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(e.size):
            acc = ar_part[t] - intercept
            for j, cj in ma_lags:
                if t - j >= 0:
                    acc -= cj * e[t - j]
            e[t] = acc
    return e


@st.composite
def residual_cases(draw):
    spec = ArimaSpec(p=draw(st.integers(0, 2)), q=draw(st.integers(0, 2)),
                     sp=draw(st.integers(0, 1)), sq=draw(st.integers(0, 2)),
                     season=draw(st.integers(2, 7)))
    # wide coefficients are far outside the invertible region: their
    # recursion overflows to inf and nan within the series
    coef = st.one_of(st.floats(-1.5, 1.5), st.floats(-1e6, 1e6),
                     st.floats(-1e150, 1e150))
    coeffs = np.array(draw(st.lists(coef, min_size=spec.n_coeffs,
                                    max_size=spec.n_coeffs)), dtype=float)
    z = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=30,
                               max_size=400)))
    intercept = draw(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)))
    return z, spec, intercept, coeffs


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


@settings(max_examples=60, deadline=None)
@given(residual_cases())
def test_residuals_equal_the_numpy_scalar_recursion_bit_for_bit(case):
    z, spec, intercept, coeffs = case
    got = arima._residuals(z, spec, intercept, coeffs)
    assert _bits(got) == _bits(_residuals_on_numpy_scalars(*case))


def test_residuals_of_a_non_invertible_model_overflow_like_numpy_scalars():
    z = np.random.default_rng(0).normal(size=400)
    spec = ArimaSpec(q=1, sq=1, season=3)
    for intercept in (0.0, 0.5):
        e = arima._residuals(z, spec, intercept, np.array([-40.0, 7.0]))
        assert not np.all(np.isfinite(e))
        assert _bits(e) == _bits(_residuals_on_numpy_scalars(
            z, spec, intercept, np.array([-40.0, 7.0])))
