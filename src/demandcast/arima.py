"""Seasonal Box-Jenkins modeling: differencing, identification statistics,
conditional-least-squares estimation, diagnostics, and forecasting.

The model family is ARIMA(p,d,q)(P,D,Q)_s with an optional extra
differencing lag applied to the raw series before any modeling (the
weekly lag for half-hourly demand). Estimation minimizes the
conditional sum of squared innovations (pre-sample innovations pinned
at zero) with a damped Gauss-Newton iteration on a numerical Jacobian.

Sign conventions: AR terms enter as y_t = b0 + phi_1 y_{t-1} + ... and
MA terms with positive signs, y_t = ... + e_t + theta_1 e_{t-1} + ....
Multiplied out, the seasonal and non-seasonal polynomials give one pair
of lag polynomials A(B) y_t = b0 + C(B) e_t with A[0] = C[0] = 1.

The intercept b0 is estimated only for models with no differencing at
all; any differencing pins it at zero, so a (0,1,0) model forecasts
flat at the last observed value instead of drifting.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import snapshot
from .config import finite_float
from .errors import (ConfigError, ConvergenceError, DataError,
                     DegenerateError, ParseError)
from .flops import DISCARD

_MAX_ITER = 200
_MAX_HALVINGS = 20
_REL_TOL = 1e-10
_UNIT_ROOT_EDGE = 1.001


@dataclass(frozen=True)
class ArimaSpec:
    """Model orders: (p, d, q) regular, (sp, sd, sq) at period ``season``.

    pre_diff_lag, when nonzero, differences the raw series once at that
    lag before the (p,d,q)(P,D,Q)_s structure is applied.
    """

    p: int = 0
    d: int = 0
    q: int = 0
    sp: int = 0
    sd: int = 0
    sq: int = 0
    season: int = 1
    pre_diff_lag: int = 0

    def __post_init__(self):
        for name in ("p", "d", "q", "sp", "sd", "sq", "pre_diff_lag"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.season < 1:
            raise ConfigError(f"season must be >= 1, got {self.season}")
        if (self.sp or self.sd or self.sq) and self.season < 2:
            raise ConfigError("seasonal orders need season >= 2")

    @property
    def n_coeffs(self) -> int:
        return self.p + self.q + self.sp + self.sq

    @property
    def ar_reach(self) -> int:
        """Highest lag of the combined AR polynomial A(B)."""
        return self.p + self.sp * self.season

    @property
    def ma_reach(self) -> int:
        """Highest lag of the combined MA polynomial C(B)."""
        return self.q + self.sq * self.season

    def stage_lags(self) -> list:
        """Lag of each differencing stage, in the order fit applies them."""
        pre = [self.pre_diff_lag] if self.pre_diff_lag else []
        return pre + [1] * self.d + [self.season] * self.sd

    @property
    def estimates_intercept(self) -> bool:
        return self.d == 0 and self.sd == 0 and self.pre_diff_lag == 0

    def label(self) -> str:
        base = f"({self.p},{self.d},{self.q})"
        if self.sp or self.sd or self.sq:
            base += f"({self.sp},{self.sd},{self.sq})[{self.season}]"
        if self.pre_diff_lag:
            base += f"+prediff{self.pre_diff_lag}"
        return base


@dataclass
class ForecastAnchors:
    """State retained from training so forecasts can leave the model space.

    stages holds, in the order differencing was applied, each stage's
    lag and the last ``lag`` values of that stage's input series;
    z_tail and e_tail are the tails of the fully differenced series and
    of the residuals, covering the AR and MA lag reach.
    """

    stages: list = field(default_factory=list)
    z_tail: np.ndarray = field(default_factory=lambda: np.empty(0))
    e_tail: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass
class ArimaFit:
    spec: ArimaSpec
    intercept: float
    ar: np.ndarray
    ma: np.ndarray
    seasonal_ar: np.ndarray
    seasonal_ma: np.ndarray
    residuals: np.ndarray
    sigma2: float
    training_tail: ForecastAnchors
    near_unit_root: bool = False
    iterations: int = 0
    sse: float = 0.0


@dataclass
class DiagnosticsReport:
    """Residual whiteness summary: ACF, Ljung-Box, first two moments."""

    residual_acf: np.ndarray
    ljung_box: float
    dof: int
    p_value: float
    residual_mean: float
    residual_variance: float
    max_lag: int


def difference(series, lag: int) -> np.ndarray:
    """Apply z_t = y_t - y_{t-lag}."""
    y = np.asarray(series, dtype=float)
    if lag < 1:
        raise ConfigError(f"difference lag must be >= 1, got {lag}")
    if y.size <= lag:
        raise DataError(
            f"series of length {y.size} is too short to difference at lag {lag}"
        )
    return y[lag:] - y[:-lag]


def undifference(forecasts, anchors, lag: int) -> np.ndarray:
    """Invert one differencing stage, continuing past the anchor values.

    anchors must hold the last ``lag`` values of the original (stage
    input) series; difference(undifference(f), lag) == f up to rounding,
    exactly when every sum is exact (values on a common binary grid,
    such as demand in whole MWh).
    """
    f = np.asarray(forecasts, dtype=float)
    a = np.asarray(anchors, dtype=float)
    if lag < 1:
        raise ConfigError(f"difference lag must be >= 1, got {lag}")
    if a.size < lag:
        raise DataError(f"need {lag} anchor values, got {a.size}")
    buf = list(a[-lag:])
    out = np.empty(f.size)
    for i, v in enumerate(f):
        out[i] = v + buf[-lag]
        buf.append(out[i])
    return out


def acf(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags 0..max_lag (acf[0] = 1)."""
    y = np.asarray(series, dtype=float)
    if max_lag < 0:
        raise ConfigError("max_lag must be >= 0")
    if y.size < max_lag + 2:
        raise DataError(
            f"series of length {y.size} too short for acf to lag {max_lag}"
        )
    yc = y - y.mean()
    denom = float(yc @ yc)
    if denom <= 0.0:
        raise DegenerateError("zero-variance series has no autocorrelation")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = float(yc[k:] @ yc[:-k]) / denom
    return out


def _lag_polys(spec: ArimaSpec, coeffs: np.ndarray):
    """Expand regular x seasonal factors into combined A(B), C(B)."""
    p, q, sp, sq, s = spec.p, spec.q, spec.sp, spec.sq, spec.season
    phi = coeffs[:p]
    theta = coeffs[p : p + q]
    sphi = coeffs[p + q : p + q + sp]
    stheta = coeffs[p + q + sp :]
    a_reg = np.concatenate(([1.0], -phi))
    c_reg = np.concatenate(([1.0], theta))
    a_sea = np.zeros(sp * s + 1)
    a_sea[0] = 1.0
    for k in range(1, sp + 1):
        a_sea[k * s] = -sphi[k - 1]
    c_sea = np.zeros(sq * s + 1)
    c_sea[0] = 1.0
    for k in range(1, sq + 1):
        c_sea[k * s] = stheta[k - 1]
    return np.convolve(a_reg, a_sea), np.convolve(c_reg, c_sea)


def _residuals(z: np.ndarray, spec: ArimaSpec, intercept: float,
               coeffs: np.ndarray, counter=DISCARD) -> np.ndarray:
    """Conditional innovations, one per value of ``z`` past the AR reach;
    pre-sample e pinned at zero."""
    a_poly, c_poly = _lag_polys(spec, coeffs)
    la = a_poly.size - 1
    n = z.size
    ma_lags = [(j, float(c_poly[j])) for j in range(1, c_poly.size)
               if c_poly[j] != 0.0]
    # trial coefficients outside the invertible region blow the recursion
    # up to inf; the caller's finite check rejects the step, so overflow
    # here is expected and silenced
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.convolve(z, a_poly)[la:n] - intercept
    if ma_lags:
        # the MA recursion on Python floats: the same IEEE operations in
        # the same order as on numpy scalars, at a third of the cost
        out = []
        for t, acc in enumerate(e.tolist()):
            for j, cj in ma_lags:  # ascending lags
                if j > t:
                    break
                acc -= cj * out[t - j]
            out.append(acc)
        e = np.array(out)
    counter.add(2 * n * (np.count_nonzero(a_poly) + len(ma_lags) + 1))
    return e


def fit(series, spec: ArimaSpec, counter=DISCARD) -> ArimaFit:
    """Estimate the model on a contiguous series by conditional least squares.

    Differencing (pre-lag, then regular, then seasonal) is applied as a
    data transform; the ARMA coefficients are then fit by damped
    Gauss-Newton on the innovation sum of squares. Anchors for exact
    inversion of every differencing stage are retained on the fit.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise DataError(f"series must be 1-D, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise DataError("series contains non-finite values")

    # one past the AR reach leaves one innovation, one past the MA reach
    # lets every MA lag reach the data; ten per free parameter
    n_free = spec.n_coeffs + (1 if spec.estimates_intercept else 0)
    usable = max(10 * max(1, n_free), spec.ar_reach + 1, spec.ma_reach + 1)
    # the sum of stage_lags(), whose list waits until the series covers it
    span = spec.pre_diff_lag + spec.d + spec.sd * spec.season
    if y.size < span + usable:
        raise DataError(
            f"{spec.label()} needs at least {span + usable} observations "
            f"({span} for differencing, then {usable}), got {y.size}"
        )

    anchors = ForecastAnchors()
    z = y.copy()
    for lag in spec.stage_lags():
        anchors.stages.append((lag, z[-lag:].copy()))
        z = difference(z, lag)

    est_b0 = spec.estimates_intercept
    coeffs = np.zeros(spec.n_coeffs)
    intercept = float(z.mean()) if est_b0 else 0.0
    iterations = 0

    if n_free > 0:
        params = np.concatenate(([intercept], coeffs)) if est_b0 else coeffs.copy()

        def unpack(vec):
            if est_b0:
                return float(vec[0]), vec[1:]
            return 0.0, vec

        def resid(vec):
            b0, cf = unpack(vec)
            return _residuals(z, spec, b0, cf, counter)

        e = resid(params)
        sse = float(e @ e)
        converged = False
        for iterations in range(1, _MAX_ITER + 1):
            jac = np.empty((e.size, params.size))
            for m in range(params.size):
                h = 1e-5 * max(1.0, abs(params[m]))
                up = params.copy()
                up[m] += h
                dn = params.copy()
                dn[m] -= h
                jac[:, m] = (resid(up) - resid(dn)) / (2.0 * h)
            counter.add_gemm(params.size, params.size, e.size)
            # at the zero start the AR and MA residual derivatives are
            # collinear, so truncate near-null singular directions or the
            # step explodes along them and every damping halving stays
            # non-invertible
            step, *_ = np.linalg.lstsq(jac, -e, rcond=1e-7)
            scale = 1.0
            improved = False
            for _ in range(_MAX_HALVINGS + 1):
                trial = params + scale * step
                e_t = resid(trial)
                with np.errstate(over="ignore", invalid="ignore"):
                    sse_t = float(e_t @ e_t)
                if math.isfinite(sse_t) and sse_t < sse:
                    improved = True
                    break
                scale *= 0.5
            if not improved:
                converged = True  # no descent direction left: stationary point
                break
            rel = (sse - sse_t) / max(sse, 1e-300)
            params, e, sse = trial, e_t, sse_t
            if rel < _REL_TOL:
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                f"Gauss-Newton did not converge in {_MAX_ITER} iterations "
                f"for {spec.label()}",
                last_params=params,
            )
        intercept, coeffs = unpack(params)
        coeffs = np.asarray(coeffs, dtype=float)
    else:
        e = _residuals(z, spec, 0.0, coeffs, counter)
        sse = float(e @ e)

    a_poly, c_poly = _lag_polys(spec, coeffs)
    near_unit = False
    for poly in (a_poly, c_poly):
        if poly.size > 1:
            roots = np.roots(poly[::-1])
            if roots.size and np.abs(roots).min() < _UNIT_ROOT_EDGE:
                near_unit = True

    la = a_poly.size - 1
    lc = c_poly.size - 1
    anchors.z_tail = z[-la:].copy() if la else np.empty(0)
    anchors.e_tail = e[-lc:].copy() if lc else np.empty(0)
    p, q, sp = spec.p, spec.q, spec.sp
    return ArimaFit(
        spec=spec,
        intercept=intercept,
        ar=coeffs[:p].copy(),
        ma=coeffs[p : p + q].copy(),
        seasonal_ar=coeffs[p + q : p + q + sp].copy(),
        seasonal_ma=coeffs[p + q + sp :].copy(),
        residuals=e,
        sigma2=sse / e.size,
        training_tail=anchors,
        near_unit_root=near_unit,
        iterations=iterations,
        sse=sse,
    )


def _fit_coeffs(fit_: ArimaFit) -> np.ndarray:
    return np.concatenate(
        (fit_.ar, fit_.ma, fit_.seasonal_ar, fit_.seasonal_ma)
    )


def forecast(fit_: ArimaFit, horizon: int) -> np.ndarray:
    """Iterated one-step predictions, inverted back to original units.

    Future innovations are zero; AR lags draw on the training tail and
    then on the forecasts themselves; every differencing stage is
    inverted through its stored anchors.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    a_poly, c_poly = _lag_polys(fit_.spec, _fit_coeffs(fit_))
    zbuf = list(fit_.training_tail.z_tail)
    ebuf = list(fit_.training_tail.e_tail)
    ar_lags = [(i, a_poly[i]) for i in range(1, a_poly.size) if a_poly[i] != 0.0]
    ma_lags = [(j, c_poly[j]) for j in range(1, c_poly.size) if c_poly[j] != 0.0]
    preds = []
    for _ in range(horizon):
        acc = fit_.intercept
        for i, ai in ar_lags:
            if i <= len(zbuf):
                acc -= ai * zbuf[-i]
        for j, cj in ma_lags:
            if j <= len(ebuf):
                acc += cj * ebuf[-j]
        preds.append(acc)
        zbuf.append(acc)
        ebuf.append(0.0)
    out = np.asarray(preds)
    for lag, anchor in reversed(fit_.training_tail.stages):
        out = undifference(out, anchor, lag)
    return out


# ArimaFit fields stored as they are, in file order, with their parsers
_FIT_FIELDS = (
    ("intercept", finite_float), ("ar", snapshot.parse_finite),
    ("ma", snapshot.parse_finite), ("seasonal_ar", snapshot.parse_finite),
    ("seasonal_ma", snapshot.parse_finite), ("sigma2", finite_float),
    ("sse", finite_float), ("iterations", int),
    ("near_unit_root", lambda v: v.strip() == "1"),
    ("residuals", snapshot.parse_finite),
)


def _fields(fit_: ArimaFit) -> dict:
    """Snapshot fields of a fit, including the anchors forecasting needs."""
    fields = snapshot.config_fields("spec", fit_.spec)
    fields.update({key: getattr(fit_, key) for key, _ in _FIT_FIELDS})
    tail = fit_.training_tail
    fields["stages"] = len(tail.stages)
    for k, (lag, anchor) in enumerate(tail.stages):
        fields[f"stage.{k}.lag"] = lag
        fields[f"stage.{k}.anchor"] = anchor
    fields.update(z_tail=tail.z_tail, e_tail=tail.e_tail)
    return fields


def to_text(fit_: ArimaFit, extra: Optional[dict] = None) -> str:
    """Serialize a fit, including the anchors forecasting needs."""
    return snapshot.dump("arima", _fields(fit_), extra)


def from_text(text: str):
    """Parse a serialized fit; returns (fit, extra_dict)."""
    return _from_fields(*snapshot.load(text, "arima"))


def _from_fields(body: dict, extra: dict):
    """The fit a snapshot holds; arrays and stages that differ from what
    its spec gives a fit are refused, since they would still forecast."""
    need, parse = snapshot.need, snapshot.parse_finite
    spec = ArimaSpec(**snapshot.config_kwargs(ArimaSpec, body, "spec"))
    sizes = dict(ar=spec.p, ma=spec.q, seasonal_ar=spec.sp,
                 seasonal_ma=spec.sq)
    fields = {key: need(body, key, parse, sizes.get(key))
              for key, parse in _FIT_FIELDS}
    # fit refuses an MA reach that is not below the differenced series,
    # ar_reach + residuals values; checked before season sizes any array
    seen = spec.ar_reach + fields["residuals"].size
    if spec.ma_reach >= seen:
        raise ParseError(f"snapshot key 'residuals' holds "
                         f"{fields['residuals'].size} values: {spec.label()} "
                         f"reaches {spec.ma_reach} lags back, past the "
                         f"{seen} values its fit saw")
    lags = [need(body, f"stage.{k}.lag", int)
            for k in range(need(body, "stages", int))]
    # the count first, so that a huge d or sd lists no lags
    stages = bool(spec.pre_diff_lag) + spec.d + spec.sd
    if len(lags) != stages:
        raise ParseError(f"snapshot keys 'stage.*.lag' give {len(lags)} "
                         f"lags, expected {stages} for {spec.label()}")
    if lags != spec.stage_lags():
        raise ParseError(f"snapshot keys 'stage.*.lag' give lags {lags}, "
                         f"expected {spec.stage_lags()} for {spec.label()}")
    anchors = ForecastAnchors(
        stages=[(lag, need(body, f"stage.{k}.anchor", parse, lag))
                for k, lag in enumerate(lags)],
        z_tail=need(body, "z_tail", parse, spec.ar_reach),
        e_tail=need(body, "e_tail", parse,
                    min(spec.ma_reach, fields["residuals"].size)),
    )
    return ArimaFit(spec=spec, training_tail=anchors, **fields), extra


def save(fit_: ArimaFit, path, extra: Optional[dict] = None) -> None:
    snapshot.write(path, "arima", _fields(fit_), extra)


def load(path):
    return snapshot.read(path, "arima", _from_fields)


def diagnostics(fit_: ArimaFit) -> DiagnosticsReport:
    """Residual whiteness check: ACF band and the Ljung-Box statistic."""
    e = fit_.residuals
    n = e.size
    if n < 50:
        raise DataError(f"diagnostics need at least 50 residuals, got {n}")
    if float(np.var(e)) <= 0.0:
        raise DegenerateError("residuals have zero variance")
    season = fit_.spec.season
    m = 2 * season if season > 1 else 20
    m = min(m, n - 2)
    r = acf(e, m)
    lb = n * (n + 2.0) * sum(r[k] ** 2 / (n - k) for k in range(1, m + 1))
    dof = max(1, m - fit_.spec.n_coeffs)
    return DiagnosticsReport(
        residual_acf=r,
        ljung_box=float(lb),
        dof=dof,
        p_value=_chi2_sf(lb, dof),
        residual_mean=float(e.mean()),
        residual_variance=float(np.var(e)),
        max_lag=m,
    )


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X > x) of the chi-square distribution with integer dof.

    Abramowitz & Stegun 26.4.4-26.4.5 with h = x / 2: the sum of
    exp(-h) h^j / j! over j = 0, 1, ..., dof/2 - 1 for even dof, and
    erfc(sqrt(h)) plus that sum over j = 1/2, 3/2, ..., dof/2 - 1 for odd
    dof. Each term is formed in log space, so a large statistic
    underflows to 0 instead of giving 0 * inf.
    """
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    log_h = math.log(h)
    total = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
    j = (dof % 2) / 2.0
    while j < dof / 2.0:
        total += math.exp(j * log_h - h - math.lgamma(j + 1.0))
        j += 1.0
    return total
