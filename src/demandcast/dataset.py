"""Half-hourly demand records, feature encoding, and synthetic data.

The CSV format is ``timestamp,demand_mwh,tmin_c,tmax_c`` with ISO-8601
timestamps on a strict 30-minute cadence. Each modeling example carries
six inputs: the day's minimum and maximum temperature, demand at the
same half-hour of the previous day (lag 48), the half-hour index within
the day, the season, and the day of week. All features and the demand
target are min-max normalized from training data before they reach a
model.

Examples are tables, one row per record: ``encode_features`` gives the
raw features and then the target, ``fit_norm`` the training minima and
maxima, and ``apply_norm`` the normalized inputs and targets. Training
and forecasting share these three; a forecast overrides the lag column.

Season uses the Southern-Hemisphere mapping (December to February is
summer = 0, then autumn, winter, spring) and weeks start at Monday = 0.

The synthetic generator produces a plausible state-level load curve: a
weekday/weekend base level, heating and cooling responses to a seasonal
temperature cycle, and a daily cosine whose trough is clipped into a
flat overnight plateau. Demand is quantized to whole MWh and
temperatures to whole degrees, as a metered feed would be.
"""

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from typing import Optional

import numpy as np

from .config import read_config, scalar_fields
from .errors import ConfigError, DataError, DegenerateError, GapError, ParseError
from .snapshot import format_float

CSV_HEADER = ("timestamp", "demand_mwh", "tmin_c", "tmax_c")
FEATURE_NAMES = ("tmin", "tmax", "prev_day_demand", "half_hour", "season",
                 "day_of_week")
TARGET_NAME = "demand"
_LAG = FEATURE_NAMES.index("prev_day_demand")
HALF_HOURS_PER_DAY = 48
STEP = timedelta(minutes=30)


@dataclass(frozen=True)
class DemandRecord:
    """One half-hour of metered demand with that day's temperature range."""

    timestamp: datetime
    demand: float
    tmin: float
    tmax: float

    def __post_init__(self):
        if self.demand < 0.0:
            raise DataError(f"negative demand {self.demand} at {self.timestamp}")
        if self.tmax < self.tmin:
            raise DataError(
                f"tmax {self.tmax} below tmin {self.tmin} at {self.timestamp}"
            )


@dataclass
class NormStats:
    """Per-variable training minima and maxima; target bounds sit last."""

    mins: np.ndarray
    maxs: np.ndarray


def parse_csv(path) -> list:
    """Read and validate the records of the UTF-8 CSV file at ``path``."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            return _parse_stream(handle, name=str(path))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_stream(handle, name: str) -> list:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{name}: empty file") from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise ParseError(
            f"{name}: bad header {header!r}, expected {','.join(CSV_HEADER)}"
        )
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"{name}:{lineno}: expected 4 fields, got {len(row)}")
        try:
            ts = datetime.fromisoformat(row[0].strip())
        except ValueError:
            raise ParseError(f"{name}:{lineno}: bad timestamp {row[0]!r}") from None
        try:
            demand, tmin, tmax = (float(v) for v in row[1:])
        except ValueError as exc:
            raise ParseError(f"{name}:{lineno}: non-numeric field: {exc}") from None
        if not all(math.isfinite(v) for v in (demand, tmin, tmax)):
            raise ParseError(f"{name}:{lineno}: non-finite field in {row!r}")
        if records:
            expected = records[-1].timestamp + STEP
            if ts != expected:
                raise GapError(
                    f"{name}:{lineno}: timestamp {ts.isoformat()} after "
                    f"{records[-1].timestamp.isoformat()}, expected "
                    f"{expected.isoformat()}"
                )
        try:
            records.append(DemandRecord(ts, demand, tmin, tmax))
        except DataError as exc:
            raise DataError(f"{name}:{lineno}: {exc}") from None
    return records


def write_csv(records, path) -> None:
    """Write records as UTF-8 CSV to ``path``, so a parse round-trip
    reproduces them exactly."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([r.timestamp.isoformat()] + [
                format_float(v) for v in (r.demand, r.tmin, r.tmax)])


def season_of(month: int) -> int:
    """Southern-Hemisphere season index: DJF=0, MAM=1, JJA=2, SON=3."""
    if month in (12, 1, 2):
        return 0
    if month in (3, 4, 5):
        return 1
    if month in (6, 7, 8):
        return 2
    return 3


def encode_features(records, start: int, stop: int, prev_demand=None
                    ) -> np.ndarray:
    """Raw features and then the target, one row per record in
    [start, stop).

    prev_demand (stop - start values) replaces the lag-48 column, which
    lets a forecaster substitute its own predictions when the previous
    day lies inside the forecast window.
    """
    if start < HALF_HOURS_PER_DAY:
        raise DataError(
            f"index {start} has no previous-day lookback (need >= "
            f"{HALF_HOURS_PER_DAY})"
        )
    rows = [(*_features(records[i], records[i - HALF_HOURS_PER_DAY].demand),
             records[i].demand) for i in range(start, stop)]
    table = np.array(rows, dtype=float).reshape(-1, len(FEATURE_NAMES) + 1)
    if prev_demand is not None:
        table[:, _LAG] = prev_demand
    return table


def _features(r: DemandRecord, prev_demand) -> tuple:
    ts = r.timestamp
    return (r.tmin, r.tmax, float(prev_demand),
            float(ts.hour * 2 + ts.minute // 30), float(season_of(ts.month)),
            float(ts.weekday()))


def fit_norm(table: np.ndarray) -> NormStats:
    """Column minima/maxima of raw rows (six features, then the target)."""
    if not len(table):
        raise DataError("cannot fit normalization on an empty training set")
    mins = table.min(axis=0)
    maxs = table.max(axis=0)
    names = FEATURE_NAMES + (TARGET_NAME,)
    for i, name in enumerate(names):
        if maxs[i] <= mins[i]:
            raise DegenerateError(
                f"variable {name!r} is constant in the training data"
            )
    return NormStats(mins=mins, maxs=maxs)


def apply_norm(table: np.ndarray, stats: NormStats) -> tuple:
    """Raw rows (six features, then the target) mapped to [0,1] and
    clamped; returns (x, y), the features C-contiguous."""
    norm = np.clip((table - stats.mins) / (stats.maxs - stats.mins), 0.0, 1.0)
    return np.ascontiguousarray(norm[..., :-1]), norm[..., -1].copy()


def norm_target(y, stats: NormStats) -> np.ndarray:
    """Affine target map to the normalized scale, without clamping."""
    return (np.asarray(y, dtype=float) - stats.mins[-1]) / (
        stats.maxs[-1] - stats.mins[-1])


def denorm_target(y, stats: NormStats) -> np.ndarray:
    """Inverse of the target normalization, back to MWh."""
    return stats.mins[-1] + np.asarray(y, dtype=float) * (
        stats.maxs[-1] - stats.mins[-1])


def sample_training(pool, fraction: float, seed: int, n_samples: int = 3
                    ) -> list:
    """Independent without-replacement index samples into ``pool`` (any
    sized sequence of examples), each sorted in time order."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
    n = len(pool)
    if n == 0:
        raise DataError("cannot sample from an empty pool")
    k = max(1, round(fraction * n))
    rng = np.random.default_rng(seed)
    return [np.sort(rng.choice(n, size=k, replace=False)) for _ in range(n_samples)]


@dataclass
class SynthConfig:
    """Knobs of the synthetic generator, loadable from key=value text.

    Levels are MWh, temperatures degrees C. The daily shape is
    ``max(cos(2 pi (h - peak_half_hour) / 48), trough_clip)``: a cosine
    peaking near midday whose trough is clipped into a flat overnight
    plateau. Noise terms are clipped at three standard deviations so
    amplitude budgets hold for every seed.
    """

    start: str = "1995-01-27"
    base: float = 4600.0
    daily_amplitude: float = 1400.0
    trough_clip: float = -0.6
    peak_half_hour: float = 25.0
    weekday_boost: float = 150.0
    weekend_drop: float = 400.0
    heat_coef: float = 45.0
    cool_coef: float = 70.0
    heat_threshold: float = 15.0
    cool_threshold: float = 25.0
    day_noise: float = 80.0
    halfhour_noise: float = 40.0
    night_noise: float = 0.5
    temp_base: float = 20.0
    temp_seasonal_amplitude: float = 8.0
    temp_noise: float = 1.5
    temp_spread: float = 8.0
    spread_noise: float = 1.0
    demand_quantum: float = 1.0
    temp_quantum: float = 1.0

    @classmethod
    def from_file(cls, path) -> "SynthConfig":
        return cls(**read_config(path, scalar_fields(cls), "generator"))


def _clipped_normal(rng, sigma: float) -> float:
    if sigma <= 0.0:
        return 0.0
    return float(np.clip(rng.normal(0.0, sigma), -3.0 * sigma, 3.0 * sigma))


def _quantize(value: float, quantum: float) -> float:
    if quantum <= 0.0:
        return value
    return round(value / quantum) * quantum


def synthesize(days: int, seed: int, config: Optional[SynthConfig] = None) -> list:
    """Generate ``days`` full days of half-hourly records, deterministically.

    A 90-day run from the default late-January start spans two seasons,
    which keeps the season feature informative.
    """
    if days < 2:
        raise ConfigError(f"need at least 2 days of data, got {days}")
    cfg = config or SynthConfig()
    try:
        start_day = date.fromisoformat(cfg.start)
    except ValueError:
        raise ConfigError(f"bad generator start date {cfg.start!r}") from None
    rng = np.random.default_rng(seed)
    records = []
    for d in range(days):
        day = start_day + timedelta(days=d)
        phase = 2.0 * math.pi * (day.timetuple().tm_yday - 28) / 365.25
        warm = cfg.temp_base + cfg.temp_seasonal_amplitude * math.cos(phase)
        tmax_raw = warm + _clipped_normal(rng, cfg.temp_noise)
        spread = max(3.0, cfg.temp_spread + _clipped_normal(rng, cfg.spread_noise))
        tmax = _quantize(tmax_raw, cfg.temp_quantum)
        tmin = _quantize(tmax_raw - spread, cfg.temp_quantum)
        tmid = (tmin + tmax) / 2.0
        level = cfg.base
        level += cfg.weekday_boost if day.weekday() < 5 else -cfg.weekend_drop
        level += cfg.heat_coef * max(0.0, cfg.heat_threshold - tmid)
        level += cfg.cool_coef * max(0.0, tmax - cfg.cool_threshold)
        level += _clipped_normal(rng, cfg.day_noise)
        midnight = datetime(day.year, day.month, day.day)
        for h in range(HALF_HOURS_PER_DAY):
            shape = math.cos(2.0 * math.pi * (h - cfg.peak_half_hour) / 48.0)
            flat = shape <= cfg.trough_clip
            shape = max(shape, cfg.trough_clip)
            sigma = cfg.night_noise if flat else cfg.halfhour_noise
            demand = level + cfg.daily_amplitude * shape + _clipped_normal(rng, sigma)
            records.append(
                DemandRecord(
                    timestamp=midnight + h * STEP,
                    demand=max(0.0, _quantize(demand, cfg.demand_quantum)),
                    tmin=tmin,
                    tmax=tmax,
                )
            )
    return records
