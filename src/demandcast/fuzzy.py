"""Membership partitions and fuzzy arithmetic for the rule layer.

A membership partition attaches a few Gaussian membership functions
(MFs) to one variable. Fuzzification turns a real value into per-MF
membership degrees; defuzzification reduces degrees back to a real value
by a center-of-gravity over the MF centers. The normalized fuzzy difference

    D(a, b) = sum(|a - b|) / sum(a + b)

is the distance used between fuzzy vectors throughout the evolving
network, together with the saturated linear activation ``satlin``.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DegenerateError, ShapeError


def satlin(x):
    """Saturated linear activation: clamp to [0, 1]."""
    return np.clip(x, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class MembershipPartition:
    """Gaussian MF set for one variable: ascending centers, each MF's
    width its standard deviation. A partition is immutable, its arrays
    read-only copies, and it compares and hashes by identity.
    """

    variable_name: str
    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        centers = np.array(self.centers, dtype=float)
        widths = np.array(self.widths, dtype=float)
        centers.flags.writeable = widths.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)
        if centers.ndim != 1 or centers.size < 2:
            raise ConfigError("partition needs at least 2 centers")
        if widths.shape != centers.shape:
            raise ConfigError("widths must match centers in length")
        if not np.all(np.diff(centers) > 0):
            raise ConfigError(
                f"centers of {self.variable_name!r} must be strictly ascending"
            )
        if not np.all(widths > 0):
            raise ConfigError(f"widths of {self.variable_name!r} must be positive")

    @property
    def size(self) -> int:
        return int(self.centers.size)

    @property
    def lo(self) -> float:
        return float(self.centers[0])

    @property
    def hi(self) -> float:
        return float(self.centers[-1])


def build_partition(lo, hi, n, name="x") -> MembershipPartition:
    """Evenly spaced partition of [lo, hi] with ``n`` membership functions.

    Widths are half the center spacing, so adjacent MFs overlap
    substantially and every in-range value keeps a strictly positive
    degree.
    """
    if n < 2:
        raise ConfigError(f"partition needs n >= 2 MFs, got {n}")
    if not hi > lo:
        raise ConfigError(f"partition range is empty: [{lo}, {hi}]")
    centers = np.linspace(lo, hi, n)
    width = (hi - lo) / (n - 1) / 2.0
    return MembershipPartition(name, centers, np.full(n, width))


def mf_labels(n: int) -> tuple:
    """Linguistic labels for an n-MF partition, LOW through HIGH."""
    named = {
        2: ("LOW", "HIGH"),
        3: ("LOW", "MEDIUM", "HIGH"),
        4: ("LOW", "MEDIUM-LOW", "MEDIUM-HIGH", "HIGH"),
        5: ("LOW", "MEDIUM-LOW", "MEDIUM", "MEDIUM-HIGH", "HIGH"),
    }
    if n in named:
        return named[n]
    return tuple(f"MF{i + 1}" for i in range(n))


def fuzzify(x, partition: MembershipPartition) -> np.ndarray:
    """Membership degrees of a scalar under one partition.

    The value is clamped to the partition range first, so out-of-range
    queries (a test-period heat wave, say) degrade gracefully instead of
    failing.
    """
    return fuzzify_rows([[float(x)]], (partition,))[0]


def fuzzify_rows(xs, partitions) -> np.ndarray:
    """Membership degrees of each row of ``xs``, one value per partition.

    Row i is the concatenation of ``fuzzify(xs[i, j], partitions[j])``
    over j, bit for bit: every degree of every row is one element of the
    same array expression.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != len(partitions):
        raise ShapeError(
            f"expected rows of {len(partitions)} values, got shape {xs.shape}"
        )
    var, lo, hi, c, w2 = _mf_layout(tuple(partitions))
    d = np.minimum(np.maximum(xs[:, var], lo), hi) - c
    return np.exp(-(d ** 2) / w2)


@lru_cache(maxsize=32)
def _mf_layout(partitions: tuple) -> tuple:
    """Per-MF read-only arrays of ``fuzzify_rows``: the input column, the
    clamp bounds, center, and denominator 2 w^2 of width w."""
    sizes = [p.size for p in partitions]
    w = np.concatenate([p.widths for p in partitions])
    layout = (np.repeat(np.arange(len(partitions)), sizes),
              np.repeat([p.lo for p in partitions], sizes),
              np.repeat([p.hi for p in partitions], sizes),
              np.concatenate([p.centers for p in partitions]), 2.0 * w * w)
    for a in layout:
        a.flags.writeable = False
    return layout


def defuzzify(degrees, partition: MembershipPartition) -> float:
    """Center-of-gravity over MF centers weighted by degree."""
    d = np.asarray(degrees, dtype=float)
    if d.shape != partition.centers.shape:
        raise ShapeError(
            f"degree vector has length {d.size}, partition has {partition.size} MFs"
        )
    total = d.sum()
    if total <= 0.0:
        raise DegenerateError(
            f"all-zero membership for {partition.variable_name!r}: nothing to defuzzify"
        )
    return float((d * partition.centers).sum() / total)


def fuzzify_vector(values, partitions) -> np.ndarray:
    """Fuzzify one value per partition into a single concatenated vector."""
    values = np.asarray(values, dtype=float)
    if values.size != len(partitions):
        raise ShapeError(
            f"{values.size} values for {len(partitions)} partitions"
        )
    return fuzzify_rows(values.reshape(1, -1), partitions)[0]


def fuzzy_difference(a, b) -> float:
    """Normalized fuzzy difference sum(|a-b|) / sum(a+b), in [0, 1].

    For disjoint supports the two sums add the same values in different
    orders and can round an ulp apart, so the quotient is capped at 1.
    """
    da = np.asarray(a, dtype=float)
    db = np.asarray(b, dtype=float)
    if da.shape != db.shape:
        raise ShapeError(f"fuzzy vectors differ in length: {da.size} vs {db.size}")
    denom = float(da.sum() + db.sum())
    if denom <= 0.0:
        raise DegenerateError("fuzzy difference of two all-zero vectors is undefined")
    return min(1.0, float(np.abs(da - db).sum() / denom))
