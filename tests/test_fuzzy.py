import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandcast.errors import ConfigError, DegenerateError, ShapeError
from demandcast.fuzzy import (MembershipPartition,
                              build_partition, defuzzify,
                              fuzzify, fuzzify_rows, fuzzify_vector,
                              fuzzy_difference, mf_labels, radbas, satlin)


def test_satlin_clamps_to_unit_interval():
    assert satlin(-1.0) == 0.0
    assert satlin(0.5) == 0.5
    assert satlin(2.0) == 1.0


def test_satlin_vectorized():
    out = satlin(np.array([-3.0, 0.25, 9.0]))
    assert np.array_equal(out, [0.0, 0.25, 1.0])


def test_radbas_known_values():
    assert radbas(0.0) == 1.0
    assert math.isclose(radbas(1.0), 0.36787944117144233, rel_tol=1e-15)


def test_build_partition_even_centers_and_half_spacing_widths():
    p = build_partition(0.0, 1.0, 4)
    assert np.allclose(p.centers, [0.0, 1 / 3, 2 / 3, 1.0])
    # gaussian width is half the spacing between adjacent centers
    assert np.allclose(p.widths, [1 / 6] * 4)


def test_build_partition_rejects_bad_counts_and_ranges():
    with pytest.raises(ConfigError):
        build_partition(0.0, 1.0, 1)
    with pytest.raises(ConfigError):
        build_partition(1.0, 0.0, 3)


def test_partition_validates_ordering_and_positivity():
    with pytest.raises(ConfigError):
        MembershipPartition("x", np.array([0.5, 0.2]), np.array([0.1, 0.1]))
    with pytest.raises(ConfigError):
        MembershipPartition("x", np.array([0.2, 0.5]), np.array([0.1, -0.1]))


def test_partition_holds_read_only_copies():
    # fuzzify_rows caches per-MF arrays by partition, so they cannot change
    centers = np.array([0.2, 0.5])
    p = MembershipPartition("x", centers, np.array([0.1, 0.1]))
    centers[0] = 0.0
    assert p.centers.tolist() == [0.2, 0.5]
    with pytest.raises(ValueError):
        p.widths[0] = 1.0


def test_fuzzify_midpoint_of_four_gaussians():
    p = build_partition(0.0, 1.0, 4)
    d = fuzzify(0.5, p)
    expected = [math.exp(-4.5), math.exp(-0.5), math.exp(-0.5), math.exp(-4.5)]
    assert np.allclose(d, expected, rtol=1e-14)


def test_fuzzify_clamps_outside_range():
    p = build_partition(0.0, 1.0, 3)
    assert np.allclose(fuzzify(-5.0, p), fuzzify(0.0, p))
    assert np.allclose(fuzzify(17.0, p), fuzzify(1.0, p))


def test_fuzzify_peaks_at_centers():
    p = build_partition(0.0, 1.0, 5)
    for i, c in enumerate(p.centers):
        d = fuzzify(float(c), p)
        assert d[i] == pytest.approx(1.0)
        assert int(np.argmax(d)) == i


def test_defuzzify_center_of_gravity():
    p = MembershipPartition("y", np.array([0.0, 1.0]), np.array([0.25, 0.25]))
    assert defuzzify(np.array([0.2, 0.8]), p) == pytest.approx(0.8)


def test_defuzzify_rejects_mismatch_and_all_zero():
    p = build_partition(0.0, 1.0, 3)
    with pytest.raises(ShapeError):
        defuzzify(np.array([0.1, 0.2]), p)
    with pytest.raises(DegenerateError):
        defuzzify(np.zeros(3), p)


def test_reconstruction_error_small_on_interior_grid():
    # fuzzify then defuzzify should come back close on [0.05, 0.95]
    p = build_partition(0.0, 1.0, 4)
    grid = np.linspace(0.05, 0.95, 19)
    worst = max(abs(defuzzify(fuzzify(x, p), p) - x) for x in grid)
    assert worst < 0.06


def test_fuzzy_difference_oracle_values():
    assert fuzzy_difference([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert fuzzy_difference([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.25)


@st.composite
def degree_pairs(draw):
    """Two equal-length non-negative vectors, not both all zero, often
    with disjoint supports (distance 1)."""
    n = draw(st.integers(1, 40))
    degree = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    a, b = (np.array(draw(st.lists(degree, min_size=n, max_size=n)))
            for _ in "ab")
    if draw(st.booleans()):
        b[a != 0.0] = 0.0
    if not a.any() and not b.any():
        a[0] = draw(st.floats(5e-324, 1.0))
    return a, b


@settings(max_examples=300, deadline=None)
@given(degree_pairs())
def test_fuzzy_difference_identity_symmetry_and_range(pair):
    a, b = pair
    d = fuzzy_difference(a, b)
    assert 0.0 <= d <= 1.0
    assert fuzzy_difference(b, a) == d
    for v in pair:
        if v.any():
            assert fuzzy_difference(v, v) == 0.0


def test_fuzzy_difference_error_paths():
    with pytest.raises(ShapeError):
        fuzzy_difference([0.1, 0.2], [0.1, 0.2, 0.3])
    with pytest.raises(DegenerateError):
        fuzzy_difference([0.0, 0.0], [0.0, 0.0])


def test_fuzzify_vector_concatenates_segments():
    parts = [build_partition(0.0, 1.0, 3, name="a"),
             build_partition(0.0, 1.0, 4, name="b")]
    degrees = fuzzify_vector(np.array([0.0, 1.0]), parts)
    assert isinstance(degrees, np.ndarray) and degrees.shape == (7,)
    assert np.allclose(degrees[:3], fuzzify(0.0, parts[0]))
    assert np.allclose(degrees[3:], fuzzify(1.0, parts[1]))


def test_mf_labels_level_names():
    assert mf_labels(4) == ("LOW", "MEDIUM-LOW", "MEDIUM-HIGH", "HIGH")
    assert mf_labels(3) == ("LOW", "MEDIUM", "HIGH")
    assert mf_labels(5) == ("LOW", "MEDIUM-LOW", "MEDIUM", "MEDIUM-HIGH",
                            "HIGH")
    assert mf_labels(6) == ("MF1", "MF2", "MF3", "MF4", "MF5", "MF6")


def _scalar_fuzzify(x, p):
    """Per-variable fuzzification as a scalar formula."""
    x = min(max(float(x), p.lo), p.hi)
    return np.exp(-((x - p.centers) ** 2) / (2.0 * p.widths * p.widths))


@st.composite
def partitions_and_rows(draw):
    """Random partitions, and rows that reach past both ends of every
    range."""
    parts = []
    for i in range(draw(st.integers(1, 6))):
        lo = draw(st.floats(-100.0, 100.0))
        span = draw(st.floats(1e-3, 100.0))
        parts.append(build_partition(lo, lo + span, draw(st.integers(2, 6)),
                                     name=f"x{i}"))
    values = [st.one_of(st.floats(p.lo - 10.0, p.hi + 10.0),
                        st.sampled_from([p.lo, p.hi, -np.inf, np.inf]))
              for p in parts]
    rows = draw(st.lists(st.tuples(*values), min_size=1, max_size=8))
    return parts, np.array(rows, dtype=float)


@settings(max_examples=80, deadline=None)
@given(partitions_and_rows())
def test_fuzzify_rows_equals_per_variable_fuzzify(parts_and_rows):
    parts, xs = parts_and_rows
    got = fuzzify_rows(xs, parts)
    for x, row in zip(xs, got, strict=True):
        want = np.concatenate([_scalar_fuzzify(v, p) for v, p in zip(x, parts)])
        assert row.tobytes() == want.tobytes()
        assert fuzzify_vector(x, parts).tobytes() == want.tobytes()
        for v, p, seg in zip(x, parts, np.split(want, np.cumsum(
                [p.size for p in parts])[:-1])):
            assert fuzzify(v, p).tobytes() == seg.tobytes()


def test_fuzzify_rows_checks_the_row_width():
    parts = [build_partition(0.0, 1.0, 3, name="a")]
    assert fuzzify_rows(np.empty((0, 1)), parts).shape == (0, 3)
    with pytest.raises(ShapeError):
        fuzzify_rows(np.zeros((2, 2)), parts)
    with pytest.raises(ShapeError):
        fuzzify_rows(np.zeros(1), parts)
