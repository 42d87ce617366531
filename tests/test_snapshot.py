from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from demandcast import arima, mlp, snapshot
from demandcast.efunn import (AggregationConfig, EfunnConfig, EfunnModel,
                              PruningConfig)
from demandcast.errors import ParseError
from demandcast.fuzzy import build_partition


def test_float_formatting_survives_round_trip():
    values = [0.1, 1 / 3, 1e-17, 123456.789, -2.5e300]
    text = snapshot.format_array(values)
    back = snapshot.parse_array(text)
    assert np.array_equal(back, np.array(values))


def test_empty_array_round_trip():
    assert snapshot.format_array([]) == ""
    assert snapshot.parse_array("").size == 0
    assert snapshot.parse_array("   ").size == 0


def test_parse_array_rejects_junk():
    with pytest.raises(ParseError):
        snapshot.parse_array("1.0 banana 2.0")


def test_header_line_round_trip():
    line = snapshot.header_line("efunn")
    assert line == "demandcast-snapshot v1 kind=efunn"
    assert snapshot.parse_header(line) == "efunn"


def test_parse_header_rejects_other_files():
    with pytest.raises(ParseError):
        snapshot.parse_header("timestamp,demand_mwh,tmin_c,tmax_c")
    with pytest.raises(ParseError):
        snapshot.parse_header("demandcast-snapshot v9 kind=mlp")
    with pytest.raises(ParseError):
        snapshot.parse_header("demandcast-snapshot v1 sort=mlp")


def test_parse_body_skips_blanks_and_requires_equals():
    body = snapshot.parse_body("header\nalpha=1\n\nbeta= 2 \n")
    assert body == {"alpha": "1", "beta": " 2 "}
    with pytest.raises(ParseError, match="no '='"):
        snapshot.parse_body("header\nnope\n")
    with pytest.raises(ParseError, match="duplicate"):
        snapshot.parse_body("header\na=1\na=2\n")


def test_need_reports_missing_keys():
    with pytest.raises(ParseError, match="missing"):
        snapshot.need({}, "layers")


def test_need_converts_and_names_bad_values():
    assert snapshot.need({"nodes": "3"}, "nodes", int) == 3
    with pytest.raises(ParseError, match="nodes"):
        snapshot.need({"nodes": "three"}, "nodes", int)


# -- property: every model round-trips byte for byte -----------------------

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EXTRAS = st.dictionaries(
    st.text("abcdefghijklmnopqrstuvwxyz0123456789._", min_size=1, max_size=12),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=20),
    max_size=4,
)
_ROUND_TRIP = settings(max_examples=25, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])


def _arrays(min_size=0, max_size=6):
    return st.lists(_FINITE, min_size=min_size, max_size=max_size).map(np.array)


@given(_arrays(max_size=20))
def test_float_codec_is_exact(values):
    back = snapshot.parse_array(snapshot.format_array(values))
    assert np.array_equal(back, values)
    assert [np.signbit(v) for v in back] == [np.signbit(v) for v in values]


def _assert_round_trip(to_text, from_text, obj, extra):
    text = to_text(obj, extra)
    back, extra_back = from_text(text)
    assert extra_back == extra
    assert list(extra_back) == list(extra)  # insertion order kept
    assert to_text(back, extra_back) == text


@st.composite
def efunn_models(draw):
    cfg = EfunnConfig(
        sthr=draw(st.floats(0.5, 0.99)),
        errthr=draw(st.floats(1e-4, 0.5)),
        lr1=draw(st.floats(0.0, 0.5)),
        lr2=draw(st.floats(0.0, 0.5)),
        lr3=draw(st.floats(0.0, 0.5)),
        tc=draw(st.floats(0.0, 0.5)),
        max_nodes=draw(st.integers(1, 12)),
        m_mode=draw(st.sampled_from(("winner_take_all", "all_above_threshold"))),
        activation=draw(st.sampled_from(("satlin", "radbas"))),
        pruning=draw(st.none() | st.builds(
            PruningConfig, old_age=st.integers(0, 5),
            low_activation=st.floats(0.0, 1.0),
            density_radius=st.floats(0.01, 1.0))),
        aggregation=draw(st.none() | st.builds(
            AggregationConfig, thr1=st.floats(0.0, 0.5),
            thr2=st.floats(0.0, 0.5))),
    )
    n_in = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("gaussian", "triangular")))
    inputs = [build_partition(0.0, 1.0, draw(st.integers(2, 4)), kind, f"x{i}")
              for i in range(n_in)]
    output = build_partition(0.0, 1.0, draw(st.integers(2, 4)), kind, "y")
    model = EfunnModel(cfg, inputs, output)
    unit = st.floats(0.0, 1.0)
    for _ in range(draw(st.integers(0, 15))):
        model.learn_one(np.array(draw(st.lists(unit, min_size=n_in,
                                               max_size=n_in))), draw(unit))
    if cfg.pruning is not None:
        model.prune()
    if cfg.aggregation is not None:
        model.aggregate()
    return model


@_ROUND_TRIP
@given(efunn_models(), _EXTRAS)
def test_efunn_snapshot_round_trips_byte_for_byte(model, extra):
    _assert_round_trip(lambda m, e: m.to_text(e), EfunnModel.from_text,
                       model, extra)


@st.composite
def mlp_models(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    model = mlp.init_mlp(sizes, draw(st.integers(0, 2**32 - 1)))
    scale = draw(_FINITE)
    model.weights = [w * scale for w in model.weights]
    model.biases = [draw(_arrays(b.size, b.size)) for b in model.biases]
    return model


@_ROUND_TRIP
@given(mlp_models(), _EXTRAS)
def test_mlp_snapshot_round_trips_byte_for_byte(model, extra):
    _assert_round_trip(mlp.to_text, mlp.from_text, model, extra)


@st.composite
def arima_fits(draw):
    orders = st.integers(0, 2)
    spec = arima.ArimaSpec(p=draw(orders), d=draw(orders), q=draw(orders),
                           sp=draw(orders), sd=draw(orders), sq=draw(orders),
                           season=draw(st.integers(2, 48)),
                           pre_diff_lag=draw(st.integers(0, 336)))
    stages = draw(st.lists(st.tuples(st.integers(1, 48), _arrays(1)),
                           max_size=3))
    return arima.ArimaFit(
        spec=spec, intercept=draw(_FINITE),
        ar=draw(_arrays(spec.p, spec.p)), ma=draw(_arrays(spec.q, spec.q)),
        seasonal_ar=draw(_arrays(spec.sp, spec.sp)),
        seasonal_ma=draw(_arrays(spec.sq, spec.sq)),
        residuals=draw(_arrays()), sigma2=draw(_FINITE),
        training_tail=arima.ForecastAnchors(
            stages=stages, z_tail=draw(_arrays()), e_tail=draw(_arrays())),
        near_unit_root=draw(st.booleans()),
        iterations=draw(st.integers(0, 200)), sse=draw(_FINITE),
    )


@_ROUND_TRIP
@given(arima_fits(), _EXTRAS)
def test_arima_snapshot_round_trips_byte_for_byte(fit, extra):
    _assert_round_trip(arima.to_text, arima.from_text, fit, extra)


# -- atomic writes -----------------------------------------------------------


def test_failed_write_keeps_previous_snapshot(tmp_path, monkeypatch):
    path = tmp_path / "model.snap"
    mlp.save(mlp.init_mlp((2, 3, 1), seed=0), path)
    before = path.read_bytes()
    real_write_text = Path.write_text

    def write_half_then_fail(self, text, *args, **kwargs):
        real_write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        mlp.save(mlp.init_mlp((2, 3, 1), seed=1), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.snap"]
