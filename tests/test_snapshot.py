import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from demandcast import arima, mlp, snapshot
from demandcast.efunn import EfunnConfig, EfunnModel
from demandcast.errors import DataError, ParseError
from demandcast.fuzzy import build_partition, defuzzify, fuzzify, satlin


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


_TOKENS = st.one_of(
    st.text("0123456789.eE+-naifNAIFty()x_", min_size=1, max_size=8),
    st.floats().map(snapshot.format_float), st.floats().map(repr),
)


@given(st.lists(_TOKENS, max_size=6), st.sampled_from([" ", "  ", "\t"]))
@example(["nan(abc)"], " ")
@example(["1_000", "2"], " ")
@example(["0x10"], " ")
@example([], "  ")
@example(["5e-324", "-inf", "nan", "1e-400", "1e500"], " ")
def test_parse_array_accepts_what_float_accepts(tokens, sep):
    text = sep + sep.join(tokens) + sep
    try:
        want = np.array([float(t) for t in text.split()])
    except ValueError:
        with pytest.raises(ParseError):
            snapshot.parse_array(text)
        return
    got = snapshot.parse_array(text)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got[~np.isnan(got)]),
                          np.signbit(want[~np.isnan(want)]))


def test_header_line_round_trip():
    line = snapshot.header_line("efunn")
    assert line == "demandcast-snapshot v3 kind=efunn"
    assert snapshot.parse_header(line) == "efunn"


def test_parse_header_rejects_other_files():
    with pytest.raises(ParseError):
        snapshot.parse_header("timestamp,demand_mwh,tmin_c,tmax_c")
    with pytest.raises(ParseError):
        snapshot.parse_header("demandcast-snapshot v9 kind=mlp")
    with pytest.raises(ParseError):
        snapshot.parse_header("demandcast-snapshot v3 sort=mlp")


@pytest.mark.parametrize("kind", ["efunn", "mlp", "arima"])
@pytest.mark.parametrize("version", ["v1", "v2"])
def test_parse_header_refuses_older_formats(version, kind):
    with pytest.raises(ParseError, match=f"format '{version}' is not read, "
                       "only 'v3': retrain the model with 'demandcast train'"):
        snapshot.parse_header(f"demandcast-snapshot {version} kind={kind}")


def test_load_skips_blanks_and_requires_equals():
    head = snapshot.header_line("mlp") + "\n"
    body, extra = snapshot.load(head + "alpha=1\n\nbeta= 2 \n", "mlp")
    assert (body, extra) == ({"alpha": "1", "beta": " 2 "}, {})
    with pytest.raises(ParseError, match="no '='"):
        snapshot.load(head + "nope\n", "mlp")
    with pytest.raises(ParseError, match="duplicate"):
        snapshot.load(head + "a=1\na=2\n", "mlp")


def test_need_reports_missing_keys():
    with pytest.raises(ParseError, match="missing"):
        snapshot.need({}, "layers")


def test_need_converts_and_names_bad_values():
    assert snapshot.need({"nodes": "3"}, "nodes", int) == 3
    with pytest.raises(ParseError, match="nodes"):
        snapshot.need({"nodes": "three"}, "nodes", int)
    body = {"w2": "1 2"}
    assert snapshot.need(body, "w2", snapshot.parse_finite, 2).tolist() == [
        1.0, 2.0]
    with pytest.raises(ParseError, match="'w2' holds 2 values, expected 3"):
        snapshot.need(body, "w2", snapshot.parse_finite, 3)


_SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1 / 3])


_VALUE = st.one_of(_SPECIAL, st.floats())


@given(st.one_of(
    # every value repeats
    st.lists(_VALUE, max_size=30).map(lambda v: v + v[::-1]),
    # one value throughout: one bit pattern formatted for every entry
    st.builds(lambda v, n: [v] * (2 * n), _VALUE, st.integers(1, 40)),
))
@example([0.0] * 8)
@example([-0.0] * 8)
@example([np.nan] * 8)
@example([0.0, -0.0, -0.0, 0.0])  # equal values, two bit patterns
def test_format_array_formats_every_entry_as_format_float(values):
    a = np.array(values, dtype=float)
    expected = " ".join(snapshot.format_float(v) for v in a)
    assert snapshot.format_array(a) == expected
    assert snapshot.format_array(a.reshape(2, -1)) == expected


@pytest.mark.parametrize("extra", [
    {"note": "a\nb=2"}, {"note": "a\nplain"}, {"note": "a\r"},
    {"note": "a\u2028b"}, {"a=b": "v"}, {"a\nb": "v"},
])
def test_extras_that_cannot_round_trip_are_refused(extra, tmp_path):
    [key] = extra
    model = mlp.init_mlp((1, 1), seed=0)
    with pytest.raises(DataError, match=re.escape(repr(f"extra.{key}"))):
        mlp.to_text(model, extra)
    with pytest.raises(DataError):
        mlp.save(model, tmp_path / "m.snap", extra)
    assert list(tmp_path.iterdir()) == []


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
    )
    thr = draw(st.none() | st.floats(0.0, 0.5))
    n_in = draw(st.integers(1, 3))
    inputs = [build_partition(0.0, 1.0, draw(st.integers(2, 4)), f"x{i}")
              for i in range(n_in)]
    output = build_partition(0.0, 1.0, draw(st.integers(2, 4)), "y")
    model = EfunnModel(cfg, inputs, output)
    unit = st.floats(0.0, 1.0)
    for _ in range(draw(st.integers(0, 15))):
        model.learn_one(np.array(draw(st.lists(unit, min_size=n_in,
                                               max_size=n_in))), draw(unit))
    if thr is not None:
        model.aggregate(thr, thr)
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
    for w in model.weights:  # views of the model's parameter vector
        w *= scale
    for b in model.biases:
        b[...] = draw(_arrays(b.size, b.size))
    return model


@_ROUND_TRIP
@given(mlp_models(), _EXTRAS)
def test_mlp_snapshot_round_trips_byte_for_byte(model, extra):
    _assert_round_trip(mlp.to_text, mlp.from_text, model, extra)


def _tiled(size):
    """Arrays of ``size`` values: a drawn run of up to six, repeated, so
    that a weekly anchor costs no more to draw than a short one."""
    return _arrays(1).map(lambda a: np.resize(a, size))


@st.composite
def arima_fits(draw):
    orders = st.integers(0, 2)
    spec = arima.ArimaSpec(p=draw(orders), d=draw(orders), q=draw(orders),
                           sp=draw(orders), sd=draw(orders), sq=draw(orders),
                           season=draw(st.integers(2, 48)),
                           pre_diff_lag=draw(st.integers(0, 336)))
    # the sizes fit gives: from_text refuses a fit with other ones, or
    # with residuals too few for the MA reach
    residuals = draw(_tiled(max(1, spec.ma_reach - spec.ar_reach + 1)
                            + draw(st.integers(0, 6))))
    return arima.ArimaFit(
        spec=spec, intercept=draw(_FINITE),
        ar=draw(_arrays(spec.p, spec.p)), ma=draw(_arrays(spec.q, spec.q)),
        seasonal_ar=draw(_arrays(spec.sp, spec.sp)),
        seasonal_ma=draw(_arrays(spec.sq, spec.sq)),
        residuals=residuals, sigma2=draw(_FINITE),
        training_tail=arima.ForecastAnchors(
            stages=[(lag, draw(_tiled(lag))) for lag in spec.stage_lags()],
            z_tail=draw(_tiled(spec.ar_reach)),
            e_tail=draw(_tiled(min(spec.ma_reach, residuals.size)))),
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
    real_format_array = snapshot.format_array
    calls = []

    def fail_after_first_array(a):
        # weight.0 of a (2, 400, 1) net is longer than the file buffer,
        # so the temp file already holds data when bias.0 fails
        if calls:
            [tmp] = tmp_path.glob("*.tmp")
            assert tmp.stat().st_size > 0
            raise OSError("disk full")
        calls.append(a)
        return real_format_array(a)

    monkeypatch.setattr(snapshot, "format_array", fail_after_first_array)
    with pytest.raises(OSError, match="disk full"):
        mlp.save(mlp.init_mlp((2, 400, 1), seed=1), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.snap"]


# -- streamed reads ----------------------------------------------------------


def _small_efunn():
    model = EfunnModel(EfunnConfig(),
                       [build_partition(0.0, 1.0, 3, "x0")],
                       build_partition(0.0, 1.0, 3, "y"))
    for x, y in ((0.1, 0.2), (0.9, 0.7), (0.5, 0.5), (0.12, 0.21)):
        model.learn_one(np.array([x]), y)
    return model


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("kind", ["efunn", "mlp", "arima"])
def test_load_reads_a_file_as_from_text_reads_its_text(kind, newline,
                                                       tmp_path):
    if kind == "efunn":
        obj, to_text, load = _small_efunn(), EfunnModel.to_text, EfunnModel.load
    elif kind == "mlp":
        obj, to_text, load = mlp.init_mlp((2, 3, 1), seed=0), mlp.to_text, mlp.load
    else:
        obj, to_text, load = (arima.fit(np.sin(np.arange(80) / 3.0),
                                        arima.ArimaSpec(p=1, d=1, q=0)),
                              arima.to_text, arima.load)
    text = to_text(obj, {"note": "kept"})
    path = tmp_path / "model.snap"
    path.write_bytes(text.replace("\n", newline).encode())
    back, extra = load(path)
    assert extra == {"note": "kept"}
    assert to_text(back, extra) == text


def _big_efunn():
    rng = np.random.default_rng(0)
    model = EfunnModel(EfunnConfig(), [build_partition(0.0, 1.0, 4, f"x{i}")
                                       for i in range(6)],
                       build_partition(0.0, 1.0, 4, "y"))
    for _ in range(3000):
        model.create_rule_node(rng.random(24), rng.random(4))
    return model


def _load_growth(path):
    """Growth of the peak resident set of a process loading ``path``."""
    src = Path(snapshot.__file__).parents[1]
    # VmHWM, this process's own peak: ru_maxrss would start at the
    # peak of the process that spawned it
    probe = ("import sys\n"
             "from demandcast.efunn import EfunnModel\n"
             "def peak():\n"
             "    with open('/proc/self/status') as fh:\n"
             "        return next(int(line.split()[1]) for line in fh\n"
             "                    if line.startswith('VmHWM:'))\n"
             "before = peak()\n"
             "model, _ = EfunnModel.load(sys.argv[1])\n"
             "assert model.n_nodes == 3000\n"
             "print((peak() - before) * 1024)\n")
    proc = subprocess.run([sys.executable, "-c", probe, str(path)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    return int(proc.stdout)


@pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                    reason="reads the peak resident set from /proc")
def test_load_holds_about_the_file_text_once(tmp_path):
    # a snapshot holds an array on one line (nodes.w1 is 85 % of this
    # file): the body, that line's passing copies and the model's own
    # arrays stay within three times the file
    path = tmp_path / "big.snap"
    _big_efunn().save(path)
    assert _load_growth(path) < 3 * path.stat().st_size


# -- committed snapshots --------------------------------------------------

_DATA = Path(__file__).parent / "data"
_CODECS = {"efunn": (EfunnModel.load, EfunnModel.save),
           "mlp": (mlp.load, mlp.save), "arima": (arima.load, arima.save)}


def _as_saved(text: str) -> str:
    """``text`` less the lines efunn.snap still holds that loading skips
    and saving leaves out: the node budget, the count of examples learned
    and the per-node counts nodes.age and nodes.absorbed."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(("config.max_nodes=", "nodes.age=",
                                           "nodes.absorbed=",
                                           "examples_seen=")))


@pytest.mark.parametrize("path", sorted(_DATA.glob("*.snap")),
                         ids=lambda path: path.name)
def test_committed_snapshot_loads_and_saves_byte_for_byte(path, tmp_path):
    load, save = _CODECS[snapshot.read_kind(path)]
    model, extra = load(path)
    save(model, tmp_path / "again.snap", extra)
    assert (tmp_path / "again.snap").read_text() == _as_saved(
        path.read_text())


def _fixture_stream():
    """The examples efunn.snap learned, in order: a 30-step pattern
    three times over."""
    inputs = [build_partition(0.0, 1.0, 3, "x0"),
              build_partition(0.0, 1.0, 4, "x1")]
    output = build_partition(0.0, 1.0, 3, "y")
    model = EfunnModel(EfunnConfig(sthr=0.9, errthr=0.1), inputs, output)
    for k in range(90):
        p = k % 30
        model.learn_one(np.array([(7 * p % 16) / 15, (p % 11) / 10]),
                        (5 * p % 13) / 12)
    return model


def _row_major_predict(model, grid):
    """The crisp outputs of ``grid`` computed a row at a time from the
    model's centroids by the row-major formulas: satlin of one minus the
    normalized fuzzy difference, then the activation-weighted blend of
    the nodes above sthr (or the winner), defuzzified."""
    w1 = np.ascontiguousarray(model.w1)
    w2 = model.w2
    out = []
    for x in grid:
        ex = np.concatenate([fuzzify(v, p)
                             for v, p in zip(x, model.input_partitions)])
        gaps = np.abs(w1 - ex)  # added one degree after another
        dist = np.minimum(functools.reduce(np.add, gaps.T)
                          / (w1.sum(axis=1) + ex.sum()), 1.0)
        a1 = satlin(1.0 - dist)
        sel = np.flatnonzero(a1 > model.config.sthr)
        if sel.size == 0:
            sel = np.array([int(np.argmax(a1))])
        total = a1[sel].sum()
        a2 = satlin(a1[sel] @ w2[sel] / total if total > 0.0
                    else w2[sel].mean(axis=0))
        out.append(defuzzify(a2, model.output_partition))
    return out


def test_efunn_fixture_loads_to_the_same_model():
    # 34 nodes learned from _fixture_stream, which passes over each of
    # its 30 examples three times
    path = _DATA / "efunn.snap"
    model, extra = EfunnModel.load(path)
    body, _ = snapshot.load(path.read_text(), "efunn")
    n = int(body["nodes"])
    assert model.n_nodes == n == 34
    # the file predates the removal of the per-node counts
    assert "nodes.age" in body and "nodes.absorbed" in body
    for key, name in (("nodes.w1", "w1"), ("nodes.w2", "w2")):
        assert getattr(model, name)[:n].ravel().tolist() == [
            float(v) for v in body[key].split()]
    # today's learning of the same stream gives the same model
    assert _fixture_stream().to_text() == model.to_text()
    grid = snapshot.parse_array(extra["predict.grid"]).reshape(-1, 2)
    values = snapshot.parse_array(extra["predict.values"]).tolist()
    assert _row_major_predict(model, grid) == values
    assert model.predict(grid).tolist() == values


def test_efunn_snapshot_naming_the_implemented_rule_loads_as_without(
        tmp_path):
    # snapshots once named the activation and propagation rule at the end
    # of the config block; lines naming the one rule implemented load to
    # the same model, and saving again leaves them out
    text = (_DATA / "efunn.snap").read_text()
    at = text.index("\ninputs=") + 1
    path = tmp_path / "named.snap"
    path.write_text(text[:at] + "config.m_mode=all_above_threshold\n"
                    "config.activation=satlin\n" + text[at:])
    model, extra = EfunnModel.load(path)
    want, want_extra = EfunnModel.from_text(text)
    assert model.to_text(extra) == want.to_text(want_extra) == _as_saved(text)
    grid = snapshot.parse_array(extra["predict.grid"]).reshape(-1, 2)
    assert model.predict(grid).tolist() == snapshot.parse_array(
        extra["predict.values"]).tolist()


def test_efunn_snapshot_holding_mean_activations_loads_as_without(tmp_path):
    # snapshots once held each node's running mean activation between
    # its age and absorbed counts; no rule reads it, so the line loads to
    # the same model and saving again leaves it out
    text = (_DATA / "efunn.snap").read_text()
    at = text.index("\nnodes.absorbed=") + 1
    path = tmp_path / "a1av.snap"
    path.write_text(text[:at] + "nodes.a1av=" + " ".join(["0.5"] * 34)
                    + "\n" + text[at:])
    model, extra = EfunnModel.load(path)
    want, want_extra = EfunnModel.from_text(text)
    assert model.to_text(extra) == want.to_text(want_extra) == _as_saved(text)
    grid = snapshot.parse_array(extra["predict.grid"]).reshape(-1, 2)
    assert model.predict(grid).tolist() == snapshot.parse_array(
        extra["predict.values"]).tolist()


_PRUNING_LINES = ("config.pruning.old_age=1000\n"
                  "config.pruning.low_activation=0.050000000000000003\n"
                  "config.pruning.density_radius=0.10000000000000001\n"
                  "config.aggregation.thr1=0.050000000000000003\n"
                  "config.aggregation.thr2=0.050000000000000003\n")


def test_efunn_snapshot_with_a_pruning_block_loads_as_without(tmp_path):
    # snapshots once held pruning and aggregation settings where the
    # config block ends; no decoder reads them, and saving again leaves
    # them out
    text = (_DATA / "efunn.snap").read_text()
    at = text.index("\ninputs=") + 1
    path = tmp_path / "pruned.snap"
    path.write_text(text[:at] + _PRUNING_LINES + text[at:])
    model, extra = EfunnModel.load(path)
    want, want_extra = EfunnModel.from_text(text)
    assert model.to_text(extra) == want.to_text(want_extra)
    assert "pruning" not in model.to_text(extra)
    assert "aggregation" not in model.to_text(extra)
    grid = snapshot.parse_array(extra["predict.grid"]).reshape(-1, 2)
    assert model.predict(grid).tolist() == snapshot.parse_array(
        extra["predict.values"]).tolist()
