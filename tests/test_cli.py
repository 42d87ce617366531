import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from demandcast import bench, dataset, mlp, snapshot
from demandcast.cli import main
from demandcast.efunn import EfunnConfig, EfunnModel
from demandcast.fuzzy import build_partition


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "demand.csv"
    assert main(["synth", "--days", "40", "--seed", "3",
                 "--out", str(path)]) == 0
    return path


def test_synth_writes_parseable_csv(data_csv):
    records = dataset.parse_csv(data_csv)
    assert len(records) == 40 * 48


def test_synth_accepts_generator_config(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("base=5000\nweekend_drop=200\n")
    out = tmp_path / "demand.csv"
    assert main(["synth", "--days", "2", "--seed", "0", "--out", str(out),
                 "--config", str(cfg)]) == 0
    assert len(dataset.parse_csv(out)) == 96


def test_train_and_forecast_efunn(data_csv, tmp_path, capsys):
    snap = tmp_path / "efunn.snap"
    assert main(["train", "--model", "efunn", "--data", str(data_csv),
                 "--out", str(snap)]) == 0
    assert snap.read_text().startswith("demandcast-snapshot v3 kind=efunn")
    out = capsys.readouterr().out
    assert "1 pass" in out

    fc = tmp_path / "fc.csv"
    assert main(["forecast", "--snapshot", str(snap), "--data", str(data_csv),
                 "--out", str(fc)]) == 0
    lines = fc.read_text().splitlines()
    assert lines[0] == "period,timestamp,actual_mwh,predicted_mwh"
    assert len(lines) == 97


def test_train_and_forecast_mlp(data_csv, tmp_path):
    snap = tmp_path / "mlp.snap"
    assert main(["train", "--model", "mlp-scg", "--data", str(data_csv),
                 "--out", str(snap), "--epochs", "3", "--seed", "1"]) == 0
    assert snap.read_text().startswith("demandcast-snapshot v3 kind=mlp")
    fc = tmp_path / "fc.csv"
    assert main(["forecast", "--snapshot", str(snap), "--data", str(data_csv),
                 "--out", str(fc)]) == 0
    assert len(fc.read_text().splitlines()) == 97


def test_train_and_forecast_arima(data_csv, tmp_path):
    snap = tmp_path / "arima.snap"
    assert main(["train", "--model", "arima", "--data", str(data_csv),
                 "--out", str(snap)]) == 0
    assert snap.read_text().startswith("demandcast-snapshot v3 kind=arima")
    fc = tmp_path / "fc.csv"
    assert main(["forecast", "--snapshot", str(snap), "--data", str(data_csv),
                 "--out", str(fc)]) == 0
    assert len(fc.read_text().splitlines()) == 97


def test_train_arima_accepts_order_config(data_csv, tmp_path):
    cfg = tmp_path / "order.cfg"
    cfg.write_text("p=0\nd=1\nq=0\n")
    snap = tmp_path / "rw.snap"
    assert main(["train", "--model", "arima", "--data", str(data_csv),
                 "--out", str(snap), "--config", str(cfg)]) == 0
    assert "spec.d=1" in snap.read_text()


def test_rules_prints_if_then_lines(data_csv, tmp_path, capsys):
    snap = tmp_path / "efunn.snap"
    main(["train", "--model", "efunn", "--data", str(data_csv),
          "--out", str(snap)])
    capsys.readouterr()
    assert main(["rules", "--snapshot", str(snap)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("IF ")
    assert "THEN demand is" in out

    rules_file = tmp_path / "rules.txt"
    assert main(["rules", "--snapshot", str(snap),
                 "--out", str(rules_file)]) == 0
    assert rules_file.read_text().startswith("IF ")


def test_efunn_snapshot_of_three_mfs_still_forecasts(data_csv, tmp_path,
                                                    capsys):
    # train builds 4 MFs per variable; a snapshot carries its own partitions
    records = dataset.parse_csv(data_csv)
    _, test_start = bench.holdout(records, dataset.HALF_HOURS_PER_DAY,
                                  data_csv)
    x, y, stats = bench.training_pool(records, test_start)
    model = EfunnModel(EfunnConfig(), [build_partition(0.0, 1.0, 3, name)
                                       for name in dataset.FEATURE_NAMES],
                       build_partition(0.0, 1.0, 3, dataset.TARGET_NAME))
    for xi, yi in zip(x[::8], y[::8]):
        model.learn_one(xi, yi)
    snap = tmp_path / "three.snap"
    model.save(snap, extra={"norm.mins": snapshot.format_array(stats.mins),
                            "norm.maxs": snapshot.format_array(stats.maxs)})
    fc = tmp_path / "fc.csv"
    assert main(["forecast", "--snapshot", str(snap), "--data", str(data_csv),
                 "--out", str(fc)]) == 0
    _, want = bench.recursive_forecast(records, stats, model.predict,
                                       test_start)
    got = [float(row.split(",")[3])
           for row in fc.read_text().splitlines()[1:]]
    assert np.allclose(got, want)
    capsys.readouterr()
    assert main(["rules", "--snapshot", str(snap)]) == 0
    rules = capsys.readouterr().out.splitlines()
    assert rules == [r.text() for r in model.extract_rules()]


def test_bench_writes_report_directory(tmp_path):
    out = tmp_path / "rep"
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("n_samples=2\nmodels=efunn arima\n")
    assert main(["bench", "--days", "40", "--seed", "2", "--epochs", "4",
                 "--out", str(out), "--config", str(cfg)]) == 0
    for name in ("report.csv", "forecast.csv", "convergence.csv",
                 "forecast.svg"):
        assert (out / name).exists()


def test_usage_problems_exit_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["nonsense"]) == 1
    assert main(["train", "--model", "efunn"]) == 1  # missing required flags
    assert main(["train", "--model", "tree", "--data", "x", "--out", "y"]) == 1
    capsys.readouterr()


def test_missing_and_malformed_data_exit_1(tmp_path, capsys):
    assert main(["train", "--model", "efunn", "--data",
                 str(tmp_path / "absent.csv"), "--out",
                 str(tmp_path / "m.snap")]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n")
    assert main(["train", "--model", "efunn", "--data", str(bad),
                 "--out", str(tmp_path / "m.snap")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_short_series_exits_1(tmp_path, capsys):
    short = tmp_path / "short.csv"
    main(["synth", "--days", "2", "--seed", "0", "--out", str(short)])
    assert main(["train", "--model", "efunn", "--data", str(short),
                 "--out", str(tmp_path / "m.snap")]) == 1
    capsys.readouterr()


def test_unknown_config_key_exits_1(data_csv, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_speed=9\n")
    assert main(["train", "--model", "efunn", "--data", str(data_csv),
                 "--out", str(tmp_path / "m.snap"),
                 "--config", str(cfg)]) == 1
    capsys.readouterr()


def test_divergent_training_exits_2(data_csv, tmp_path, capsys):
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("epsilon=1e9\nalpha=0.9\n")
    code = main(["train", "--model", "mlp-bp", "--data", str(data_csv),
                 "--out", str(tmp_path / "m.snap"), "--epochs", "50",
                 "--config", str(cfg)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_forecast_without_norm_stats_exits_1(data_csv, tmp_path, capsys):
    from demandcast import mlp
    snap = tmp_path / "bare.snap"
    mlp.save(mlp.init_mlp((6, 4, 1), seed=0), snap)  # no extras
    assert main(["forecast", "--snapshot", str(snap),
                 "--data", str(data_csv),
                 "--out", str(tmp_path / "fc.csv")]) == 1
    capsys.readouterr()


def test_version_exits_0(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "demandcast", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "demandcast" in proc.stdout


def test_stdout_closed_early_exits_141_quietly():
    # no reader at all, as when ``| head -1`` has had its line
    proc = subprocess.Popen(
        [sys.executable, "-m", "demandcast", "rules", "--snapshot",
         str(Path(__file__).parent / "data" / "efunn.snap")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


EXIT_1_CASES = (
    "bad csv header", "timestamp gap", "nan demand, mlp", "nan demand, efunn",
    "non-numeric efunn config", "non-numeric arima config",
    "non-numeric bench config", "mlp snapshot to rules",
    "arima on another csv", "arima on a longer csv", "corrupt efunn field",
    "corrupt efunn array", "binary snapshot", "unimplemented mlp activation",
    "nan mlp weight", "nan arima coefficient", "nan efunn weight",
    *(f"format {version} {case}" for version in (1, 2)
      for case in ("efunn forecast", "mlp forecast", "arima forecast",
                   "efunn rules")),
    "huge efunn node count", "huge arima differencing order",
    *(f"removed efunn key {key}"
      for key in ("lr3", "tc", "ss", "activation", "mf_count")),
    *(f"removed bench key {key}" for key in ("test_periods", "mf_count")),
    "unimplemented efunn activation", "unimplemented efunn m_mode",
    "one-value norm bounds", "nan norm min", "norm max at its min",
    "zero-unit mlp layer", "extra arima coefficient",
    "short arima z_tail", "short arima e_tail", "arima stage lag",
    "arima spec longer than the series", "bench on 10 january days",
    "efunn bench on 10 january days", "efunn train on 10 january days",
    "non-utf-8 csv", "non-utf-8 config", "repeated bench model",
    "short mlp weight", "triangular efunn forecast", "triangular efunn rules",
    "huge arima season config", "huge arima season snapshot",
    "nan synth config", "inf train config", "nan bench config",
    "backprop key for mlp-scg", "two-output mlp forecast",
    "two-input efunn forecast",
    *(f"negative {model} epochs" for model in ("efunn", "arima")),
)


@pytest.fixture(scope="module")
def bad_inputs(data_csv, tmp_path_factory):
    """Per case: argv that must exit 1, and text its error must contain."""
    d = tmp_path_factory.mktemp("bad")
    lines = data_csv.read_text().splitlines(keepends=True)

    def write(name, text):
        (d / name).write_text(text)
        return str(d / name)

    fields = lines[10].split(",")
    nan_row = ",".join([fields[0], "nan"] + fields[2:])
    header = write("header.csv", "wrong,header\n")
    gap = write("gap.csv", "".join(lines[:100] + lines[101:]))
    nan = write("nan.csv", "".join(lines[:10] + [nan_row] + lines[11:]))
    efunn_cfg = write("efunn.cfg", "# tuned\nsthr=high\n")
    # a 0xff byte, which no UTF-8 text holds, in a demand and a config value
    latin = str(d / "latin.csv")
    (d / "latin.csv").write_bytes("".join(
        lines[:10] + [",".join([fields[0], "1\xff"] + fields[2:])]
        + lines[11:]).encode("latin-1"))
    latin_cfg = str(d / "latin.cfg")
    (d / "latin.cfg").write_bytes(b"sthr=0.9\xff\n")
    repeat_cfg = write("repeat.cfg", "models=efunn arima efunn\n")
    arima_cfg = write("arima.cfg", "p=one\n")
    bench_cfg = write("bench.cfg", "n_samples=two\n")
    mlp_snap, arima_snap = str(d / "mlp.snap"), str(d / "arima.snap")
    other, longer, out = str(d / "other.csv"), str(d / "longer.csv"), str(d / "o")
    mlp.save(mlp.init_mlp((6, 4, 1), seed=0), mlp_snap)
    efunn_snap, act_snap = str(d / "efunn.snap"), str(d / "act.snap")
    model = EfunnModel(EfunnConfig(), *bench.make_partitions())
    model.learn_one(np.full(6, 0.5), 0.5)
    text = model.to_text()
    write("efunn.snap", text.replace("\nnodes=1\n", "\nnodes=many\n"))
    array_snap = write("array.snap", re.sub(r"\nnodes\.w1=[^\n]*",
                                            "\nnodes.w1=banana", text))
    binary = str(d / "binary.snap")  # shaped like the head of an executable
    (d / "binary.snap").write_bytes(b"\x7fELF\x02\x01\x01"
                                    + bytes(range(256)) * 8)
    short_weight = write("short-weight.snap", re.sub(
        r"\nweight\.0=(\S+)[^\n]*", r"\nweight.0=\1",
        (d / "mlp.snap").read_text()))
    unknown = mlp.init_mlp((6, 4, 1), seed=0)
    unknown.hidden_activation = "xx"
    mlp.save(unknown, act_snap)
    assert main(["train", "--model", "arima", "--data", str(data_csv),
                 "--out", arima_snap]) == 0
    # one parameter of each model set to nan: the file parses, but every
    # forecast from it would be nan or quietly wrong
    nan_mlp = write("nan-mlp.snap", re.sub(
        r"\nweight\.1=\S+", "\nweight.1=nan", (d / "mlp.snap").read_text()))
    nan_arima = write("nan-arima.snap", re.sub(
        r"\nar=[^\n]*", "\nar=nan", (d / "arima.snap").read_text()))
    nan_efunn = write("nan-efunn.snap", re.sub(
        r"\nnodes\.w2=\S+", "\nnodes.w2=nan", text))
    arima_text = (d / "arima.snap").read_text()
    # each would forecast plausible, wrong values if it loaded
    extra_ar = write("extra-ar.snap", re.sub(r"\nar=([^\n]*)", r"\nar=\1 0.5",
                                             arima_text))
    z_short, e_short = (write(f"{key}.snap", re.sub(
        rf"\n{key}=(\S+)[^\n]*", rf"\n{key}=\1", arima_text))
        for key in ("z_tail", "e_tail"))
    lag = write("lag.snap", arima_text.replace("\nstage.1.lag=1\n",
                                               "\nstage.1.lag=2\n"))
    huge_d = write("huge-d.snap", arima_text.replace("\nspec.d=1\n",
                                                     "\nspec.d=1000000000000\n"))
    # a trained snapshot of each network, with normalization bounds
    trained = {"efunn": str(d / "trained-efunn.snap"),
               "mlp": str(d / "trained-mlp.snap")}
    assert main(["train", "--model", "efunn", "--data", str(data_csv),
                 "--out", trained["efunn"]]) == 0
    assert main(["train", "--model", "mlp-scg", "--data", str(data_csv),
                 "--out", trained["mlp"], "--epochs", "2"]) == 0

    def norm(name, kind, edit):
        # the trained snapshot with its bounds' value texts rewritten by
        # edit(mins, maxs): they parse, but would forecast wrong values
        text = Path(trained[kind]).read_text()
        bounds = dict(re.findall(r"\nextra\.norm\.(\w+)=([^\n]*)", text))
        edited = edit(bounds["mins"].split(), bounds["maxs"].split())
        for key, values in zip(("mins", "maxs"), edited):
            text = re.sub(rf"\nextra\.norm\.{key}=[^\n]*",
                          f"\nextra.norm.{key}={' '.join(values)}", text)
        return write(name, text)

    one_value = norm("one.snap", "efunn", lambda lo, hi: (lo[:1], hi[:1]))
    nan_min = norm("nan-min.snap", "efunn",
                   lambda lo, hi: (["nan"] + lo[1:], hi))
    flat_max = norm("flat-max.snap", "mlp",
                    lambda lo, hi: (lo, lo[:1] + hi[1:]))
    # a fresh snapshot of each kind with a format 1 or 2 header
    old = {(version, kind): write(f"{kind}-v{version}.snap",
                                  Path(snap).read_text()
                                  .replace(" v3 ", f" v{version} ", 1))
           for version in (1, 2)
           for kind, snap in (*trained.items(), ("arima", arima_snap))}

    def retrain(version):
        return (f"snapshot format 'v{version}' is not read, only 'v3': "
                "retrain the model with 'demandcast train'")

    # a node count no array fits, which must not size an allocation
    text = Path(trained["efunn"]).read_text()
    nodes = int(re.search(r"\nnodes=(\d+)\n", text)[1])
    huge = write("huge.snap", text.replace(f"\nnodes={nodes}\n",
                                           "\nnodes=1000000000000\n"))
    removed = {key: write(f"{key}.cfg", f"sthr=0.9\n{key}={value}\n")
               for key, value in (("lr3", 0.3), ("tc", 0.2), ("ss", 2),
                                  ("activation", "radbas"), ("mf_count", 3))}
    # one test window and one partition layout: bench sets neither
    removed_bench = {key: write(f"bench-{key}.cfg", f"{key}={value}\n")
                     for key, value in (("test_periods", 48), ("mf_count", 3))}
    # learn_one and predict implement one activation and one propagation
    # rule, which older snapshots name in the config block
    rule = {key: write(f"{key}.snap", text.replace(
                "\ninputs=", f"\nconfig.{key}={value}\ninputs=", 1))
            for key, value in (("activation", "radbas"),
                               ("m_mode", "winner_take_all"))}
    # fuzzify_rows implements Gaussian MFs only
    triangular = write("triangular.snap", text.replace(
        "\npartition.in.0.kind=gaussian\n",
        "\npartition.in.0.kind=triangular\n"))
    # a seasonal MA reach no series or snapshot array covers
    season_cfg = write("season.cfg", "p=1\nd=1\nq=0\nsp=0\nsd=0\nsq=1\n"
                       "season=1000000000000\n")
    assert main(["train", "--model", "arima", "--data", str(data_csv),
                 "--out", str(d / "sma.snap"), "--config",
                 write("sma.cfg", "p=1\nd=1\nq=0\nsp=0\nsd=0\nsq=1\n"
                       "season=48\n")]) == 0
    season_snap = write("season.snap", re.sub(
        r"\nresiduals=[^\n]*", "\nresiduals=0.5", re.sub(
            r"\ne_tail=[^\n]*", "\ne_tail=0.5",
            (d / "sma.snap").read_text().replace(
                "\nspec.season=48\n", "\nspec.season=1000000000000\n"))))
    # a non-finite number in each command's config file
    nan_synth = write("nan-synth.cfg", "temp_noise=nan\n")
    inf_train = write("inf-train.cfg", "sthr=0.9\nlr1=inf\n")
    nan_bench = write("nan-bench.cfg", "training_fraction=nan\n")
    scg_cfg = write("scg.cfg", "layers=6 4 1\nepsilon=0.5\nalpha=0.1\n")
    # networks that do not map the six features to one output, with the
    # normalization bounds of a trained snapshot
    norm_extra = mlp.load(trained["mlp"])[1]
    wide_mlp = str(d / "wide-mlp.snap")
    mlp.save(mlp.init_mlp((6, 4, 2), seed=0), wide_mlp, norm_extra)
    inputs, output = bench.make_partitions()
    two_in = EfunnModel(EfunnConfig(), inputs[:2], output)
    two_in.learn_one(np.full(2, 0.5), 0.5)
    two_efunn = str(d / "two-efunn.snap")
    two_in.save(two_efunn, norm_extra)
    # init_mlp refuses a layer of no units; a snapshot of one would
    # forecast bias.1 for every input
    zero = write("zero.snap", "demandcast-snapshot v3 kind=mlp\nlayers=6 0 1\n"
                 "hidden_activation=tanh_sigmoid\noutput_activation=linear\n"
                 "weight.0=\nbias.0=\nweight.1=\nbias.1=0.5\n")
    assert main(["synth", "--days", "40", "--seed", "4", "--out", other]) == 0
    assert main(["synth", "--days", "41", "--seed", "3", "--out", longer]) == 0
    # from late February every feature varies within ten days
    ten = str(d / "ten.csv")
    assert main(["synth", "--days", "10", "--out", ten, "--config",
                 write("march.cfg", "start=1995-02-25\n")]) == 0

    # from the default late-January start, season is constant in the pool
    january = str(d / "january.csv")
    assert main(["synth", "--days", "10", "--out", january]) == 0
    efunn_bench = write("efunn-bench.cfg", "models=efunn\n")
    short_pool = ("error: variable 'season' is constant in the training data "
                  "(the training pool, 1995-01-28 00:00 to 1995-02-03 23:30): "
                  "the series is too short")

    def train(model, data, *more):
        return ["train", "--model", model, "--data", data, "--out", out, *more]

    def forecast(data, snap=arima_snap):
        return ["forecast", "--snapshot", snap, "--data", data, "--out", out]

    cases = {
        "bad csv header": (train("efunn", header), f"{header}: bad header"),
        "timestamp gap": (train("arima", gap), f"{gap}:101:"),
        "nan demand, mlp": (train("mlp-scg", nan), f"{nan}:11: non-finite"),
        "nan demand, efunn": (train("efunn", nan), f"{nan}:11: non-finite"),
        "non-numeric efunn config": (
            train("efunn", header, "--config", efunn_cfg),
            f"{efunn_cfg}:2: bad value 'high' for 'sthr'"),
        "non-numeric arima config": (
            train("arima", header, "--config", arima_cfg), f"{arima_cfg}:1:"),
        "non-numeric bench config": (
            ["bench", "--days", "40", "--out", out, "--config", bench_cfg],
            f"{bench_cfg}:1:"),
        "mlp snapshot to rules": (
            ["rules", "--snapshot", mlp_snap],
            f"{mlp_snap}: expected an efunn snapshot, got kind='mlp'"),
        "arima on another csv": (
            forecast(other), f"snapshot {arima_snap} was not trained on"),
        "arima on a longer csv": (
            forecast(longer), f"snapshot {arima_snap} was trained on 1920 rows"),
        "corrupt efunn field": (
            ["rules", "--snapshot", efunn_snap],
            f"{efunn_snap}: bad value for snapshot key 'nodes': 'many'"),
        "corrupt efunn array": (
            ["rules", "--snapshot", array_snap],
            f"{array_snap}: snapshot key 'nodes.w1': bad number in snapshot "
            "array"),
        "binary snapshot": (["rules", "--snapshot", binary],
                            f"{binary}: not a snapshot, the file is not UTF-8"),
        "unimplemented mlp activation": (
            ["forecast", "--snapshot", act_snap, "--data", str(data_csv),
             "--out", out],
            f"{act_snap}: snapshot hidden_activation 'xx' is not implemented"),
        "nan mlp weight": (
            ["forecast", "--snapshot", nan_mlp, "--data", str(data_csv),
             "--out", out],
            f"{nan_mlp}: snapshot key 'weight.1': holds a non-finite value"),
        "nan arima coefficient": (
            ["forecast", "--snapshot", nan_arima, "--data", str(data_csv),
             "--out", out],
            f"{nan_arima}: snapshot key 'ar': holds a non-finite value"),
        "nan efunn weight": (
            ["rules", "--snapshot", nan_efunn],
            f"{nan_efunn}: snapshot key 'nodes.w2': holds a non-finite value"),
        "huge arima differencing order": (
            forecast(str(data_csv), huge_d),
            f"{huge_d}: snapshot keys 'stage.*.lag' give 2 lags, expected "
            "1000000000001 for (1,1000000000000,1)"),
        "huge efunn node count": (
            ["rules", "--snapshot", huge],
            f"error: {huge}: snapshot key 'nodes.w1' holds {24 * nodes} "
            f"values, expected {24 * 10**12}"),
        "one-value norm bounds": (
            forecast(str(data_csv), one_value),
            f"error: {one_value}: snapshot key 'extra.norm.mins' holds 1 "
            "values, expected 7"),
        "nan norm min": (
            forecast(str(data_csv), nan_min),
            f"error: {nan_min}: snapshot key 'extra.norm.mins': holds a "
            "non-finite value"),
        "norm max at its min": (
            forecast(str(data_csv), flat_max),
            f"error: {flat_max}: snapshot key 'extra.norm.maxs' is not above "
            "'extra.norm.mins' in every column"),
        "zero-unit mlp layer": (
            ["forecast", "--snapshot", zero, "--data", str(data_csv),
             "--out", out],
            f"{zero}: layer sizes must be >= 1, got (6, 0, 1)"),
        "extra arima coefficient": (
            forecast(str(data_csv), extra_ar),
            f"{extra_ar}: snapshot key 'ar' holds 2 values, expected 1"),
        "short arima z_tail": (
            forecast(str(data_csv), z_short),
            f"{z_short}: snapshot key 'z_tail' holds 1 values, expected 49"),
        "short arima e_tail": (
            forecast(str(data_csv), e_short),
            f"{e_short}: snapshot key 'e_tail' holds 1 values, expected 49"),
        "arima stage lag": (
            forecast(str(data_csv), lag),
            f"{lag}: snapshot keys 'stage.*.lag' give lags [336, 2], "
            "expected [336, 1]"),
        # 384 records before the test window of a 10-day series
        "arima spec longer than the series": (
            ["bench", "--data", ten, "--epochs", "2", "--out", out],
            "error: (1,1,1)(1,0,1)[48]+prediff336 needs at least 387 "
            "observations (337 for differencing, then 50), got 384"),
        "bench on 10 january days": (
            ["bench", "--days", "10", "--out", out], short_pool),
        "efunn bench on 10 january days": (
            ["bench", "--days", "10", "--config", efunn_bench, "--out", out],
            short_pool),
        "efunn train on 10 january days": (train("efunn", january),
                                           short_pool),
        "non-utf-8 csv": (train("efunn", latin),
                          f"error: {latin}: not UTF-8 text"),
        "non-utf-8 config": (
            train("efunn", str(data_csv), "--config", latin_cfg),
            f"error: {latin_cfg}: not UTF-8 text"),
        "repeated bench model": (
            ["bench", "--days", "40", "--out", out, "--config", repeat_cfg],
            "error: models lists efunn more than once"),
        "short mlp weight": (
            ["forecast", "--snapshot", short_weight, "--data", str(data_csv),
             "--out", out],
            f"{short_weight}: snapshot key 'weight.0' holds 1 values, "
            "expected 24"),
        "triangular efunn forecast": (
            forecast(str(data_csv), triangular),
            f"error: {triangular}: snapshot partition.in.0.kind 'triangular' "
            "is not implemented; expected 'gaussian'"),
        "triangular efunn rules": (
            ["rules", "--snapshot", triangular],
            f"error: {triangular}: snapshot partition.in.0.kind 'triangular' "
            "is not implemented; expected 'gaussian'"),
        "unimplemented efunn activation": (
            forecast(str(data_csv), rule["activation"]),
            f"error: {rule['activation']}: snapshot config.activation "
            "'radbas' is not implemented; expected 'satlin'"),
        "unimplemented efunn m_mode": (
            ["rules", "--snapshot", rule["m_mode"]],
            f"error: {rule['m_mode']}: snapshot config.m_mode "
            "'winner_take_all' is not implemented; expected "
            "'all_above_threshold'"),
        "huge arima season config": (
            train("arima", str(data_csv), "--config", season_cfg),
            "error: (1,1,0)(0,0,1)[1000000000000] needs at least "
            "1000000000002 observations (1 for differencing, then "
            "1000000000001), got 1824"),
        "huge arima season snapshot": (
            forecast(str(data_csv), season_snap),
            f"error: {season_snap}: snapshot key 'residuals' holds 1 values: "
            "(1,1,0)(0,0,1)[1000000000000] reaches 1000000000000 lags back"),
        "nan synth config": (
            ["synth", "--out", out, "--config", nan_synth],
            f"error: {nan_synth}:1: bad value 'nan' for 'temp_noise': "
            "not a finite number"),
        "inf train config": (
            train("efunn", str(data_csv), "--config", inf_train),
            f"error: {inf_train}:2: bad value 'inf' for 'lr1': "
            "not a finite number"),
        "nan bench config": (
            ["bench", "--days", "40", "--out", out, "--config", nan_bench],
            f"error: {nan_bench}:1: bad value 'nan' for 'training_fraction': "
            "not a finite number"),
        "backprop key for mlp-scg": (
            train("mlp-scg", str(data_csv), "--config", scg_cfg),
            f"error: {scg_cfg}:2: unknown mlp-scg key 'epsilon'"),
        "two-output mlp forecast": (
            forecast(str(data_csv), wide_mlp),
            f"error: {wide_mlp}: the mlp model maps 6 inputs to 2 output(s); "
            "forecast needs 6 inputs and one output"),
        "two-input efunn forecast": (
            forecast(str(data_csv), two_efunn),
            f"error: {two_efunn}: the efunn model maps 2 inputs to 1 "
            "output(s); forecast needs 6 inputs and one output"),
    }
    for (version, kind), snap in old.items():
        cases[f"format {version} {kind} forecast"] = (
            forecast(str(data_csv), snap), f"error: {snap}: {retrain(version)}")
        if kind == "efunn":
            cases[f"format {version} efunn rules"] = (
                ["rules", "--snapshot", snap],
                f"error: {snap}: {retrain(version)}")
    for key, cfg in removed.items():
        cases[f"removed efunn key {key}"] = (
            train("efunn", str(data_csv), "--config", cfg),
            f"error: {cfg}:2: unknown efunn key {key!r}")
    for model in ("efunn", "arima"):
        cases[f"negative {model} epochs"] = (
            train(model, str(data_csv), "--epochs", "-1"),
            "error: epochs must be >= 1, got -1")
    for key, cfg in removed_bench.items():
        cases[f"removed bench key {key}"] = (
            ["bench", "--days", "40", "--out", out, "--config", cfg],
            f"error: {cfg}:1: unknown bench key {key!r}")
    return cases


@pytest.mark.parametrize("case", EXIT_1_CASES)
def test_bad_input_exits_1_naming_the_source(case, bad_inputs, capsys):
    argv, expected = bad_inputs[case]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert expected in err


@pytest.mark.parametrize("command", ["synth", "train", "bench"])
def test_negative_seed_is_a_usage_error(command, data_csv, tmp_path, capsys):
    out = str(tmp_path / "out")
    argv = {"synth": ["synth", "--out", out],
            "train": ["train", "--model", "mlp-bp", "--data", str(data_csv),
                      "--out", out, "--epochs", "2"],
            "bench": ["bench", "--days", "40", "--epochs", "2",
                      "--out", out]}[command]
    capsys.readouterr()
    assert main(argv + ["--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert (f"demandcast {command}: error: argument --seed: expected a "
            "non-negative integer, got '-1'") in err
    assert "Traceback" not in err


def test_mlp_snapshot_still_forecasts_other_data(data_csv, tmp_path):
    snap, other = tmp_path / "mlp.snap", tmp_path / "other.csv"
    assert main(["train", "--model", "mlp-scg", "--data", str(data_csv),
                 "--out", str(snap), "--epochs", "2"]) == 0
    assert main(["synth", "--days", "40", "--seed", "4",
                 "--out", str(other)]) == 0
    assert main(["forecast", "--snapshot", str(snap), "--data", str(other),
                 "--out", str(tmp_path / "fc.csv")]) == 0


@pytest.fixture(scope="module")
def nine_days(tmp_path_factory):
    """A 9-day CSV over which all six features vary, its first 144 and
    145 records, an EFuNN snapshot of it and an EFuNN-only bench config."""
    d = tmp_path_factory.mktemp("nine")
    (d / "gen.cfg").write_text("start=1995-02-25\n")
    (d / "bench.cfg").write_text("models=efunn\n")
    data = str(d / "d9.csv")
    assert main(["synth", "--days", "9", "--config", str(d / "gen.cfg"),
                 "--out", data]) == 0
    lines = (d / "d9.csv").read_text().splitlines(keepends=True)
    for rows in (144, 145):
        (d / f"{rows}.csv").write_text("".join(lines[:1 + rows]))
    assert main(["train", "--model", "efunn", "--data", data,
                 "--out", str(d / "efunn.snap")]) == 0
    return d


def _efunn_argv(command, d, data, out):
    return {"train": ["train", "--model", "efunn", "--data", data,
                      "--out", out],
            "forecast": ["forecast", "--snapshot", str(d / "efunn.snap"),
                         "--data", data, "--out", out],
            "bench": ["bench", "--data", data, "--config",
                      str(d / "bench.cfg"), "--out", out]}[command]


def test_efunn_bench_accepts_the_csv_train_and_forecast_accept(nine_days,
                                                               tmp_path):
    data = str(nine_days / "d9.csv")
    for command in ("forecast", "bench"):
        assert main(_efunn_argv(command, nine_days, data,
                                str(tmp_path / command))) == 0


@pytest.mark.parametrize("rows", [144, 145])
@pytest.mark.parametrize("command", ["train", "forecast", "bench"])
def test_efunn_commands_share_one_length_rule(command, rows, nine_days,
                                              tmp_path, capsys):
    data = str(nine_days / f"{rows}.csv")
    capsys.readouterr()
    code = main(_efunn_argv(command, nine_days, data, str(tmp_path / "out")))
    err = capsys.readouterr().err
    if rows == 144:
        assert code == 1
        assert f"error: {data}: need at least 145 records, got 144" in err
    elif command == "forecast":
        assert code == 0
    else:  # past the length rule, the one training example is constant
        assert code == 1
        assert "is constant in the training data" in err
