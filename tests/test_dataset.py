import dataclasses
from datetime import datetime

import numpy as np
import pytest

from demandcast import dataset
from demandcast.dataset import (DemandRecord, SynthConfig, apply_norm,
                                denorm_target, encode_features, fit_norm,
                                norm_target, parse_csv, sample_training,
                                season_of, synthesize, write_csv)
from demandcast.errors import (ConfigError, DataError, DegenerateError,
                               GapError, ParseError)


def test_record_validation():
    ts = datetime(1995, 1, 27)
    with pytest.raises(DataError):
        DemandRecord(ts, -1.0, 10.0, 20.0)
    with pytest.raises(DataError):
        DemandRecord(ts, 100.0, 25.0, 20.0)


def test_csv_write_parse_round_trip(tmp_path):
    records = synthesize(3, seed=2)
    path = tmp_path / "demand.csv"
    write_csv(records, path)
    back = parse_csv(path)
    assert back == records
    # serialization is reproducible byte for byte
    again = tmp_path / "again.csv"
    write_csv(back, again)
    assert again.read_bytes() == path.read_bytes()


def _csv(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    return path


def test_parse_rejects_empty_and_bad_header(tmp_path):
    with pytest.raises(ParseError, match=r"in\.csv: empty file"):
        parse_csv(_csv(tmp_path, ""))
    with pytest.raises(ParseError, match=r"in\.csv: bad header"):
        parse_csv(_csv(tmp_path, "a,b,c,d\n"))


def test_parse_reports_line_numbers(tmp_path):
    text = ("timestamp,demand_mwh,tmin_c,tmax_c\n"
            "1995-01-27T00:00:00,100,10,20\n"
            "1995-01-27T00:30:00,oops,10,20\n")
    with pytest.raises(ParseError, match=r"in\.csv:3: "):
        parse_csv(_csv(tmp_path, text))
    text = ("timestamp,demand_mwh,tmin_c,tmax_c\n"
            "not-a-time,100,10,20\n")
    with pytest.raises(ParseError, match=r"in\.csv:2: bad timestamp"):
        parse_csv(_csv(tmp_path, text))


def test_parse_detects_cadence_gaps(tmp_path):
    text = ("timestamp,demand_mwh,tmin_c,tmax_c\n"
            "1995-01-27T00:00:00,100,10,20\n"
            "1995-01-27T01:30:00,110,10,20\n")
    with pytest.raises(GapError) as err:
        parse_csv(_csv(tmp_path, text))
    assert "00:00:00" in str(err.value) and "01:30:00" in str(err.value)


def test_parse_wraps_record_validation_with_position(tmp_path):
    text = ("timestamp,demand_mwh,tmin_c,tmax_c\n"
            "1995-01-27T00:00:00,-5,10,20\n")
    with pytest.raises(DataError, match=r"in\.csv:2: "):
        parse_csv(_csv(tmp_path, text))


def test_season_mapping_is_southern_hemisphere():
    assert season_of(1) == 0   # summer
    assert season_of(4) == 1   # autumn
    assert season_of(7) == 2   # winter
    assert season_of(10) == 3  # spring
    assert season_of(12) == 0


def test_encode_features_oracles():
    records = synthesize(3, seed=0)
    # 09:00 on the first full-lookback day
    idx = next(i for i, r in enumerate(records)
               if i >= 48 and r.timestamp.hour == 9 and r.timestamp.minute == 0)
    table = encode_features(records, 48, len(records))
    assert table.shape == (len(records) - 48, 7)
    row = table[idx - 48]
    assert row[3] == 18.0
    assert row[2] == records[idx - 48].demand
    assert row[4] == 0.0  # late January
    assert row[5] == float(records[idx].timestamp.weekday())
    assert row[6] == records[idx].demand
    # each row depends on its own record alone
    assert encode_features(records, idx, idx + 1).tolist() == [row.tolist()]


def test_encode_features_respects_prev_demand_override():
    records = synthesize(3, seed=0)
    table = encode_features(records, 50, 53, prev_demand=[1234.5, 1.0, 2.0])
    assert table[:, 2].tolist() == [1234.5, 1.0, 2.0]
    plain = encode_features(records, 50, 53)
    assert np.array_equal(np.delete(table, 2, axis=1),
                          np.delete(plain, 2, axis=1))


def test_encode_features_needs_lookback():
    records = synthesize(3, seed=0)
    with pytest.raises(DataError):
        encode_features(records, 47, 48)
    with pytest.raises(DataError):
        encode_features(records, 47, 60)


def test_fit_norm_and_apply_norm_clamp():
    stats = fit_norm(np.array([[0, 10, 5, 1, 0, 3, 100.0],
                               [2, 20, 9, 5, 2, 6, 300.0]]))
    x, y = apply_norm(np.array([[1, 15, 7, 3, 1, 4.5, 200.0],
                                # out-of-range values clamp instead of
                                # leaving [0, 1]
                                [-5, 40, 9, 5, 2, 6, 999.0]]), stats)
    assert np.allclose(x[0], 0.5)
    assert y[0] == 0.5
    assert x[1, 0] == 0.0 and x[1, 1] == 1.0 and y[1] == 1.0
    assert x.flags.c_contiguous and x.shape == (2, 6)


def test_norm_target_is_unclamped_affine():
    stats = fit_norm(np.array([[0, 1, 2, 3, 0, 1, 100.0],
                               [1, 2, 3, 4, 1, 2, 300.0]]))
    assert norm_target([400.0, 0.0], stats).tolist() == [1.5, -0.5]
    assert denorm_target(norm_target(123.4, stats), stats) == pytest.approx(123.4)


def test_fit_norm_names_constant_variable():
    with pytest.raises(DegenerateError, match="season"):
        fit_norm(np.array([[0, 1, 2, 3, 1, 1, 100.0],
                           [1, 2, 3, 4, 1, 2, 300.0]]))
    with pytest.raises(DataError):
        fit_norm(np.empty((0, 7)))


def test_sample_training_size_and_order():
    pool = np.arange(200.0)
    samples = sample_training(pool, 0.2, seed=0, n_samples=3)
    assert len(samples) == 3
    for idx in samples:
        assert idx.size == 40
        assert np.all(np.diff(idx) > 0)  # sorted, no repeats
        assert idx.min() >= 0 and idx.max() < 200
    # samples differ from each other but reproduce across calls
    assert not np.array_equal(samples[0], samples[1])
    again = sample_training(pool, 0.2, seed=0, n_samples=3)
    for a, b in zip(samples, again):
        assert np.array_equal(a, b)


def test_sample_training_paper_scale_count():
    idx = sample_training(np.zeros(14685), 0.2, seed=1, n_samples=1)[0]
    assert idx.size == 2937


def test_sample_training_validation():
    pool = np.zeros(10)
    with pytest.raises(ConfigError):
        sample_training(pool, 0.0, seed=0)
    with pytest.raises(ConfigError):
        sample_training(pool, 0.5, seed=0, n_samples=0)
    with pytest.raises(DataError):
        sample_training([], 0.5, seed=0)


def test_synthesize_shape_and_cadence():
    records = synthesize(4, seed=5)
    assert len(records) == 4 * 48
    assert records[0].timestamp == datetime(1995, 1, 27, 0, 0)
    for a, b in zip(records, records[1:]):
        assert b.timestamp - a.timestamp == dataset.STEP
    assert all(r.demand == round(r.demand) for r in records)  # whole MWh


def test_synthesize_is_deterministic_per_seed():
    a = synthesize(5, seed=9)
    b = synthesize(5, seed=9)
    c = synthesize(5, seed=10)
    assert a == b
    assert a != c


def test_synthesize_demand_envelope_across_seeds():
    for seed in (0, 7, 123):
        d = np.array([r.demand for r in synthesize(365, seed)])
        assert d.min() > 0.0
        assert d.max() < 8000.0


def test_synthesize_daily_profile_peaks_around_midday():
    d = np.array([r.demand for r in synthesize(90, seed=0)])
    profile = d.reshape(90, 48).mean(axis=0)
    assert 22 <= int(np.argmax(profile)) <= 28


def test_synthesize_weekdays_run_hotter_than_weekends():
    records = synthesize(90, seed=0)
    weekday = [r.demand for r in records if r.timestamp.weekday() < 5]
    weekend = [r.demand for r in records if r.timestamp.weekday() >= 5]
    assert np.mean(weekday) > np.mean(weekend)


def test_synthesize_noise_free_overnight_plateau_is_flat():
    import math
    cfg = SynthConfig(day_noise=0.0, halfhour_noise=0.0, night_noise=0.0,
                      temp_noise=0.0, spread_noise=0.0, demand_quantum=0.0)
    records = synthesize(2, seed=0, config=cfg)
    day = [r.demand for r in records[:48]]
    flat = [
        day[h] for h in range(48)
        if math.cos(2.0 * math.pi * (h - cfg.peak_half_hour) / 48.0)
        <= cfg.trough_clip
    ]
    assert len(flat) >= 10
    assert max(flat) == min(flat)


def test_synthesize_validation():
    with pytest.raises(ConfigError):
        synthesize(1, seed=0)
    with pytest.raises(ConfigError):
        synthesize(10, seed=0, config=SynthConfig(start="someday"))
    with pytest.raises(ConfigError, match="temp_noise must be finite"):
        SynthConfig(temp_noise=float("nan"))


def test_synth_config_file_round_trip(tmp_path):
    default = SynthConfig()
    # every field off its default, so a key that is not read shows
    cfg = SynthConfig(**{f.name: getattr(default, f.name) + 0.5
                         for f in dataclasses.fields(SynthConfig)
                         if f.type is float}, start="2001-03-04")
    path = tmp_path / "gen.cfg"
    path.write_text("".join(f"{f.name}={getattr(cfg, f.name)}\n"
                            for f in dataclasses.fields(cfg)))
    back = SynthConfig.from_file(path)
    assert back == cfg
    assert all(getattr(back, f.name) != getattr(default, f.name)
               for f in dataclasses.fields(cfg))


def test_synth_config_parse_errors(tmp_path):
    def parse(text):
        path = tmp_path / "gen.cfg"
        path.write_text(text)
        return SynthConfig.from_file(path)

    with pytest.raises(ConfigError, match="unknown"):
        parse("voltage=11\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse("base=1\nbase=2\n")
    with pytest.raises(ParseError):
        parse("base=abc\n")
    assert parse("# comment\n\nbase=4000\n").base == 4000.0
