"""Sweep orchestration, output serialization and CLI tests."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfqkd import cli
from rfqkd.channel import (
    SCHEMES,
    RotatorSetting,
    from_waveplates,
    randomized_survival,
    sweep_settings,
)
from rfqkd.detection import (
    NoiseConfig,
    expected_conclusive_rate,
    expected_qber,
    expected_sifted_rate,
)
from rfqkd.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    SweepRow,
    _row_from_tally,
    emit,
    from_json,
    run_sweep,
    selftest,
    suite_delta_norm,
)
from rfqkd.protocol import TallyCounts
from rfqkd.security import key_rate

FAST_CONFIG = ExperimentConfig(
    noise=NoiseConfig.four_meter(),
    schemes=("none", "flip_half"),
    duration_s=8.0,
    seed=2718,
)


def fake_rows(n=10):
    rng = np.random.default_rng(0)
    return [
        SweepRow(
            setting_index=i,
            scheme="none",
            conclusive_rate_hz=float(rng.uniform(0.1, 5.0)),
            normalized_coincidence=float(rng.uniform(0.0, 1.0)),
            qber=float(rng.uniform(0.0, 0.5)),
            qber_stderr=float(rng.uniform(0.0, 0.05)),
            p_S=float(rng.uniform(0.5, 1.0)),
            key_rate_fraction=float(rng.uniform(-1.0, 1.0)),
        )
        for i in range(n)
    ]


def _unit(lo=0.0):
    return st.floats(lo, 1.0)


_RATES = st.floats(0.0, 1e6)
_ANGLES = st.floats(-360.0, 360.0)
# (source_error_prob, visibility) whose intrinsic flip probability is at most 1
_FLIPS = st.tuples(_unit(), _unit(1e-9)).filter(lambda f: f[0] + (1.0 - f[1]) / 2.0 <= 1.0)
_CONFIGS = st.builds(
    ExperimentConfig,
    noise=st.builds(
        lambda flip, **kw: NoiseConfig(source_error_prob=flip[0], visibility=flip[1], **kw),
        _FLIPS, pair_rate_hz=_RATES, apparatus_efficiency=_unit(1e-9),
        fiber_length_km=_RATES, atten_db_per_km=_RATES, extra_loss_db=_RATES,
        singles_rate_hz=_RATES, window_ns=_RATES, ps_sample_fraction=st.floats(0.0, 0.99)),
    schemes=st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=3).map(tuple),
    settings=st.lists(st.builds(RotatorSetting, _ANGLES, _ANGLES, _ANGLES),
                      min_size=1, max_size=5).map(tuple),
    duration_s=st.floats(1e-6, 1e7),
    seed=st.integers(0, 2**63 - 1),
    mode=st.sampled_from(("sweep", "single", "keyrate", "selftest")),
)


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_ROWS = st.builds(
    SweepRow, setting_index=st.integers(0, 10**6), scheme=st.sampled_from(SCHEMES),
    **{name: _ANY_FLOAT for name in CSV_COLUMNS[2:]})


class TestExperimentConfig:
    def test_defaults_valid(self):
        ExperimentConfig().validate()

    def test_empty_settings_rejected_before_simulation(self):
        cfg = ExperimentConfig(settings=())
        with pytest.raises(ValueError):
            run_sweep(cfg)

    def test_bad_scheme_rejected(self):
        cfg = ExperimentConfig(schemes=("sometimes",))
        with pytest.raises(ValueError):
            cfg.validate()

    def test_bad_duration_rejected(self):
        cfg = ExperimentConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(
            noise=NoiseConfig.one_km(),
            schemes=("haar",),
            settings=(RotatorSetting(0.0, 10.0, 5.0),),
            duration_s=3.5,
            seed=99,
        )
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @given(_CONFIGS)
    def test_dict_round_trip_property(self, cfg):
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_from_dict_accepts_single_scheme_string(self):
        cfg = ExperimentConfig.from_dict({"schemes": "flip_half"})
        assert cfg.schemes == ("flip_half",)

    def test_from_dict_rejects_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="duraton_s"):
            ExperimentConfig.from_dict({"duraton_s": 10.0})

    def test_from_dict_rejects_unknown_noise_key(self):
        noise = dict(FAST_CONFIG.to_dict()["noise"], singles_hz=1.0)
        with pytest.raises(ValueError, match="singles_hz"):
            ExperimentConfig.from_dict({"noise": noise})

    def test_from_dict_rejects_unknown_settings_key(self):
        settings = [{"qwp1_deg": 0.0, "hwp_deg": 0.0, "qwp2_deg": 0.0, "qwp3_deg": 0.0}]
        with pytest.raises(ValueError, match="qwp3_deg"):
            ExperimentConfig.from_dict({"settings": settings})

    def test_from_dict_fills_a_missing_angle_with_zero(self):
        cfg = ExperimentConfig.from_dict({"settings": [{"hwp_deg": 22.5}]})
        assert cfg.settings == (RotatorSetting(0.0, 22.5, 0.0),)

    @pytest.mark.parametrize("data, key", [
        pytest.param({"duration_s": math.nan}, "duration_s", id="nan-duration"),
        pytest.param({"noise": {"window_ns": -math.inf}}, "window_ns", id="inf-noise"),
        pytest.param({"settings": [{"qwp1_deg": 0.0, "hwp_deg": math.nan, "qwp2_deg": 0.0}]},
                     "hwp_deg", id="nan-angle"),
        pytest.param({"duration_s": 10**400}, "duration_s", id="int-beyond-float"),
        pytest.param({"mode": 5}, "mode", id="number-for-string"),
    ])
    def test_from_dict_rejects_non_finite_and_mistyped_values(self, data, key):
        with pytest.raises(ValueError, match=f"'{key}'"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, 1e16])
    def test_unusable_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration_s"):
            ExperimentConfig(duration_s=duration).validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(seed=-1).validate()


class TestFromJson:
    def test_reads_a_tally(self):
        data = {"rounds": 9, "conclusive": 4, "sifted": 2, "duration_s": 1}
        assert from_json(TallyCounts, data, "tally") == TallyCounts(**data)

    def test_rejects_a_non_array_tuple(self):
        with pytest.raises(ValueError, match="'settings' must be an array"):
            ExperimentConfig.from_dict({"settings": {"qwp1_deg": 0.0}})


class TestRunSweep:
    def test_row_count_and_indices(self):
        rows = run_sweep(FAST_CONFIG)
        assert len(rows) == len(FAST_CONFIG.schemes) * len(FAST_CONFIG.settings)
        assert [r.setting_index for r in rows[:5]] == list(range(5))
        assert set(r.scheme for r in rows) == {"none", "flip_half"}

    def test_normalization_peaks_at_one(self):
        rows = run_sweep(FAST_CONFIG)
        top = max(r.normalized_coincidence for r in rows)
        assert abs(top - 1.0) < 1e-12
        assert all(0.0 <= r.normalized_coincidence <= 1.0 for r in rows)

    def test_deterministic_given_seed(self):
        assert run_sweep(FAST_CONFIG) == run_sweep(FAST_CONFIG)

    def test_different_seed_changes_counts(self):
        import dataclasses

        other = dataclasses.replace(FAST_CONFIG, seed=1)
        assert run_sweep(other) != run_sweep(FAST_CONFIG)

    def test_uncompensated_sweep_rises_toward_half(self):
        # without the random rotation the error rate sits near the intrinsic
        # level at the identity setting and climbs toward 50% at the bit-flip,
        # where only the accidental floor is left
        cfg = ExperimentConfig(
            noise=NoiseConfig.four_meter(), schemes=("none",), duration_s=1500.0, seed=5
        )
        rows = run_sweep(cfg)
        assert abs(rows[0].qber - 0.065) < 0.01
        assert rows[-1].qber > 0.3
        assert rows[-1].conclusive_rate_hz < 0.01 * rows[0].conclusive_rate_hz


class TestRowKeyFraction:
    @pytest.mark.parametrize("counts, expected", [
        pytest.param(dict(sifted=0, errors=0, pS_sample_total=5, pS_sample_inS=5), None,
                     id="no-sifted-bits"),
        pytest.param(dict(sifted=40, errors=2, pS_sample_total=0, pS_sample_inS=0), None,
                     id="empty-test-sample"),
        pytest.param(dict(sifted=40, errors=2, pS_sample_total=5, pS_sample_inS=0), None,
                     id="p_S-zero"),
        pytest.param(dict(sifted=40, errors=21, pS_sample_total=5, pS_sample_inS=5), None,
                     id="qber-above-half"),
        pytest.param(dict(sifted=40, errors=2, pS_sample_total=20, pS_sample_inS=19),
                     key_rate(19 / 20, 2 / 40), id="valid"),
    ])
    def test_key_fraction_only_where_the_bound_applies(self, counts, expected):
        tally = TallyCounts(rounds=200, conclusive=100, duration_s=10.0, **counts)
        fraction = _row_from_tally(0, "none", tally).key_rate_fraction
        if expected is None:
            assert math.isnan(fraction)
        else:
            assert fraction == expected


class TestEmit:
    def test_csv_line_count(self):
        text = emit(fake_rows(10), "csv")
        assert len(text.strip().split("\n")) == 11

    def test_csv_round_trip_six_digits(self):
        rows = fake_rows(10)
        text = emit(rows, "csv")
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert list(parsed[0].keys()) == list(CSV_COLUMNS)
        for row, rec in zip(rows, parsed):
            for col in CSV_COLUMNS:
                want = getattr(row, col)
                got = rec[col]
                if isinstance(want, float):
                    assert math.isclose(float(got), want, rel_tol=1e-5)
                else:
                    assert str(want) == got

    def test_json_array(self):
        rows = fake_rows(10)
        data = json.loads(emit(rows, "json"))
        assert isinstance(data, list) and len(data) == 10
        assert set(data[0].keys()) == set(CSV_COLUMNS)

    def test_json_writes_null_for_non_finite_values(self):
        rows = [dataclasses.replace(fake_rows(1)[0], qber=math.nan, p_S=math.inf)]

        def reject(token):
            raise ValueError(f"bare {token} in JSON output")

        data = json.loads(emit(rows, "json", config=FAST_CONFIG), parse_constant=reject)
        assert data["rows"][0]["qber"] is None
        assert data["rows"][0]["p_S"] is None
        rec = next(csv.DictReader(io.StringIO(emit(rows, "csv"))))
        assert (rec["qber"], rec["p_S"]) == ("nan", "inf")

    def test_config_echo_csv(self):
        text = emit(fake_rows(2), "csv", config=FAST_CONFIG)
        first = text.split("\n", 1)[0]
        assert first.startswith("# config: ")
        echoed = json.loads(first[len("# config: "):])
        assert echoed["seed"] == FAST_CONFIG.seed
        assert echoed["noise"]["pair_rate_hz"] == FAST_CONFIG.noise.pair_rate_hz

    def test_config_echo_json(self):
        data = json.loads(emit(fake_rows(2), "json", config=FAST_CONFIG))
        assert data["config"]["seed"] == FAST_CONFIG.seed
        assert len(data["rows"]) == 2

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit([], "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit(fake_rows(1), "xml")

    @given(st.lists(_ROWS, min_size=1, max_size=4))
    def test_csv_and_json_parse_back_within_six_digits(self, rows):
        def six(x):
            return f"{x:.6g}"

        records = list(csv.DictReader(io.StringIO(emit(rows, "csv"))))
        objects = json.loads(emit(rows, "json"))
        assert len(records) == len(objects) == len(rows)
        for row, rec, obj in zip(rows, records, objects):
            for name, want in dataclasses.asdict(row).items():
                if not isinstance(want, float):
                    assert (rec[name], obj[name]) == (str(want), want)
                elif math.isfinite(want):
                    assert six(float(rec[name])) == six(obj[name]) == six(want)
                else:  # nan and inf: spelled out in CSV, null in JSON
                    assert (rec[name], obj[name]) == (six(want), None)


class TestSelftest:
    def test_all_suites_pass_within_budget(self):
        import time

        lines = []
        start = time.perf_counter()
        assert selftest(out=lines.append)
        elapsed = time.perf_counter() - start
        assert len(lines) == 6
        assert all(line.startswith("PASS") for line in lines)
        assert elapsed < 60.0

    def test_negative_control_broken_delta(self):
        # a deliberately wrong delta extraction must trip the norm suite
        class BrokenDelta:
            def __init__(self, u):
                self.d1 = complex(abs(u.a) ** 2)  # missing the |b|^2 term
                self.d2 = 0.0j
                self.d3 = 0.0j

        rng = np.random.default_rng(5)
        ok, detail = suite_delta_norm(rng, n=50, delta_fn=BrokenDelta)
        assert not ok
        assert "norm" in detail


class TestCli:
    def test_sweep_writes_deterministic_csv(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["sweep", "--preset", "4m", "--seed", "7", "--duration-scale", "0.005"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_json_format(self, tmp_path):
        out = tmp_path / "rows.json"
        code = cli.main(
            ["sweep", "--preset", "4m", "--seed", "3", "--duration-scale", "0.005",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert "config" in data and len(data["rows"]) == 10

    def test_single_then_keyrate(self, tmp_path, capsys):
        tally_path = tmp_path / "tally.json"
        code = cli.main(
            ["single", "--preset", "4m", "--seed", "5", "--duration-scale", "0.01",
             "--scheme", "flip_half", "--setting", "0", "--out", str(tally_path)]
        )
        assert code == 0
        payload = json.loads(tally_path.read_text())
        assert payload["tally"]["conclusive"] > 0
        assert payload["config"]["seed"] == 5
        code = cli.main(["keyrate", str(tally_path)])
        assert code == 0
        assert "key fraction" in capsys.readouterr().out

    def test_config_file_and_overrides(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "seed": 11,
                    "duration_s": 400.0,
                    "schemes": ["none"],
                    "noise": {"pair_rate_hz": 6000.0, "singles_rate_hz": 1500.0},
                }
            )
        )
        out = tmp_path / "rows.csv"
        code = cli.main(
            ["sweep", "--config", str(config_path), "--duration-scale", "0.01",
             "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().split("\n", 1)[0]
        echoed = json.loads(header[len("# config: "):])
        assert echoed["seed"] == 11
        assert echoed["duration_s"] == 4.0
        assert echoed["noise"]["pair_rate_hz"] == 6000.0

    def test_selftest_exit_code(self):
        assert cli.main(["selftest"]) == 0

    def test_selftest_rejects_config(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["selftest", "--config", "experiment.json"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err


def _fresh_process_output(tmp_path, argv, out: str) -> bytes:
    """What the first `rfqkd` call of a new interpreter writes to out."""
    cwd = tmp_path / "fresh"
    cwd.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run([sys.executable, "-m", "rfqkd.cli", *argv, "--out", out], cwd=cwd, env=env,
                   check=True, capture_output=True)
    return (cwd / out).read_bytes()


class TestRepeatedCliCalls:
    """Every in-process `cli.main` call shares one parser and still stands alone."""

    def _schemes(self, path) -> list[str]:
        header = path.read_text().split("\n", 1)[0]
        return json.loads(header[len("# config: "):])["schemes"]

    def test_scheme_list_does_not_carry_over(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        short = ["--duration-scale", "0.001"]
        assert cli.main(["sweep", "--scheme", "haar", "--scheme", "none", *short,
                         "--out", "a.csv"]) == 0
        assert cli.main(["sweep", *short, "--out", "b.csv"]) == 0
        assert cli.main(["sweep", "--scheme", "flip_half", *short, "--out", "c.csv"]) == 0
        assert self._schemes(tmp_path / "a.csv") == ["haar", "none"]
        assert self._schemes(tmp_path / "b.csv") == list(ExperimentConfig().schemes)
        assert self._schemes(tmp_path / "c.csv") == ["flip_half"]

    def test_single_after_sweep_matches_fresh_process(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["single", "--scheme", "haar", "--seed", "5", "--setting", "2",
                "--duration-scale", "0.01"]
        assert cli.main(["sweep", "--scheme", "none", "--duration-scale", "0.001",
                         "--out", "sweep.csv"]) == 0
        assert cli.main([*argv, "--out", "tally.json"]) == 0
        assert (tmp_path / "tally.json").read_bytes() == _fresh_process_output(
            tmp_path, argv, "tally.json")

    def test_good_call_after_failed_calls_matches_fresh_process(self, tmp_path, monkeypatch,
                                                                 capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--scheme", "flip_half", "--seed", "3", "--duration-scale", "0.01",
                "--format", "json"]
        for bad in (["sweep", "--scheme", "bogus"], ["sweep", "--seed", "-1"],
                    ["single", "--scheme", "none", "--scheme", "haar"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*bad, "--out", "bad.json"])
            assert exc.value.code == 2
        assert cli.main([*argv, "--out", "rows.json"]) == 0
        assert (tmp_path / "rows.json").read_bytes() == _fresh_process_output(
            tmp_path, argv, "rows.json")


def _input_error(capsys, argv) -> str:
    """Run the CLI on bad input; it must exit 2 with one line on stderr."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("rfqkd: error: ") and err.count("\n") == 1
    return err


class TestCliInputErrors:
    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"duraton_s": 5}))
        assert "duraton_s" in _input_error(capsys, ["sweep", "--config", str(path)])

    def test_malformed_config_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"seed\": 1,")
        _input_error(capsys, ["sweep", "--config", str(path)])

    def test_unknown_tally_key(self, tmp_path, capsys):
        path = tmp_path / "tally.json"
        path.write_text(json.dumps({"tally": {"rounds": 10, "conclusiv": 3}}))
        assert "conclusiv" in _input_error(capsys, ["keyrate", str(path)])

    def test_setting_out_of_range(self, capsys):
        err = _input_error(capsys, ["single", "--preset", "4m", "--setting", "5"])
        assert "out of range" in err

    def test_single_rejects_repeated_scheme(self, tmp_path, capsys):
        err = _input_error(capsys, ["single", "--scheme", "haar", "--scheme", "none",
                                    "--duration-scale", "0.001", "--out", str(tmp_path / "t.json")])
        assert "--scheme" in err

    def test_tally_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "tally.json"
        path.write_text(json.dumps([1, 2, 3]))
        assert "JSON object" in _input_error(capsys, ["keyrate", str(path)])

    def test_tally_count_not_a_number(self, tmp_path, capsys):
        path = tmp_path / "tally.json"
        path.write_text(json.dumps({"rounds": "x"}))
        assert "'rounds'" in _input_error(capsys, ["keyrate", str(path)])

    def test_missing_tally_file(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert "missing.json" in _input_error(capsys, ["keyrate", str(path)])

    def test_missing_config_file(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert "missing.json" in _input_error(capsys, ["sweep", "--config", str(path)])

    def test_config_duration_not_a_number(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"duration_s": "x"}))
        assert "'duration_s'" in _input_error(capsys, ["sweep", "--config", str(path)])

    def test_config_angle_not_a_number(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        setting = {"qwp1_deg": 0, "hwp_deg": "45", "qwp2_deg": 0}
        path.write_text(json.dumps({"settings": [setting]}))
        assert "'hwp_deg'" in _input_error(capsys, ["sweep", "--config", str(path)])

    def test_config_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"seed": 1}]))
        assert "JSON object" in _input_error(capsys, ["sweep", "--config", str(path)])

    @pytest.mark.parametrize("text, key", [
        pytest.param('{"duration_s": NaN}', "'duration_s'", id="nan-duration"),
        pytest.param('{"duration_s": Infinity}', "'duration_s'", id="inf-duration"),
        pytest.param('{"noise": {"pair_rate_hz": NaN}}', "'pair_rate_hz'", id="nan-rate"),
        pytest.param('{"settings": [{"qwp1_deg": 0, "hwp_deg": -Infinity, "qwp2_deg": 0}]}',
                     "'hwp_deg'", id="inf-angle"),
        pytest.param('{"seed": -2}', "seed", id="negative-seed"),
        pytest.param('{"duration_s": 1e16}', "duration_s", id="too-many-pairs"),
        pytest.param('{"noise": {"source_error_prob": 0.9, "visibility": 0.2}}',
                     "source_error_prob + (1 - visibility)/2", id="flip-probability-above-one"),
    ])
    def test_config_value_rejected(self, tmp_path, capsys, text, key):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert key in _input_error(capsys, ["sweep", "--config", str(path)])

    @pytest.mark.parametrize("text, key", [
        pytest.param('{"rounds": NaN}', "'rounds'", id="nan-count"),
        pytest.param('{"tally": {"duration_s": Infinity}}', "'duration_s'", id="inf-duration"),
    ])
    def test_tally_value_rejected(self, tmp_path, capsys, text, key):
        path = tmp_path / "tally.json"
        path.write_text(text)
        assert key in _input_error(capsys, ["keyrate", str(path)])

    @pytest.mark.parametrize("argv, name", [
        pytest.param(["sweep", "--duration-scale", "nan"], "duration_s", id="nan-scale"),
        pytest.param(["sweep", "--duration-scale", "inf"], "duration_s", id="inf-scale"),
        pytest.param(["sweep", "--seed", "-1"], "seed", id="sweep-negative-seed"),
        pytest.param(["single", "--seed", "-3"], "seed", id="single-negative-seed"),
        pytest.param(["selftest", "--seed", "-1"], "--seed", id="selftest-negative-seed"),
    ])
    def test_flag_value_rejected(self, tmp_path, monkeypatch, capsys, argv, name):
        monkeypatch.chdir(tmp_path)  # nothing may be written, but not into the checkout
        assert name in _input_error(capsys, argv)

    @pytest.mark.parametrize("argv, data, keys", [
        pytest.param(["sweep", "--config"], {"noise": {"window_ns": -1}}, ["window_ns"],
                     id="negative-window"),
        pytest.param(["sweep", "--config"], {"noise": {"extra_loss_db": -2.0}},
                     ["extra_loss_db"], id="negative-loss"),
        pytest.param(["keyrate"], {"conclusive": 3, "sifted": 4}, ["'sifted'", "'conclusive'"],
                     id="sifted-above-conclusive"),
        pytest.param(["keyrate"], {"tally": {"pS_sample_total": 1, "pS_sample_inS": 2}},
                     ["'pS_sample_inS'", "'pS_sample_total'"], id="test-sample-inverted"),
        pytest.param(["keyrate"], {"rounds": -1}, ["rounds"], id="negative-count"),
    ])
    def test_rejected_value_names_its_key(self, tmp_path, capsys, argv, data, keys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        err = _input_error(capsys, argv + [str(path)])
        assert all(key in err for key in keys)

    @pytest.mark.parametrize("command", ["sweep", "single"])
    def test_empty_schemes_rejected(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)  # nothing may be written, but not into the checkout
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schemes": []}))
        assert "scheme" in _input_error(capsys, [command, "--config", str(path)])

    @pytest.mark.parametrize("command", ["sweep", "single"])
    def test_unwritable_out_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "no_such_dir" / "out.csv"
        err = _input_error(capsys, [command, "--duration-scale", "0.001", "--out", str(out)])
        assert "no_such_dir" in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("command, runner", [("sweep", "run_sweep"),
                                                 ("single", "simulate_session")])
    def test_unwritable_out_found_before_the_run(self, tmp_path, monkeypatch, capsys,
                                                 command, runner):
        def no_run(*args, **kwargs):
            raise AssertionError(f"{runner} ran before the output path was checked")

        monkeypatch.setattr(cli, runner, no_run)
        out = tmp_path / "no_such_dir" / "out.csv"
        assert "no_such_dir" in _input_error(capsys, [command, "--out", str(out)])

    @pytest.mark.parametrize("command", ["sweep", "single"])
    def test_bad_config_keeps_existing_out(self, tmp_path, capsys, command):
        out = tmp_path / "out.txt"
        out.write_text("earlier results\n")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"duraton_s": 5}))
        _input_error(capsys, [command, "--config", str(path), "--out", str(out)])
        assert out.read_text() == "earlier results\n"

    @pytest.mark.parametrize("config, cause, product", [
        pytest.param({"noise": {"singles_rate_hz": 1e12, "window_ns": 1e9}, "duration_s": 1},
                     "the accidental rate times duration_s", "2e+24",
                     id="accidentals"),
        pytest.param({"duration_s": 1e16}, "pair_rate_hz", "1.2e+20", id="pairs"),
    ])
    def test_expected_pair_overflow_names_its_rate(self, tmp_path, capsys, config, cause,
                                                   product):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(config))
        err = _input_error(capsys, ["sweep", "--config", str(path)])
        assert cause in err and f"= {product} expected pairs" in err


def _z(measured: float, mean: float, variance: float) -> float:
    return (measured - mean) / math.sqrt(variance)


class TestSweepSeedScan:
    """Every row of the default sweep, over ten seeds per preset, lies within
    5 sigma of the closed forms: the conclusive count is Poisson about
    expected_conclusive_rate * duration, and the QBER binomial about
    expected_qber over the expected number of sifted bits.  A fault that
    shows only for some seeds, or a bias of a few percent in one
    configuration, fails here."""

    @pytest.mark.parametrize("preset", [NoiseConfig.four_meter(), NoiseConfig.one_km()],
                             ids=["4m", "1km"])
    def test_rows_within_five_sigma_of_closed_forms(self, preset):
        worst = 0.0
        for seed in range(10):
            cfg = ExperimentConfig(noise=preset, seed=seed)
            for row in run_sweep(cfg):
                u = from_waveplates(cfg.settings[row.setting_index])
                survival = randomized_survival(u, row.scheme)
                mean = expected_conclusive_rate(preset, survival) * cfg.duration_s
                z_conc = _z(row.conclusive_rate_hz * cfg.duration_s, mean, mean)
                e = expected_qber(preset, survival)
                sifted = expected_sifted_rate(preset, survival) * cfg.duration_s
                z_qber = _z(row.qber, e, e * (1.0 - e) / sifted)
                assert abs(z_conc) <= 5.0 and abs(z_qber) <= 5.0, (seed, row)
                worst = max(worst, abs(z_conc), abs(z_qber))
        assert worst > 0.5  # the rows do scatter: the scan is not vacuous
