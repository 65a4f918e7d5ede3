"""Tests of the benchmark's own checks and tracer.

Run from the root of the repository:

    python3 -m pytest -q bench

Each output check is shown to accept the program's real output and to
reject a corrupted copy of it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from rfqkd import NoiseConfig, harness, simulate_session, sweep_settings  # noqa: E402


# -- sessions ---------------------------------------------------------------

def _haar_session(duration_s=3.0, seed=5):
    noise = NoiseConfig.four_meter()
    setting = sweep_settings()[2]
    exp = checks.expect_session(noise, setting, "haar", duration_s)
    tally = simulate_session(noise, setting, "haar", duration_s, np.random.default_rng(seed))
    return exp, tally


def test_session_check_accepts_real_tally():
    exp, tally = _haar_session()
    assert checks.check_tally(exp, tally, 3.0, "s") == []


def test_session_check_rejects_shifted_conclusive_count():
    exp, tally = _haar_session()
    shift = int(6 * math.sqrt(exp.conclusive))
    bad = dataclasses.replace(tally, conclusive=tally.conclusive + shift)
    assert any("conclusive" in f for f in checks.check_tally(exp, bad, 3.0, "s"))


def test_session_check_rejects_corrupted_qber():
    exp, tally = _haar_session()
    sigma = math.sqrt(exp.qber * (1 - exp.qber) / tally.sifted)
    bad = dataclasses.replace(tally, errors=tally.errors + int(6 * sigma * tally.sifted) + 1)
    assert any("qber" in f for f in checks.check_tally(exp, bad, 3.0, "s"))


def test_session_check_rejects_missing_sifted_bits():
    exp, _ = _haar_session()
    assert checks.check_session(exp, exp.conclusive, math.nan, "s")


def test_session_check_rejects_wrong_duration():
    exp, tally = _haar_session()
    assert checks.check_tally(exp, tally, 4.0, "s")


# -- emitted files ----------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    """One real fixed-sweep cycle: every (preset, format) pair once."""
    wl = workloads.FixedSweep(3, tmp_path_factory.mktemp("sweep"))
    out = {}
    for i in range(wl.cycle):
        p = wl.make_pass(i)
        assert wl.check(p, wl.run(p)) == []
        preset, fmt, path, _ = p.args
        out[(preset, fmt)] = path.read_bytes()
    return wl, out


def test_emitted_files_repeat_and_agree(sweep_outputs):
    wl, out = sweep_outputs
    for (preset, fmt), data in out.items():
        assert wl.check_output(preset, fmt, data, "again") == []


def test_emitted_file_rejects_changed_bytes(sweep_outputs):
    wl, out = sweep_outputs
    data = out[("4m", "csv")] + b"\n"
    assert any("differs" in f for f in wl.check_output("4m", "csv", data, "x"))


def test_emitted_csv_rejects_value_that_json_disagrees_with(sweep_outputs):
    _, out = sweep_outputs
    _, rows = checks.parse_emitted(out[("1km", "csv")].decode(), "csv")
    _, json_rows = checks.parse_emitted(out[("1km", "json")].decode(), "json")
    rows[0]["p_S"] = rows[0]["p_S"] * (1 + 1e-4)
    assert checks.compare_rows(rows, json_rows, "x")


def test_emitted_rows_reject_statistically_wrong_rate(sweep_outputs):
    wl, out = sweep_outputs
    config, rows = checks.parse_emitted(out[("4m", "json")].decode(), "json")
    assert checks.check_sweep_rows(rows, config, wl.expect["4m"], "x") == []
    rows[0]["conclusive_rate_hz"] *= 1.05
    assert checks.check_sweep_rows(rows, config, wl.expect["4m"], "x")


def test_emitted_rows_reject_reordered_rows(sweep_outputs):
    wl, out = sweep_outputs
    config, rows = checks.parse_emitted(out[("4m", "csv")].decode(), "csv")
    assert checks.check_sweep_rows(rows[::-1], config, wl.expect["4m"], "x")


def test_unparseable_or_foreign_config_output_is_rejected(tmp_path):
    wl = workloads.FixedSweep(3, tmp_path)
    p = wl.make_pass(2)  # 4m json
    wl.run(p)
    data = p.args[2].read_bytes()
    assert any("unparseable" in f for f in wl.check_output("4m", "json", data[:-10], "x"))
    wl2 = workloads.FixedSweep(4, tmp_path)  # other seed: other embedded config
    assert any("config" in f for f in wl2.check_output("4m", "json", data, "x"))


def test_nan_and_null_both_read_as_non_finite():
    row = {name: 1.0 for name in harness.CSV_COLUMNS}
    row.update(setting_index=0, scheme="none", key_rate_fraction=math.nan)
    as_nan = json.dumps({"config": {}, "rows": [row]})
    row["key_rate_fraction"] = None
    as_null = json.dumps({"config": {}, "rows": [row]})
    _, rows_nan = checks.parse_emitted(as_nan, "json")
    _, rows_null = checks.parse_emitted(as_null, "json")
    assert checks.compare_rows(rows_nan, rows_null, "x") == []
    assert checks.count_nonfinite(as_nan, "json") == (1, 1)
    assert checks.count_nonfinite(as_null, "json") == (1, 0)


# -- selftest ---------------------------------------------------------------

def _selftest_lines():
    return [f"PASS  {name:<18}    0.10 s  detail" for name, _ in harness.SELFTEST_SUITES]


def test_selftest_check_accepts_all_pass():
    assert checks.check_selftest(True, _selftest_lines()) == []


def test_selftest_check_rejects_a_fail_line():
    lines = _selftest_lines()
    lines[3] = lines[3].replace("PASS", "FAIL")
    assert checks.check_selftest(True, lines)


def test_selftest_check_rejects_missing_suite_or_false_result():
    assert checks.check_selftest(True, _selftest_lines()[:-1])
    assert checks.check_selftest(False, _selftest_lines())


# -- tracer -----------------------------------------------------------------

def test_count_check_rejects_mismatched_counts(tmp_path):
    wl = workloads.HaarRounds(1, tmp_path)
    calls = {"channel.haar_sample": 10, "protocol.bob_pipeline": 10, "protocol.measure": 9,
             "protocol.coincident_split": 1, "detection.simulate_session": 1}
    assert wl.check_counts(calls, 1) == []
    calls["protocol.measure"] = 8
    assert wl.check_counts(calls, 1)


def test_tracer_restores_every_binding_and_nests_spans():
    modules = tracer._modules()
    before = [dict(vars(m)) for m in modules]
    post_init = harness.hilbert.PairState.__dict__["__post_init__"]
    t = tracer.Tracer()
    t.install()
    try:
        state = harness.protocol.prepare(harness.protocol.LogicalState.PSI_PLUS)
    finally:
        t.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert harness.hilbert.PairState.__dict__["__post_init__"] is post_init
    summary = t.summarize(0, t.span_count())
    assert summary["calls"]["protocol.prepare"] == 1
    assert summary["calls"]["hilbert.pure_state"] == 1
    assert summary["calls"][tracer.PAIRSTATE_INIT] == 1
    assert state.norm_kind == "normalized"
    # the root span covers its children, so self times add up to it
    assert sum(summary["self_ns"].values()) == pytest.approx(summary["root_ns"])


def test_escaping_bindings_are_listed():
    found = "\n".join(tracer.escaping_bindings())
    for name in ("delta_params", "survival_probability", "SELFTEST_SUITES"):
        assert name in found


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_names_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert tuple(name for name, _ in harness.SELFTEST_SUITES) == run.SUITES
