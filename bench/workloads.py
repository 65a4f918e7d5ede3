"""The three benchmark workloads.

Each workload is built from the workload seed alone.  The program sees only
the generated `ExperimentConfig` / `NoiseConfig` inputs (for `fixed-sweep`,
as the equivalent CLI arguments).  A pass is one call into the program; the
benchmark times `run` and checks its output with `check` outside the timed
region.  Functions are looked up on their module at call time so that the
tracer's wrappers are seen.

* haar-rounds: one `detection.simulate_session` per pass, `haar` scheme at
  4 m, cycling through the five sweep settings.  The only path whose cost
  grows with session length; no work is shared between rounds.
* fixed-sweep: one in-process `rfqkd sweep` per pass at the default config,
  alternating presets (4m / 1km) and formats (csv / json).  The command users
  run by default; its cost does not grow with duration, so it is the
  no-change control for per-round optimisations, and the only workload that
  runs `cli`, `run_sweep`, `emit` and `key_rate`.
* selftest: one `harness.selftest` per pass.  Exercises the scalar
  `channel` / `hilbert` API one call at a time (~101k `haar_sample` calls).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rfqkd
import rfqkd.cli  # not imported by the package itself
from rfqkd.detection import NoiseConfig
from rfqkd.harness import ExperimentConfig

import checks

HAAR_DURATION_S = 15.0  # ~2,080 expected detected pairs per pass at 4 m
FIXED_PRESETS = ("4m", "1km")
FIXED_FORMATS = ("csv", "json")
# scalar haar_sample calls one selftest makes: the suite sizes 1000 + 100 + 50
# + 100000 + 100 (the dephasing suite draws none)
SELFTEST_HAAR_DRAWS = 101_250


def derive_seed(seed: int, *key: int) -> int:
    """A 32-bit seed for one input, reproducible from the workload seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def make_configs(workload: str, seed: int) -> dict[str, ExperimentConfig]:
    """The workload's validated configs; this is what `setup_s` times."""
    if workload == "haar-rounds":
        configs = {"haar": ExperimentConfig(
            noise=NoiseConfig.four_meter(), schemes=("haar",), duration_s=HAAR_DURATION_S,
            seed=derive_seed(seed, 0), mode="single")}
    elif workload == "fixed-sweep":
        presets = {"4m": NoiseConfig.four_meter(), "1km": NoiseConfig.one_km()}
        configs = {name: ExperimentConfig(noise=presets[name], seed=derive_seed(seed, k))
                   for k, name in enumerate(FIXED_PRESETS)}
    elif workload == "selftest":
        configs = {"selftest": ExperimentConfig(seed=derive_seed(seed, 0), mode="selftest")}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for cfg in configs.values():
        cfg.validate()
    return configs


@dataclass
class Pass:
    index: int
    label: str
    pairs: float  # throughput numerator: expected detected pairs (selftest: Haar draws)
    detected_pairs: float  # base of the per-pair ratios (selftest: none)
    args: tuple


class HaarRounds:
    name = "haar-rounds"
    cycle = 5  # passes per traced cycle: one per sweep setting

    def __init__(self, seed: int, work_dir: Path):
        self.cfg = make_configs(self.name, seed)["haar"]
        self.expect = [checks.expect_session(self.cfg.noise, s, "haar", self.cfg.duration_s)
                       for s in self.cfg.settings]

    def make_pass(self, i: int) -> Pass:
        k = i % len(self.cfg.settings)
        rng = np.random.default_rng(np.random.SeedSequence([self.cfg.seed, i]))
        pairs = self.expect[k].detected_pairs
        return Pass(i, f"haar[{k}]", pairs, pairs, (k, self.cfg.settings[k], rng))

    def run(self, p: Pass):
        _, setting, rng = p.args
        return rfqkd.detection.simulate_session(self.cfg.noise, setting, "haar",
                                                self.cfg.duration_s, rng)

    def check(self, p: Pass, tally) -> list[str]:
        return checks.check_tally(self.expect[p.args[0]], tally, self.cfg.duration_s, p.label)

    def check_counts(self, calls: dict, passes: int) -> list[str]:
        """Every detected pair draws one rotation, runs Bob's pipeline once and is
        either measured (key round) or split (test round)."""
        h, b = calls["channel.haar_sample"], calls["protocol.bob_pipeline"]
        m, c = calls["protocol.measure"], calls["protocol.coincident_split"]
        if h == b == m + c and calls["detection.simulate_session"] == passes:
            return []
        return [f"count check: haar_sample {h}, bob_pipeline {b}, measure {m} + "
                f"coincident_split {c}, simulate_session {calls['detection.simulate_session']}"]


class FixedSweep:
    name = "fixed-sweep"
    cycle = 4  # passes per traced cycle: every (preset, format) pair once

    def __init__(self, seed: int, work_dir: Path):
        self.cfgs = make_configs(self.name, seed)
        self.work_dir = work_dir
        self.expect = {
            name: [checks.expect_session(cfg.noise, s, scheme, cfg.duration_s)
                   for scheme in cfg.schemes for s in cfg.settings]
            for name, cfg in self.cfgs.items()
        }
        # the embedded config must round-trip to exactly what the CLI was asked for
        self.config_dicts = {name: json.loads(json.dumps(cfg.to_dict()))
                             for name, cfg in self.cfgs.items()}
        self.first_bytes: dict[tuple[str, str], bytes] = {}
        self.rows: dict[tuple[str, str], list[dict]] = {}

    def make_pass(self, i: int) -> Pass:
        c = i % self.cycle
        preset, fmt = FIXED_PRESETS[c % 2], FIXED_FORMATS[c // 2]
        cfg = self.cfgs[preset]
        path = self.work_dir / f"sweep-{preset}.{fmt}"
        argv = ["sweep", "--preset", preset, "--format", fmt,
                "--seed", str(cfg.seed), "--out", str(path)]
        pairs = sum(e.detected_pairs for e in self.expect[preset])
        return Pass(i, f"sweep {preset} {fmt}", pairs, pairs, (preset, fmt, path, argv))

    def run(self, p: Pass):
        with contextlib.redirect_stdout(io.StringIO()):
            return rfqkd.cli.main(p.args[3])

    def check(self, p: Pass, code) -> list[str]:
        preset, fmt, path, _ = p.args
        if code != 0:
            return [f"{p.label}: exit code {code}"]
        data = path.read_bytes()
        return self.check_output(preset, fmt, data, p.label)

    def check_output(self, preset: str, fmt: str, data: bytes, label: str) -> list[str]:
        key = (preset, fmt)
        first = self.first_bytes.setdefault(key, data)
        if data != first:
            return [f"{label}: output differs from the first run of the same seed"]
        try:
            config, rows = checks.parse_emitted(data.decode("utf-8"), fmt)
        except ValueError as exc:  # json.JSONDecodeError is a ValueError
            return [f"{label}: unparseable output: {exc}"]
        if config != self.config_dicts[preset]:
            return [f"{label}: embedded config differs from the requested one"]
        fails = checks.check_sweep_rows(rows, config, self.expect[preset], label)
        self.rows.setdefault(key, rows)
        other = (preset, "json" if fmt == "csv" else "csv")
        if other in self.rows:
            fails += checks.compare_rows(self.rows[key], self.rows[other], f"{label} csv vs json")
        return fails

    def check_counts(self, calls: dict, passes: int) -> list[str]:
        cfg = self.cfgs[FIXED_PRESETS[0]]
        sessions = passes * len(cfg.schemes) * len(cfg.settings)
        want = {"cli.main": passes, "harness.run_sweep": passes, "harness.emit": passes,
                "detection.simulate_session": sessions}
        return [f"count check: {name} {calls[name]} != {n}"
                for name, n in want.items() if calls[name] != n]


class Selftest:
    name = "selftest"
    cycle = 1

    def __init__(self, seed: int, work_dir: Path):
        self.cfg = make_configs(self.name, seed)["selftest"]
        self.on_line = None  # set by the traced run to mark suite boundaries

    def make_pass(self, i: int) -> Pass:
        return Pass(i, f"selftest[{i}]", float(SELFTEST_HAAR_DRAWS), 0.0,
                    (derive_seed(self.cfg.seed, i),))

    def run(self, p: Pass):
        lines: list[str] = []
        on_line = self.on_line

        def out(line: str) -> None:
            if on_line is not None:
                on_line(line)
            lines.append(line)

        return rfqkd.harness.selftest(p.args[0], out=out), lines

    def check(self, p: Pass, result) -> list[str]:
        ok, lines = result
        return checks.check_selftest(ok, lines)

    def check_counts(self, calls: dict, passes: int) -> list[str]:
        want = {"harness.selftest": passes, "channel.haar_sample": passes * SELFTEST_HAAR_DRAWS}
        return [f"count check: {name} {calls[name]} != {n}"
                for name, n in want.items() if calls[name] != n]


WORKLOADS = {w.name: w for w in (HaarRounds, FixedSweep, Selftest)}
