"""Experiment orchestration: seeded sweeps, tabular output, self checks.

A sweep runs one detection session per (rotator setting, scheme) pair from
a single master seed, so repeated runs are byte-identical.  Results are
emitted as CSV or JSON with a fixed column order; when a configuration is
passed along, it is embedded in the output for provenance (CSV comment
lines, or a wrapping object for JSON).
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import channel, detection, hilbert, protocol, security
from .channel import RotatorSetting, sweep_settings
from .detection import NoiseConfig, simulate_session
from .protocol import TallyCounts

DEFAULT_SEED = 123456789
_field_types = functools.cache(get_type_hints)  # resolved once per record class


def from_json(cls, data, where: str):
    """Build the dataclass cls from parsed JSON, checked against its fields.

    data must be an object whose keys name fields of cls.  A number must be
    finite and of the field's type (an int field takes no float), a nested
    dataclass is read recursively, and a tuple takes an array, or one bare
    string for a tuple of strings.  Else a ValueError names the key."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
    types = _field_types(cls)
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")
    return cls(**{key: _from_json_value(types[key], value, where, key)
                  for key, value in data.items()})


def _from_json_value(kind, value, where: str, key: str):
    if dataclasses.is_dataclass(kind):
        return from_json(kind, value, key)
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        if item is str and isinstance(value, str):
            return (value,)
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where} key {key!r} must be an array, got {value!r}")
        return tuple(_from_json_value(item, v, where, key) for v in value)
    allowed = (int, float) if kind is float else (kind,)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ValueError(f"{where} key {key!r} must be {kind.__name__}, got {value!r}")
    if kind is not str and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{where} key {key!r} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration of one experiment run."""

    noise: NoiseConfig = field(default_factory=NoiseConfig.four_meter)
    schemes: tuple[str, ...] = ("none", "flip_half")
    settings: tuple[RotatorSetting, ...] = field(default_factory=sweep_settings)
    duration_s: float = 1200.0
    seed: int = DEFAULT_SEED
    mode: str = "sweep"

    def validate(self) -> None:
        if not self.settings:
            raise ValueError("config needs at least one rotator setting")
        if not 0.0 < self.duration_s < math.inf:
            raise ValueError(f"duration_s must be positive and finite, got {self.duration_s!r}")
        for name, rate in (("pair_rate_hz", self.noise.pair_rate_hz),
                           ("the accidental rate", detection.accidental_rate(self.noise))):
            if rate * self.duration_s > 1e18:  # numpy's Poisson takes means up to ~9.2e18
                raise ValueError(f"{name} times duration_s is {rate:.4g} Hz * {self.duration_s!r} "
                                 f"s = {rate * self.duration_s:.4g} expected pairs, above 1e18")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not self.schemes:
            raise ValueError("config needs at least one compensation scheme")
        for s in self.schemes:
            if s not in channel.SCHEMES:
                raise ValueError(f"unknown scheme {s!r}")
        if self.mode not in ("sweep", "single", "keyrate", "selftest"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build a config from its dict form, checked by `from_json`."""
        return from_json(cls, data, "config")


@dataclass(frozen=True)
class SweepRow:
    setting_index: int
    scheme: str
    conclusive_rate_hz: float
    normalized_coincidence: float
    qber: float
    qber_stderr: float
    p_S: float
    key_rate_fraction: float


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))


def _row_from_tally(index: int, scheme: str, tally: TallyCounts, max_rate: float) -> SweepRow:
    rate = tally.conclusive / tally.duration_s
    if tally.sifted > 0:
        qber = tally.errors / tally.sifted
        stderr = math.sqrt(max(qber * (1.0 - qber), 0.0) / tally.sifted)
    else:
        qber = stderr = math.nan
    p_s = (
        tally.pS_sample_inS / tally.pS_sample_total if tally.pS_sample_total > 0 else math.nan
    )
    try:
        rate_fraction = security.key_rate(p_s, qber)
    except ValueError:  # p_S = 0, QBER > 0.5, or the NaN of no sifted bits or no test sample
        rate_fraction = math.nan
    return SweepRow(
        setting_index=index,
        scheme=scheme,
        conclusive_rate_hz=rate,
        normalized_coincidence=rate / max_rate if max_rate > 0.0 else math.nan,
        qber=qber,
        qber_stderr=stderr,
        p_S=p_s,
        key_rate_fraction=rate_fraction,
    )


def run_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """One detection session per (setting, scheme); deterministic given the seed."""
    cfg.validate()
    streams = iter(np.random.SeedSequence(cfg.seed).spawn(len(cfg.schemes) * len(cfg.settings)))
    sessions = [(index, scheme, simulate_session(cfg.noise, setting, scheme, cfg.duration_s,
                                                  np.random.default_rng(next(streams))))
                for scheme in cfg.schemes for index, setting in enumerate(cfg.settings)]
    max_rate = max(tally.conclusive / tally.duration_s for _, _, tally in sessions)
    return [_row_from_tally(index, scheme, tally, max_rate) for index, scheme, tally in sessions]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit(
    rows: Sequence[SweepRow],
    format: str = "csv",
    config: Optional[ExperimentConfig] = None,
) -> str:
    """Serialize sweep rows and return the text.

    Numbers carry 6 significant digits and the column order is fixed.  When a
    config is given it is embedded for provenance: as '# config: ...' comment
    lines ahead of the CSV header, or as a {"config":..., "rows": [...]}
    object for JSON.  Without a config the CSV is exactly header plus rows
    and the JSON is a bare array.  Non-finite values (a row with no sifted
    bits, say) are written as nan in CSV and as null in JSON.
    """
    if not rows:
        raise ValueError("emit needs at least one row")
    if format == "csv":
        buf = io.StringIO()
        if config is not None:
            buf.write("# config: " + json.dumps(config.to_dict(), sort_keys=True) + "\n")
        buf.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            buf.write(",".join(_fmt(getattr(row, c)) for c in CSV_COLUMNS) + "\n")
        text = buf.getvalue()
    elif format == "json":
        def as_number(value):
            if not isinstance(value, float):
                return value
            return float(_fmt(value)) if math.isfinite(value) else None

        payload = [
            {name: as_number(getattr(row, name)) for name in CSV_COLUMNS} for row in rows
        ]
        obj = {"config": config.to_dict(), "rows": payload} if config is not None else payload
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    return text


# ---------------------------------------------------------------------------
# self checks: the invariant suites behind the `selftest` command

def suite_delta_norm(rng, n=1000, delta_fn=channel.delta_params):
    """||d1||^2 + ||d2||^2 + ||d3||^2 = 1 for Haar-random rotations."""
    worst = 0.0
    for _ in range(n):
        u = channel.haar_sample(rng)
        d = delta_fn(u)
        norm = abs(d.d1) ** 2 + abs(d.d2) ** 2 + abs(d.d3) ** 2
        worst = max(worst, abs(norm - 1.0))
    return worst <= 1e-10, f"max |norm - 1| = {worst:.3e}"


def four_term_expansion(u: channel.CollectiveRotation, alpha: complex, beta: complex):
    """Reference amplitudes of the tagged pair after the channel, from the
    closed-form four-term expansion (independent of the state pipeline)."""
    c_keep, c_double, c_hh, c_vv = channel.delta_params(u).expansion_coefficients()
    amps = np.zeros((2, 3, 2, 3), dtype=complex)
    H, V = 0, 1  # polarization indices (hilbert.POLS)
    terms = [
        (c_keep, (H, 1, V, 1), (V, 1, H, 1)),
        (c_double, (V, 0, H, 2), (H, 2, V, 0)),
        (c_hh, (H, 1, H, 2), (H, 2, H, 1)),
        (c_vv, (V, 0, V, 1), (V, 1, V, 0)),
    ]
    for coeff, alpha_mode, beta_mode in terms:
        amps[alpha_mode] += coeff * alpha
        amps[beta_mode] += coeff * beta
    return amps


def suite_expansion(rng, n=100):
    """Pipeline evolution matches the four-term expansion coefficient-wise."""
    worst = 0.0
    for _ in range(n):
        u = channel.haar_sample(rng)
        for state in protocol.LogicalState:
            dev = np.max(np.abs(protocol.evolve(state, u).amplitudes
                                - four_term_expansion(u, *state.alpha_beta)))
            worst = max(worst, float(dev))
    return worst <= 1e-10, f"max coefficient deviation = {worst:.3e}"


def suite_dfs(rng, n=50):
    """The post-selected coincident state carries the logical state intact."""
    worst = 1.0
    for _ in range(n):
        u = channel.haar_sample(rng)
        for state in protocol.LogicalState:
            alpha, beta = state.alpha_beta
            evolved = protocol.evolve(state, u)
            kept, prob = hilbert.project(evolved, protocol.COINCIDENT_PAIRS)
            if prob < 1e-6:
                continue  # survival can vanish at isolated rotations
            reference = hilbert.pure_state(
                {(("H", 1), ("V", 1)): alpha, (("V", 1), ("H", 1)): beta}
            )
            f = hilbert.fidelity(kept.normalized(), reference)
            worst = min(worst, f)
    return abs(worst - 1.0) <= 1e-10, f"min fidelity = {worst:.12f}"


def suite_haar_mean(rng, n=100_000):
    """Mean coincident survival over Haar rotations is 1/3."""
    total = 0.0
    for _ in range(n):
        total += channel.survival_probability(channel.haar_sample(rng))
    mean = total / n
    return abs(mean - 1.0 / 3.0) <= 0.005, f"mean survival = {mean:.5f}"


def suite_dephasing(rng, n=20):
    """Mask averaging kills every S-to-outside coherence of the density matrix."""
    s_pairs = [(("H", 0), ("V", 1)), (("V", 1), ("H", 0))]
    out_pairs = [(("H", 0), ("H", 0)), (("V", 1), ("V", 1))]
    worst = 0.0
    for _ in range(n):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        base = hilbert.pure_state(dict(zip(s_pairs + out_pairs, amps)))
        mixed = hilbert.density_average(
            [
                (hilbert.PairDensity.from_state(
                    hilbert.apply_pol_unitary(base, mask.matrix, "both")), 0.25)
                for mask in protocol.PhaseMask
            ]
        )
        for ket in s_pairs:
            for bra in out_pairs:
                worst = max(worst, abs(mixed.element(ket, bra)), abs(mixed.element(bra, ket)))
    return worst <= 1e-12, f"max residual coherence = {worst:.3e}"


def suite_oracle(rng, n=100):
    """Projection probability of the evolved state equals |a|^4 (and the
    flip-averaged survival stays inside [1/4, 1/2])."""
    worst = 0.0
    for _ in range(n):
        u = channel.haar_sample(rng)
        evolved = protocol.evolve(protocol.LogicalState.PSI_PLUS, u)
        _, prob = hilbert.project(evolved, protocol.COINCIDENT_PAIRS)
        worst = max(worst, abs(prob - channel.survival_probability(u)))
        avg = channel.randomized_survival(u, "flip_half")
        if not 0.25 - 1e-12 <= avg <= 0.5 + 1e-12:
            return False, f"flip_half survival {avg} escaped [1/4, 1/2]"
    return worst <= 1e-10, f"max |p_project - |a|^4| = {worst:.3e}"


SELFTEST_SUITES: tuple[tuple[str, Callable], ...] = (
    ("delta_norm", suite_delta_norm),
    ("expansion", suite_expansion),
    ("dfs_preservation", suite_dfs),
    ("haar_mean", suite_haar_mean),
    ("dephasing", suite_dephasing),
    ("oracle_agreement", suite_oracle),
)


def selftest(seed: int = DEFAULT_SEED, out: Callable[[str], None] = print) -> bool:
    """Run the invariant suites; prints one timed pass/fail line per suite."""
    all_ok = True
    for index, (name, fn) in enumerate(SELFTEST_SUITES):
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        start = time.perf_counter()
        ok, detail = fn(rng)
        elapsed = time.perf_counter() - start
        out(f"{'PASS' if ok else 'FAIL'}  {name:<18} {elapsed:7.2f} s  {detail}")
        all_ok = all_ok and ok
    return all_ok
