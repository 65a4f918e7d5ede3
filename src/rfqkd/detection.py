"""Stochastic detection layer: rates, losses, accidentals, counting statistics.

Converts the exact round probabilities of the protocol layer into realistic
session tallies.  Conventions, chosen once and used consistently by both the
Monte Carlo and the closed-form expectations:

* Per-photon fiber transmittance is 10**(-(L*alpha + extra)/10); both photons
  of a pair traverse the fiber, so the pair factor is the square.
* Accidental coincidences arrive at 2 * singles**2 * window (two detector
  pairings contribute); they carry uniformly random detector patterns, are
  not rejected by basis reconciliation, and each sifted accidental is wrong
  with probability 1/2.
* True pairs are basis-sifted (factor 1/2) and flip their decoded bit with
  probability source_error_prob + (1 - visibility)/2, the aggregate of
  source imperfection and imperfect two-photon interference contrast.
* A fraction ps_sample_fraction of detections is diverted to the inside-S
  test measurement instead of producing key bits.

Detected pairs are sampled as round groups (state, compensation B, effective
rotation, phase mask, count); only the group generator depends on the
compensation scheme.  Every group is evaluated once through the exact
pipeline and its test and key rounds are drawn binomially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import CollectiveRotation, RotatorSetting, Scheme, from_waveplates, haar_sample
from .protocol import (
    BasisChoice,
    LogicalState,
    PhaseMask,
    TallyCounts,
    coincident_split,
    conclusive_blocks,
    evolve,
)

__all__ = [
    "NoiseConfig",
    "transmittance",
    "accidental_rate",
    "intrinsic_error_rate",
    "sifted_true_rate",
    "accidental_error_contribution",
    "expected_qber",
    "expected_conclusive_rate",
    "expected_sifted_rate",
    "simulate_session",
    "visibility_envelope",
]

# maximum registered coincidence rate behind the source optics, short fiber
_DEFAULT_APPARATUS_EFFICIENCY = 140.0 / 12000.0


@dataclass(frozen=True)
class NoiseConfig:
    """Rates and imperfection parameters of one experimental configuration."""

    pair_rate_hz: float = 12000.0
    apparatus_efficiency: float = _DEFAULT_APPARATUS_EFFICIENCY
    fiber_length_km: float = 0.0
    atten_db_per_km: float = 4.8
    extra_loss_db: float = 0.0
    singles_rate_hz: float = 2000.0
    window_ns: float = 3.0
    source_error_prob: float = 0.04
    visibility: float = 0.95
    ps_sample_fraction: float = 0.1

    def __post_init__(self):
        if min(self.pair_rate_hz, self.fiber_length_km, self.atten_db_per_km,
               self.extra_loss_db, self.singles_rate_hz, self.window_ns) < 0:
            raise ValueError("rates, lengths and the window must be nonnegative")
        if not 0.0 < self.apparatus_efficiency <= 1.0:
            raise ValueError("apparatus_efficiency must be in (0, 1]")
        if not 0.0 <= self.source_error_prob <= 1.0:
            raise ValueError("source_error_prob must be in [0, 1]")
        if not 0.0 < self.visibility <= 1.0:
            raise ValueError("visibility must be in (0, 1]")
        if not 0.0 <= self.ps_sample_fraction < 1.0:
            raise ValueError("ps_sample_fraction must be in [0, 1)")

    @classmethod
    def four_meter(cls, **overrides) -> "NoiseConfig":
        """Short-fiber bench configuration (4 m patch, no extra connector loss)."""
        return replace(cls(fiber_length_km=0.004), **overrides)

    @classmethod
    def one_km(cls, **overrides) -> "NoiseConfig":
        """1 km fiber configuration; extra_loss_db is calibrated so the
        maximum registered coincidence rate drops from 140 Hz to 1.4 Hz."""
        return replace(cls(fiber_length_km=1.0, extra_loss_db=5.2), **overrides)


def transmittance(cfg: NoiseConfig) -> float:
    """Per-photon fiber transmittance; the pair transmits with the square."""
    loss_db = cfg.fiber_length_km * cfg.atten_db_per_km + cfg.extra_loss_db
    return 10.0 ** (-loss_db / 10.0)


def accidental_rate(cfg: NoiseConfig) -> float:
    """Accidental coincidence rate in Hz: 2 * singles^2 * window."""
    return 2.0 * cfg.singles_rate_hz**2 * cfg.window_ns * 1e-9


def intrinsic_error_rate(cfg: NoiseConfig) -> float:
    """Bit-flip probability of a sifted true coincidence (source + contrast)."""
    return cfg.source_error_prob + (1.0 - cfg.visibility) / 2.0


def sifted_true_rate(cfg: NoiseConfig, survival: float) -> float:
    """Sifted true-coincidence rate C_s = pair_rate * eff * t^2 * survival / 2."""
    return 0.5 * cfg.pair_rate_hz * cfg.apparatus_efficiency * transmittance(cfg) ** 2 * survival


def accidental_error_contribution(cfg: NoiseConfig, survival: float) -> float:
    """Error-rate share (A/2) / (C_s + A) caused by accidentals alone."""
    c_s = sifted_true_rate(cfg, survival)
    a = accidental_rate(cfg)
    if c_s + a <= 0.0:
        return 0.5
    return 0.5 * a / (c_s + a)


def expected_qber(cfg: NoiseConfig, survival: float) -> float:
    """Closed-form sifted error rate (e_t * C_s + A/2) / (C_s + A)."""
    if not 0.0 <= survival <= 1.0:
        raise ValueError("survival must be in [0, 1]")
    c_s = sifted_true_rate(cfg, survival)
    a = accidental_rate(cfg)
    if c_s + a <= 0.0:
        return 0.5
    return (intrinsic_error_rate(cfg) * c_s + 0.5 * a) / (c_s + a)


def expected_conclusive_rate(cfg: NoiseConfig, survival: float) -> float:
    """Conclusive detections per second: true coincidences plus accidentals."""
    return 2.0 * sifted_true_rate(cfg, survival) + accidental_rate(cfg)


def expected_sifted_rate(cfg: NoiseConfig, survival: float) -> float:
    """Sifted bits per second after diverting the inside-S test sample."""
    return (1.0 - cfg.ps_sample_fraction) * (
        sifted_true_rate(cfg, survival) + accidental_rate(cfg)
    )


def _clip01(p: float) -> float:
    return min(max(float(p), 0.0), 1.0)


def _key_error_probability(
    blocks: list[tuple[str, float, float]], p_conc: float, key_bit: int, flip_p: float
) -> float:
    """P(wrong sifted bit) of a conclusive key round, intrinsic flips included."""
    p_correct = sum(w * (p0 if key_bit == 0 else 1.0 - p0) for _, w, p0 in blocks) / p_conc
    return _clip01((1.0 - p_correct) * (1.0 - flip_p) + p_correct * flip_p)


def _round_groups(u: CollectiveRotation, scheme: Scheme, n_det: int, rng: np.random.Generator):
    """Detected pairs as (state, b_choice, u_eff, mask, count) round groups.

    'none' and 'flip_half' share their pairs multinomially over the 16 or
    32 equally likely configurations; 'haar' yields one group per pair with
    a fresh Haar compensation folded into the channel.
    """
    if scheme == "haar":
        states, masks = list(LogicalState), list(PhaseMask)
        for _ in range(n_det):
            state = states[rng.integers(4)]
            mask = masks[rng.integers(4)]
            yield state, "identity", u @ haar_sample(rng), mask, 1
        return
    if scheme == "none":
        b_choices = ("identity",)
    elif scheme == "flip_half":
        b_choices = ("identity", "flip")
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    configs = [
        (state, b, mask) for state in LogicalState for b in b_choices for mask in PhaseMask
    ]
    counts = rng.multinomial(n_det, np.full(len(configs), 1.0 / len(configs)))
    for (state, b, mask), count in zip(configs, counts):
        if count:
            yield state, b, u, mask, int(count)


def simulate_session(
    cfg: NoiseConfig,
    sweep_setting: RotatorSetting,
    scheme: Scheme,
    duration_s: float,
    rng: np.random.Generator,
) -> TallyCounts:
    """Monte Carlo session at one rotator setting.

    Emitted pairs are Poisson at the pair rate, thinned by the pair
    transmittance and apparatus efficiency.  Each round group of detected
    pairs is pushed once through the exact protocol pipeline, split into
    inside-S test rounds and key rounds in a random basis, and sampled
    binomially at its Born probabilities.  Accidental coincidences are
    injected at the accidental rate as uniformly random detector patterns.
    """
    if duration_s <= 0.0:
        raise ValueError("duration must be positive")
    u = from_waveplates(sweep_setting)
    p_det = cfg.apparatus_efficiency * transmittance(cfg) ** 2
    flip_p = intrinsic_error_rate(cfg)
    f_test = cfg.ps_sample_fraction

    n_emit = int(rng.poisson(cfg.pair_rate_hz * duration_s))
    n_det = int(rng.binomial(n_emit, p_det)) if n_emit > 0 else 0

    conclusive = sifted = errors = ps_total = ps_in = 0
    for state, b, u_eff, mask, count in _round_groups(u, scheme, n_det, rng):
        psi = evolve(state, b, u_eff, mask)
        n_test = int(rng.binomial(count, f_test))
        if n_test:
            p_conc, weights = coincident_split(psi)
            n_coinc_test = int(rng.binomial(n_test, _clip01(p_conc)))
            conclusive += n_coinc_test
            ps_total += n_coinc_test
            if n_coinc_test:
                p_in = _clip01(weights.get("S", 0.0) / p_conc)
                ps_in += int(rng.binomial(n_coinc_test, p_in))
        n_key = count - n_test
        n_first = int(rng.binomial(n_key, 0.5)) if n_key else 0
        for basis, n_b in zip(BasisChoice, (n_first, n_key - n_first)):
            if not n_b:
                continue
            p_conc, blocks = conclusive_blocks(psi, basis)
            n_conc = int(rng.binomial(n_b, _clip01(p_conc)))
            conclusive += n_conc
            if basis is state.basis and n_conc:
                sifted += n_conc
                p_err = _key_error_probability(blocks, p_conc, state.key_bit, flip_p)
                errors += int(rng.binomial(n_conc, p_err))

    # accidentals: uniform random patterns, charged in full to the sifted stream
    n_acc = int(rng.poisson(accidental_rate(cfg) * duration_s))
    conclusive += n_acc
    n_acc_test = int(rng.binomial(n_acc, f_test)) if n_acc else 0
    ps_total += n_acc_test
    if n_acc_test:
        ps_in += int(rng.binomial(n_acc_test, 0.5))
    n_acc_key = n_acc - n_acc_test
    sifted += n_acc_key
    if n_acc_key:
        errors += int(rng.binomial(n_acc_key, 0.5))

    return TallyCounts(
        rounds=n_emit + n_acc,
        conclusive=conclusive,
        sifted=sifted,
        errors=errors,
        accidental_conclusive=n_acc,
        pS_sample_total=ps_total,
        pS_sample_inS=ps_in,
        duration_s=duration_s,
    )


def visibility_envelope(
    path_mismatch_um: float,
    filter_fwhm_nm: float,
    wavelength_nm: float,
    peak_visibility: float = 0.95,
) -> float:
    """Two-photon interference visibility versus interferometer path mismatch.

    Gaussian envelope V0 * exp(-(dx / l_c)^2) with coherence length
    l_c = wavelength^2 / bandwidth.
    """
    if filter_fwhm_nm <= 0.0 or wavelength_nm <= 0.0:
        raise ValueError("bandwidth and wavelength must be positive")
    l_c_um = wavelength_nm**2 / filter_fwhm_nm / 1000.0
    return peak_visibility * math.exp(-((path_mismatch_um / l_c_um) ** 2))
