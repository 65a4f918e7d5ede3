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

Detected pairs are sampled as round groups (state, effective rotation u @ B
with the compensation B folded in, phase mask, count); only the group
generator depends on the compensation scheme.  Every group is evaluated
once through the exact pipeline, in its own basis, and thinned binomially:
conclusive, then inside-S test round or key round, then sifted, then wrong.
Accidentals are thinned the same way at fixed odds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import CollectiveRotation, RotatorSetting, Scheme, from_waveplates, haar_sample
from .protocol import (
    LogicalState,
    PhaseMask,
    TallyCounts,
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
        if not all(0.0 <= v < math.inf for v in (
                self.pair_rate_hz, self.fiber_length_km, self.atten_db_per_km,
                self.extra_loss_db, self.singles_rate_hz, self.window_ns)):
            raise ValueError("rates, lengths and the window must be finite and nonnegative")
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


def _thin(rng: np.random.Generator, n: int, p_conc: float, p_in: float, p_sift: float,
          p_err: float, f_test: float) -> tuple[int, int, int, int, int]:
    """Thin n detected pairs into (conclusive, test, test inside S, sifted, errors).

    A pair is conclusive with p_conc; a conclusive pair is a test round with
    f_test, and then inside S with p_in, or else a key round, sifted with
    p_sift and then wrong with p_err.
    """
    conclusive = int(rng.binomial(n, _clip01(p_conc)))
    test = int(rng.binomial(conclusive, f_test))
    test_in = int(rng.binomial(test, _clip01(p_in)))
    sifted = int(rng.binomial(conclusive - test, p_sift))
    return conclusive, test, test_in, sifted, int(rng.binomial(sifted, _clip01(p_err)))


def _round_groups(u: CollectiveRotation, scheme: Scheme, n_det: int, rng: np.random.Generator):
    """Detected pairs as (state, u_eff, mask, count) round groups, u_eff = u @ B.

    'none' and 'flip_half' share their pairs multinomially over the 16 or
    32 equally likely configurations; 'haar' yields one group per pair with
    a fresh Haar compensation B.
    """
    if scheme == "haar":
        states, masks = list(LogicalState), list(PhaseMask)
        for _ in range(n_det):
            state = states[rng.integers(4)]
            mask = masks[rng.integers(4)]
            yield state, u @ haar_sample(rng), mask, 1
        return
    if scheme == "none":
        rotations = (u,)
    elif scheme == "flip_half":
        rotations = (u, u @ CollectiveRotation.bit_flip())
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    configs = [
        (state, u_eff, mask) for state in LogicalState for u_eff in rotations for mask in PhaseMask
    ]
    counts = rng.multinomial(n_det, np.full(len(configs), 1.0 / len(configs)))
    for (state, u_eff, mask), count in zip(configs, counts):
        if count:
            yield state, u_eff, mask, int(count)


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
    pairs is pushed once through the exact protocol pipeline and read in
    its own basis; its pairs are then thinned binomially at the Born
    probabilities: conclusive, then inside-S test round or key round, then
    sifted (Bob's basis matches with 1/2), then wrong.  Accidental
    coincidences arrive at the accidental rate and take the same thinning
    as uniformly random detector patterns.
    """
    if not duration_s > 0.0:
        raise ValueError("duration must be positive")
    u = from_waveplates(sweep_setting)
    p_det = cfg.apparatus_efficiency * transmittance(cfg) ** 2
    flip_p = intrinsic_error_rate(cfg)
    f_test = cfg.ps_sample_fraction

    n_emit = int(rng.poisson(cfg.pair_rate_hz * duration_s))
    n_det = int(rng.binomial(n_emit, p_det)) if n_emit > 0 else 0

    draws = []
    for state, u_eff, mask, count in _round_groups(u, scheme, n_det, rng):
        p_conc, blocks = conclusive_blocks(evolve(state, "identity", u_eff, mask), state.basis)
        if not blocks:
            continue  # no coincident weight: no pair of this group is conclusive
        p_in = sum(w for label, w, _ in blocks if label == "S") / p_conc
        p_right = sum(w * (p0 if state.key_bit == 0 else 1.0 - p0) for _, w, p0 in blocks) / p_conc
        p_err = (1.0 - p_right) * (1.0 - flip_p) + p_right * flip_p
        draws.append(_thin(rng, count, p_conc, p_in, 0.5, p_err, f_test))

    # accidentals: conclusive, inside S with 1/2, never sifted away, right with 1/2
    n_acc = int(rng.poisson(accidental_rate(cfg) * duration_s))
    draws.append(_thin(rng, n_acc, 1.0, 0.5, 1.0, 0.5, f_test))
    conclusive, ps_total, ps_in, sifted, errors = (sum(col) for col in zip(*draws))

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
