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

Detected pairs are sorted over the round outcomes through the array engine
of the protocol layer: a fixed scheme's by one multinomial draw over its
mean odds and 'haar' pairs row by row; accidentals need no engine and take
one more draw over the odds stated above (`_accidental_odds`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import CollectiveRotation, RotatorSetting, Scheme, from_waveplates, haar_matrices
from .protocol import BasisChoice, LogicalState, TallyCounts, evolve_rows, read_rows

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
        for name in ("pair_rate_hz", "fiber_length_km", "atten_db_per_km",
                     "extra_loss_db", "singles_rate_hz", "window_ns"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, "
                                 f"got {getattr(self, name)!r}")
        if not 0.0 < self.apparatus_efficiency <= 1.0:
            raise ValueError("apparatus_efficiency must be in (0, 1]")
        if not 0.0 <= self.source_error_prob <= 1.0:
            raise ValueError("source_error_prob must be in [0, 1]")
        if not 0.0 < self.visibility <= 1.0:
            raise ValueError("visibility must be in (0, 1]")
        if intrinsic_error_rate(self) > 1.0:
            raise ValueError("source_error_prob + (1 - visibility)/2 must be at most 1, got "
                             f"{self.source_error_prob!r} + (1 - {self.visibility!r})/2")
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
    """Closed-form sifted error rate (e_t * C_s + A/2) / (C_s + A), written as
    e_t + (1 - 2 e_t) * `accidental_error_contribution`."""
    if not 0.0 <= survival <= 1.0:
        raise ValueError("survival must be in [0, 1]")
    e = intrinsic_error_rate(cfg)
    return e + (1.0 - 2.0 * e) * accidental_error_contribution(cfg, survival)


def expected_conclusive_rate(cfg: NoiseConfig, survival: float) -> float:
    """Conclusive detections per second: true coincidences plus accidentals."""
    return 2.0 * sifted_true_rate(cfg, survival) + accidental_rate(cfg)


def expected_sifted_rate(cfg: NoiseConfig, survival: float) -> float:
    """Sifted bits per second after diverting the inside-S test sample."""
    return (1.0 - cfg.ps_sample_fraction) * (
        sifted_true_rate(cfg, survival) + accidental_rate(cfg)
    )


# Haar pairs drawn per group (memory stays flat in the session length) and rows evaluated
# per slice: 128 rows peak well under glibc's heap-trim edge, which 256 sat on (README)
_HAAR_BLOCK, _ENGINE_ROWS = 256, 128
_KEY_BITS = np.array([l.key_bit for l in LogicalState])
_BASIS_INDEX = np.array([list(BasisChoice).index(l.basis) for l in LogicalState])
# the compensations B of the fixed schemes, each given to an equal share of the pairs
_COMPENSATIONS = {"none": np.eye(2)[None],
                  "flip_half": np.array([np.eye(2), CollectiveRotation.bit_flip().matrix])}
# each fixed scheme's equally likely rows (states, index of B): every (state, B) once
_FIXED_ROWS = {scheme: np.indices((4, len(b))).reshape(2, -1)
               for scheme, b in _COMPENSATIONS.items()}


def _odds(joint: np.ndarray, key_bits: np.ndarray, cfg: NoiseConfig) -> np.ndarray:
    """Odds (N, 6) of a pair's six outcomes, from each row's P(block, bit) joint[n] (`read_rows`).

    The outcomes are test inside S, test outside S, unsifted key, sifted
    right, sifted wrong and not conclusive: a conclusive pair is a test
    round with ps_sample_fraction, else a key round sifted with 1/2 (Bob's
    basis matches Alice's), and a sifted bit flips with the intrinsic error
    rate.  The odds are products of weights, so none is negative and a row
    with no coincident weight needs no guard.
    """
    f, e, key = cfg.ps_sample_fraction, intrinsic_error_rate(cfg), 1.0 - cfg.ps_sample_fraction
    w, bits = joint.sum(axis=2).T, joint.sum(axis=1).T
    odds = np.zeros((6, len(joint)))  # numpy gives the last outcome the remaining odds
    odds[:3] = f * w[1], f * (w[0] + w[2]), key * 0.5 * w.sum(axis=0)
    right_wrong = np.where(key_bits == 0, bits, bits[::-1])
    odds[3:5] = key * 0.5 * (right_wrong * (1.0 - e) + right_wrong[::-1] * e)
    return odds.T


def _accidental_odds(cfg: NoiseConfig) -> list[float]:
    """Odds of an accidental's six outcomes: a uniformly random detector pattern
    is inside S with 1/2, is never sifted away and is right or wrong with 1/2.
    Right and wrong are one product, so numpy splits them at p = 1/2 exactly."""
    f, key = cfg.ps_sample_fraction, 1.0 - cfg.ps_sample_fraction
    return [f * 0.5, f * 0.5, 0.0, key * 0.5, key * 0.5, 0.0]


def _row_odds(cfg: NoiseConfig, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """`_odds` (N, 6) of engine rows: state indices and effective rotations u (N, 2, 2)."""
    joint = read_rows(evolve_rows(states, u), _BASIS_INDEX[states])
    return _odds(joint, _KEY_BITS[states], cfg)


def _mean_odds(cfg: NoiseConfig, u: np.ndarray, scheme: Scheme) -> np.ndarray:
    """Odds (6,) of one detected pair of a fixed scheme: `_odds` averaged over
    its equally likely rows (`_FIXED_ROWS`), B folded into the channel u."""
    if scheme not in _FIXED_ROWS:
        raise ValueError(f"unknown scheme {scheme!r}")
    states, k = _FIXED_ROWS[scheme]
    return _row_odds(cfg, states, (u @ _COMPENSATIONS[scheme])[k]).mean(axis=0)


def simulate_session(
    cfg: NoiseConfig,
    sweep_setting: RotatorSetting,
    scheme: Scheme,
    duration_s: float,
    rng: np.random.Generator,
) -> TallyCounts:
    """Monte Carlo session at one rotator setting.

    Emitted pairs are Poisson at the pair rate, thinned by the pair
    transmittance and apparatus efficiency.  Each detected pair is sorted
    over six outcomes: test round inside or outside S, unsifted key round,
    sifted right or wrong (Bob's basis matches with 1/2), or not conclusive.
    'none' and 'flip_half' sort all of them with one multinomial draw over
    their mean odds (`_mean_odds`); 'haar' reads each pair's own row, with
    a fresh Haar B, through the array engine.  Accidental coincidences
    arrive at the accidental rate and are sorted by one more draw, as a
    uniformly random detector pattern that is never sifted away.
    """
    if not 0.0 < duration_s < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration_s!r}")
    u = from_waveplates(sweep_setting).matrix
    p_det = cfg.apparatus_efficiency * transmittance(cfg) ** 2

    n_emit = int(rng.poisson(cfg.pair_rate_hz * duration_s))
    n_acc = int(rng.poisson(accidental_rate(cfg) * duration_s))
    n_det = int(rng.binomial(n_emit, p_det))

    if scheme != "haar":
        outcomes = rng.multinomial(n_det, _mean_odds(cfg, u, scheme))
    else:  # _HAAR_BLOCK rows at a time, sorted in slices: the stream is that of whole groups
        outcomes = np.zeros(6, dtype=np.int64)
        for start in range(0, n_det, _HAAR_BLOCK):
            ub = haar_matrices(rng, min(_HAAR_BLOCK, n_det - start), u)
            states = rng.integers(4, size=len(ub))
            rng.integers(4, size=len(ub))  # Bob's masks: no P(block, bit) reads them, but the
            # draw keeps the seeded stream of 'haar' as it was
            for k in range(0, len(ub), _ENGINE_ROWS):
                odds = _row_odds(cfg, states[k:k + _ENGINE_ROWS], ub[k:k + _ENGINE_ROWS])
                outcomes += rng.multinomial(1, odds).sum(axis=0)
    outcomes += rng.multinomial(n_acc, _accidental_odds(cfg))
    test_in, test_out, unsifted, right, wrong = (int(n) for n in outcomes[:5])

    return TallyCounts(
        rounds=n_emit + n_acc,
        conclusive=test_in + test_out + unsifted + right + wrong,
        sifted=right + wrong,
        errors=wrong,
        accidental_conclusive=n_acc,
        pS_sample_total=test_in + test_out,
        pS_sample_inS=test_in,
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
    l_c = wavelength^2 / bandwidth.  V0 takes the range of
    `NoiseConfig.visibility`, (0, 1].
    """
    if not (0.0 < filter_fwhm_nm < math.inf and 0.0 < wavelength_nm < math.inf):
        raise ValueError("bandwidth and wavelength must be positive and finite")
    if not 0.0 < peak_visibility <= 1.0:
        raise ValueError(f"peak_visibility must be in (0, 1], got {peak_visibility!r}")
    if math.isnan(path_mismatch_um):
        raise ValueError("path mismatch must not be NaN")
    l_c_um = wavelength_nm**2 / filter_fwhm_nm / 1000.0
    return peak_visibility * math.exp(-((path_mismatch_um / l_c_um) ** 2))
