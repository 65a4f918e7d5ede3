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

Detected pairs are drawn as array groups, the only step that depends on
the compensation scheme; every group, and the accidentals as one more row,
goes through the array engine of the protocol layer and one multinomial
draw over the round outcomes (`simulate_session`).
"""

from __future__ import annotations

import functools
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


# Haar pairs drawn per group (memory stays flat in the session length) and rows evaluated
# per slice: 128 rows peak well under glibc's heap-trim edge, which 256 sat on (README)
_HAAR_BLOCK, _ENGINE_ROWS = 256, 128
_KEY_BITS = np.array([l.key_bit for l in LogicalState])
_BASIS_INDEX = np.array([list(BasisChoice).index(l.basis) for l in LogicalState])
# an accidental as P(block, decoded bit): a uniformly random detector pattern,
# inside S with 1/2 and either bit with 1/2
_ACCIDENTAL = np.array([[[0.125, 0.125], [0.25, 0.25], [0.125, 0.125]]])
# the compensations B of the fixed schemes, each given to an equal share of the pairs
_COMPENSATIONS = {"none": np.eye(2)[None],
                  "flip_half": np.array([np.eye(2), CollectiveRotation.bit_flip().matrix])}
# each fixed scheme's rows (states, index of B, masks, shares): every (state, B, mask) once
_FIXED_ROWS = {scheme: (states, k, masks, np.full(states.size, 1.0 / states.size))
               for scheme, b in _COMPENSATIONS.items()
               for states, k, masks in [np.indices((4, len(b), 4)).reshape(3, -1)]}


def _round_groups(scheme: Scheme, u: np.ndarray, n_det: int, rng: np.random.Generator):
    """Detected pairs as array groups (states, rotations u @ B, masks, counts).

    States and masks index LogicalState and PhaseMask.  'none' and
    'flip_half' give one group of their 16 or 32 equally likely rows
    (`_FIXED_ROWS`), sharing the pairs multinomially; 'haar' gives one row
    per pair, with a fresh Haar B, drawn _HAAR_BLOCK rows at a time and
    yielded in slices of _ENGINE_ROWS, each slice's draw before the next.
    """
    if scheme == "haar":
        for start in range(0, n_det, _HAAR_BLOCK):
            n = min(_HAAR_BLOCK, n_det - start)
            ub = haar_matrices(rng, n, u)  # drawn ahead of the states and masks
            group = rng.integers(4, size=n), ub, rng.integers(4, size=n), np.ones(n, dtype=int)
            for k in range(0, n, _ENGINE_ROWS):  # the stream is that of whole groups
                yield tuple(a[k:k + _ENGINE_ROWS] for a in group)
        return
    if scheme not in _FIXED_ROWS:
        raise ValueError(f"unknown scheme {scheme!r}")
    states, k, masks, share = _FIXED_ROWS[scheme]
    yield states, (u @ _COMPENSATIONS[scheme])[k], masks, rng.multinomial(n_det, share)


def _odds(joint: np.ndarray, key_bits: np.ndarray, p_sift: float, cfg: NoiseConfig) -> np.ndarray:
    """Odds (N, 6) of a pair's six outcomes, from each row's P(block, bit) joint[n] (`read_rows`).

    The outcomes are test inside S, test outside S, unsifted key, sifted
    right, sifted wrong and not conclusive: a conclusive pair is a test
    round with ps_sample_fraction, else a key round sifted with p_sift, and
    a sifted bit flips with the intrinsic error rate.  The odds are products
    of weights, so none is negative and a row with no coincident weight
    needs no guard.
    """
    f, e, key = cfg.ps_sample_fraction, intrinsic_error_rate(cfg), 1.0 - cfg.ps_sample_fraction
    w, bits = joint.sum(axis=2).T, joint.sum(axis=1).T
    odds = np.zeros((6, len(joint)))  # numpy gives the last outcome the remaining odds
    odds[:3] = f * w[1], f * (w[0] + w[2]), key * (1.0 - p_sift) * w.sum(axis=0)
    right_wrong = np.where(key_bits == 0, bits, bits[::-1])
    odds[3:5] = key * p_sift * (right_wrong * (1.0 - e) + right_wrong[::-1] * e)
    return odds.T


@functools.lru_cache(maxsize=16)
def _accidental_odds(cfg: NoiseConfig) -> np.ndarray:
    """`_odds` of the accidental row, which depend on the configuration alone."""
    odds = _odds(_ACCIDENTAL, np.zeros(1, dtype=int), 1.0, cfg)
    odds.flags.writeable = False
    return odds


def simulate_session(
    cfg: NoiseConfig,
    sweep_setting: RotatorSetting,
    scheme: Scheme,
    duration_s: float,
    rng: np.random.Generator,
) -> TallyCounts:
    """Monte Carlo session at one rotator setting.

    Emitted pairs are Poisson at the pair rate, thinned by the pair
    transmittance and apparatus efficiency.  Each array group of detected
    pairs goes once through the exact pipeline (`evolve_rows`), is read in
    each row's own basis (`read_rows`) and is sorted by one multinomial
    draw: test round inside or outside S, unsifted key round, sifted right
    or wrong (Bob's basis matches with 1/2), or not conclusive.
    Accidental coincidences arrive at the accidental rate and are sorted as
    one more row, a uniformly random detector pattern that is never sifted
    away.
    """
    if not duration_s > 0.0:
        raise ValueError("duration must be positive")
    u = from_waveplates(sweep_setting).matrix
    p_det = cfg.apparatus_efficiency * transmittance(cfg) ** 2

    n_emit = int(rng.poisson(cfg.pair_rate_hz * duration_s))
    n_acc = int(rng.poisson(accidental_rate(cfg) * duration_s))
    n_det = int(rng.binomial(n_emit, p_det))

    outcomes = np.zeros(6, dtype=np.int64)
    for states, ub, masks, counts in _round_groups(scheme, u, n_det, rng):
        joint = read_rows(evolve_rows(states, ub, masks), _BASIS_INDEX[states])
        outcomes += rng.multinomial(counts, _odds(joint, _KEY_BITS[states], 0.5, cfg)).sum(axis=0)
    outcomes += rng.multinomial([n_acc], _accidental_odds(cfg))[0]
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
    l_c = wavelength^2 / bandwidth.
    """
    if filter_fwhm_nm <= 0.0 or wavelength_nm <= 0.0:
        raise ValueError("bandwidth and wavelength must be positive")
    l_c_um = wavelength_nm**2 / filter_fwhm_nm / 1000.0
    return peak_visibility * math.exp(-((path_mismatch_um / l_c_um) ** 2))
