"""Exact complex-amplitude algebra for two-photon polarization x time-bin states.

A photon mode is a ``(pol, bin)`` tuple: polarization 'H' or 'V' and a
time bin counting how many tag delays T the photon has accumulated (0, 1
or 2; a photon is delayed at most twice, once per tagging interferometer).
A pair state is a 36-entry complex amplitude vector indexed by
(pol1, bin1, pol2, bin2), where photon 1 is the early photon of the 6 ns
pair label.  All operations here are pure and linear; states are immutable
after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

import numpy as np

POLS = "HV"
N_BINS = 3
DIM = 2 * N_BINS * 2 * N_BINS  # 36

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = 1e-10
UNITARITY_TOL = 1e-10


ModePair = tuple[tuple[str, int], tuple[str, int]]  # ((pol1, bin1), (pol2, bin2))

NormKind = Literal["normalized", "subnormalized"]

_MODE_INDEX = {(pol, b): (p, b) for p, pol in enumerate(POLS) for b in range(N_BINS)}


def _pair_index(pair: ModePair) -> tuple[int, int, int, int]:
    """Amplitude index (pol1, bin1, pol2, bin2) of a mode pair: the one check of a mode."""
    first, second = pair
    try:
        return _MODE_INDEX[first] + _MODE_INDEX[second]
    except KeyError as missing:
        raise ValueError(f"a mode is a (pol, bin) tuple with pol 'H' or 'V' and bin 0, 1 or 2, "
                         f"got {missing.args[0]!r}") from None


@dataclass(frozen=True)
class PairState:
    """Two-photon amplitude vector, shape (2, 3, 2, 3) = (pol1, bin1, pol2, bin2).

    ``norm_kind`` records whether the state is normalized (squared norm 1
    within 1e-12) or subnormalized (squared norm at most 1, possibly 0 for
    an empty projection).  Photon 1 is the early photon of the pair label.
    """

    amplitudes: np.ndarray
    norm_kind: NormKind = "normalized"

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2, N_BINS, 2, N_BINS):
            raise ValueError(f"amplitudes must have shape (2,3,2,3), got {amps.shape}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        n2 = self.norm2
        if self.norm_kind == "normalized":
            if abs(n2 - 1.0) > NORM_TOL:
                raise ValueError(f"normalized state has squared norm {n2!r}")
        elif self.norm_kind == "subnormalized":
            if n2 > 1.0 + NORM_TOL:
                raise ValueError(f"subnormalized state has squared norm {n2!r} > 1")
        else:
            raise ValueError(f"unknown norm_kind {self.norm_kind!r}")

    @property
    def norm2(self) -> float:
        """Squared two-norm of the amplitude vector."""
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def amplitude(self, pair: ModePair) -> complex:
        """Amplitude of one (mode, mode) basis ket."""
        return complex(self.amplitudes[_pair_index(pair)])

    def normalized(self) -> "PairState":
        """Rescale to unit norm; raises on the zero vector."""
        n2 = self.norm2
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero state")
        return PairState(self.amplitudes / np.sqrt(n2), "normalized")


def pure_state(assignments: Mapping[ModePair, complex]) -> PairState:
    """Build a normalized pair state from {(mode1, mode2): amplitude} assignments.

    Raises ValueError if every assigned amplitude is zero.
    """
    amps = np.zeros((2, N_BINS, 2, N_BINS), dtype=complex)
    for pair, value in assignments.items():
        amps[_pair_index(pair)] = value
    n2 = float(np.sum(np.abs(amps) ** 2))
    if n2 <= 0.0:
        raise ValueError("pure_state needs at least one nonzero amplitude")
    return PairState(amps / np.sqrt(n2), "normalized")


def check_unitary(u: np.ndarray) -> np.ndarray:
    """Return u as a complex 2x2 array; raises unless it is unitary within 1e-10."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"polarization unitary must be 2x2, got shape {u.shape}")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(2)))
    if dev > UNITARITY_TOL:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
    return u


def apply_pol_unitary(s: PairState, u: np.ndarray, which: str = "both") -> PairState:
    """Apply a 2x2 polarization unitary to photon1, photon2 or both.

    Time bins are untouched and the norm is preserved.
    """
    if which not in ("photon1", "photon2", "both"):
        raise ValueError(f"which must be 'photon1', 'photon2' or 'both', got {which!r}")
    u = check_unitary(u)
    amps = s.amplitudes
    if which in ("photon1", "both"):
        amps = np.einsum("ij,jbkc->ibkc", u, amps)
    if which in ("photon2", "both"):
        amps = np.einsum("kl,iblc->ibkc", u, amps)
    return PairState(amps, s.norm_kind)


def tag(s: PairState, pol_to_delay: str) -> PairState:
    """Delay the given polarization of both photons by one time bin.

    Every amplitude whose photon polarization equals ``pol_to_delay`` has
    that photon's bin incremented; other amplitudes are unchanged.  Raises
    if any delayed component already sits in bin 2 (a photon cannot be
    tagged a third time; this indicates protocol-order misuse).
    """
    if pol_to_delay not in POLS:
        raise ValueError(f"pol_to_delay must be 'H' or 'V', got {pol_to_delay!r}")
    p = POLS.index(pol_to_delay)
    amps = s.amplitudes
    if np.any(np.abs(amps[p, N_BINS - 1, :, :]) > NORM_TOL) or np.any(
        np.abs(amps[:, :, p, N_BINS - 1]) > NORM_TOL
    ):
        raise ValueError("bin overflow: tagged polarization already occupies bin 2")
    out = amps.copy()
    out[p, 1:], out[p, 0] = amps[p, :-1], 0.0  # photon 1 shift
    out[:, :, p, 1:], out[:, :, p, 0] = out[:, :, p, :-1].copy(), 0.0  # then photon 2
    return PairState(out, s.norm_kind)


def project(s: PairState, modes: Sequence[ModePair]) -> tuple[PairState, float]:
    """Project onto a set of (mode, mode) basis kets.

    Returns the unnormalized projected state (norm_kind 'subnormalized')
    and the projection probability, i.e. the squared norm of the kept part.
    Zero probability is a valid return.
    """
    pairs = list(modes)
    if not pairs:
        raise ValueError("projection needs a nonempty mode set")
    mask = np.zeros((2, N_BINS, 2, N_BINS), dtype=bool)
    for pair in pairs:
        mask[_pair_index(pair)] = True
    kept = np.where(mask, s.amplitudes, 0.0)
    prob = float(np.sum(np.abs(kept) ** 2))
    return PairState(kept, "subnormalized"), prob


def fidelity(a: PairState, b: PairState) -> float:
    """|<a|b>|^2 between two normalized states; raises on subnormalized input."""
    for s in (a, b):
        if s.norm_kind != "normalized":
            raise ValueError("fidelity requires normalized states")
    overlap = np.vdot(a.amplitudes, b.amplitudes)
    return float(min(abs(overlap) ** 2, 1.0))


@dataclass(frozen=True)
class PairDensity:
    """36x36 Hermitian density matrix over the pair-state basis (C-order flattening)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (DIM, DIM):
            raise ValueError(f"density matrix must be {DIM}x{DIM}, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        tr = float(np.real(np.trace(m)))
        if not (0.0 < tr <= 1.0 + NORM_TOL):
            raise ValueError(f"density trace {tr!r} outside (0, 1]")
        if float(np.min(np.linalg.eigvalsh(m))) < -EIGENVALUE_TOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_state(cls, s: PairState) -> "PairDensity":
        v = s.amplitudes.reshape(DIM)
        return cls(np.outer(v, v.conj()))

    def element(self, ket: ModePair, bra: ModePair) -> complex:
        """Matrix element <ket| rho |bra> indexed by mode pairs."""
        i = np.ravel_multi_index(_pair_index(ket), (2, N_BINS, 2, N_BINS))
        j = np.ravel_multi_index(_pair_index(bra), (2, N_BINS, 2, N_BINS))
        return complex(self.matrix[i, j])


def density_average(states: Sequence[tuple[PairDensity, float]]) -> PairDensity:
    """Weighted sum of density matrices; weights nonnegative and summing to at most 1."""
    if not states:
        raise ValueError("density_average needs at least one (density, weight) pair")
    total = 0.0
    acc = np.zeros((DIM, DIM), dtype=complex)
    for rho, w in states:
        if w < 0.0:
            raise ValueError(f"negative weight {w!r}")
        acc += w * rho.matrix
        total += w
    if total > 1.0 + NORM_TOL:
        raise ValueError(f"weights sum to {total!r} > 1")
    return PairDensity(acc)
