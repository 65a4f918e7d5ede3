"""End-to-end honest protocol rounds at the exact amplitude level.

One round: Alice prepares one of four entangled polarization states in time
bin 0, tags V with the delay T, optionally applies the random compensation
B to both photons, and the channel rotates both polarizations.  Bob applies
a random two-photon phase mask, tags H with the same delay, and keeps only
detections whose arrival-time difference equals the 6 ns pair label (equal
time bins).  Coincident rounds are decoded as same-polarization -> bit 0,
different-polarization -> bit 1 after the basis transform.

Within the coincident sector the phase-mask average leaves no coherence
between the different-polarization subspace S and the HH / VV remainder,
so a round may be sampled as landing inside or outside S first and then
measured inside its block; the resulting statistics are identical to direct
Born sampling for any mask-uniform ensemble.  The inside_S flag produced
this way is diagnostic only and is not revealed to the parties.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .channel import CollectiveRotation
from .hilbert import N_BINS, POLS, PairState, apply_pol_unitary, tag

_SQRT_HALF = 1.0 / np.sqrt(2.0)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) * _SQRT_HALF
# quarter-wave retardation selecting the circular basis, applied to photon 1
_BASIS_I_TRANSFORM = np.diag([1.0, -1.0j])
_FLIP_B = CollectiveRotation.bit_flip().matrix


class LogicalState(enum.Enum):
    """The four prepared states (|HV> + c |VH>)/sqrt(2), c in {1, -1, i, -i}."""

    PSI_PLUS = 1.0 + 0.0j
    PSI_MINUS = -1.0 + 0.0j
    PSI_PLUS_I = 1.0j
    PSI_MINUS_I = -1.0j

    @property
    def alpha_beta(self) -> tuple[complex, complex]:
        return _SQRT_HALF, _SQRT_HALF * self.value

    @property
    def basis(self) -> "BasisChoice":
        if self in (LogicalState.PSI_PLUS, LogicalState.PSI_MINUS):
            return BasisChoice.PLUS_MINUS
        return BasisChoice.PLUS_MINUS_I

    @property
    def key_bit(self) -> int:
        """Encoded bit: the + state of each basis carries 0, the - state 1."""
        return 0 if self in (LogicalState.PSI_PLUS, LogicalState.PSI_PLUS_I) else 1


class BasisChoice(enum.Enum):
    PLUS_MINUS = "plus_minus"
    PLUS_MINUS_I = "plus_minus_i"


class PhaseMask(enum.Enum):
    """Random two-photon phase diag(1, e^{i phi}) with phi a multiple of pi/2."""

    ZERO = 0
    QUARTER = 1
    HALF = 2
    THREE_QUARTER = 3

    @property
    def phi(self) -> float:
        return self.value * np.pi / 2.0

    @property
    def matrix(self) -> np.ndarray:
        return np.diag([1.0, np.exp(1.0j * self.phi)])


@dataclass(frozen=True)
class RoundOutcome:
    conclusive: bool
    bit: Optional[int]
    basis_used: BasisChoice
    inside_S: bool = False

    def __post_init__(self):
        if self.conclusive != (self.bit is not None):
            raise ValueError("bit must be present exactly when the round is conclusive")


@dataclass(frozen=True)
class TallyCounts:
    """Counters from a simulated session; merged associatively with +."""

    rounds: int = 0
    conclusive: int = 0
    sifted: int = 0
    errors: int = 0
    accidental_conclusive: int = 0
    pS_sample_total: int = 0
    pS_sample_inS: int = 0
    duration_s: float = 0.0

    def __post_init__(self):
        if any(not getattr(self, f.name) >= 0 for f in fields(self)):
            raise ValueError("tally counters must be nonnegative")
        if not (self.errors <= self.sifted <= self.conclusive):
            raise ValueError("tally ordering violated: errors <= sifted <= conclusive")
        if self.pS_sample_inS > self.pS_sample_total:
            raise ValueError("pS sample counters inconsistent")

    def __add__(self, other: "TallyCounts") -> "TallyCounts":
        return TallyCounts(**{f.name: getattr(self, f.name) + getattr(other, f.name)
                              for f in fields(self)})


# every equal-bin mode pair; arrival-time difference exactly the pair label
COINCIDENT_PAIRS = tuple(
    ((p1, b), (p2, b)) for b in range(N_BINS) for p1 in POLS for p2 in POLS
)
_H, _V = POLS.index("H"), POLS.index("V")
_P1, _B1, _P2, _B2 = np.indices((2, N_BINS, 2, N_BINS))
_SAME_POL = _P1 == _P2
_COINCIDENT = _B1 == _B2

BLOCK_LABELS = {0: "HH", 1: "S", 2: "VV"}
# coincident part of each block, keyed by label; with V at index 1, _P1 + _P2
# is the number of V-polarized photons that labels the block
_BLOCK_MASKS = {label: _COINCIDENT & (_P1 + _P2 == n) for n, label in BLOCK_LABELS.items()}


def _bit0_form(photon1: np.ndarray) -> np.ndarray:
    """Hermitian F with P(bit 0) = <x|F|x>: the transform photon1 on photon 1,
    the Hadamard on both photons, then the same-polarization weight."""
    eye = np.eye(N_BINS)
    m = np.kron(np.kron(HADAMARD @ photon1, eye), np.kron(HADAMARD, eye))
    return m.conj().T @ (_SAME_POL.reshape(-1, 1) * m)


_BIT0_FORMS = {
    BasisChoice.PLUS_MINUS: _bit0_form(np.eye(2)),
    BasisChoice.PLUS_MINUS_I: _bit0_form(_BASIS_I_TRANSFORM),
}


def _prepared_state(l: LogicalState) -> PairState:
    # rescaled because alpha_beta's rounded 1/sqrt(2) leaves the norm 2 ulp short
    amps = np.zeros((2, N_BINS, 2, N_BINS), dtype=complex)
    amps[_H, 0, _V, 0], amps[_V, 0, _H, 0] = l.alpha_beta
    return PairState(amps).normalized()


_PREPARED = {l: _prepared_state(l) for l in LogicalState}


def prepare(l: LogicalState) -> PairState:
    """Normalized two-photon state alpha |H V> + beta |V H> in time bin 0."""
    return _PREPARED[l]


def alice_pipeline(s: PairState, b_choice: str, u: CollectiveRotation) -> PairState:
    """Alice's tag of V, the compensation B on both photons, then the channel."""
    out = tag(s, "V")
    if b_choice == "flip":
        out = apply_pol_unitary(out, _FLIP_B, "both")
    elif b_choice != "identity":
        raise ValueError(f"b_choice must be 'identity' or 'flip', got {b_choice!r}")
    return apply_pol_unitary(out, u.matrix, "both")


def bob_pipeline(s: PairState, mask: PhaseMask) -> PairState:
    """Bob's random phase mask on both photons followed by his tag of H."""
    out = apply_pol_unitary(s, mask.matrix, "both")
    return tag(out, "H")


def evolve(
    l: LogicalState, b_choice: str, u: CollectiveRotation, mask: PhaseMask = PhaseMask.ZERO
) -> PairState:
    """One honest round up to detection: prepare, Alice's pipeline, Bob's pipeline."""
    return bob_pipeline(alice_pipeline(prepare(l), b_choice, u), mask)


def coincident_split(s: PairState) -> tuple[float, dict[str, float]]:
    """Coincidence probability and its split over the S / HH / VV blocks.

    Weights are absolute (they sum to the coincidence probability).  The
    blocks are the mask-dephased sectors of the coincident part, labeled by
    the number of V-polarized photons.  This is the one place block weights
    are computed.
    """
    amps = s.amplitudes
    p_conc = float(np.sum(np.abs(np.where(_COINCIDENT, amps, 0.0)) ** 2))
    weights: dict[str, float] = {}
    for label, mask in _BLOCK_MASKS.items():
        w = float(np.sum(np.abs(np.where(mask, amps, 0.0)) ** 2))
        if w > 0.0:
            weights[label] = w
    return p_conc, weights


def _bit0_probability(block_amps: np.ndarray, basis: BasisChoice) -> float:
    """P(same polarization) after the basis transform and the Hadamard pair."""
    x = block_amps.reshape(-1)
    return float(np.vdot(x, _BIT0_FORMS[basis] @ x).real)


def conclusive_blocks(
    s: PairState, basis: BasisChoice
) -> tuple[float, list[tuple[str, float, float]]]:
    """Exact round statistics: coincidence probability and per-block bit odds.

    Returns (p_conclusive, blocks) where each block is a tuple of
    (label, absolute weight, P(bit = 0 | that block)).
    """
    p_conc, weights = coincident_split(s)
    if p_conc <= 0.0:
        return 0.0, []
    return p_conc, [
        (label, w, _bit0_probability(
            np.where(_BLOCK_MASKS[label], s.amplitudes, 0.0) / np.sqrt(w), basis))
        for label, w in weights.items()
    ]


def measure(s: PairState, basis: BasisChoice, rng: np.random.Generator) -> RoundOutcome:
    """Sample one post-selected measurement of a post-tag state.

    Conclusive means both photons fall in the equal-bin coincident sector;
    the splitting success at the output beam splitter is an apparatus
    efficiency handled by the detection layer, not resampled here.
    """
    p_conc, blocks = conclusive_blocks(s, basis)
    if rng.random() >= p_conc:
        return RoundOutcome(conclusive=False, bit=None, basis_used=basis)
    weights = np.array([b[1] for b in blocks])
    idx = rng.choice(len(blocks), p=weights / weights.sum())
    label, _, p_bit0 = blocks[idx]
    bit = 0 if rng.random() < p_bit0 else 1
    return RoundOutcome(conclusive=True, bit=bit, basis_used=basis, inside_S=label == "S")


def sift(
    alice: Sequence[tuple[LogicalState, BasisChoice]], bob: Sequence[RoundOutcome]
) -> TallyCounts:
    """Reconcile bases round by round and count sifted bits and errors."""
    if len(alice) != len(bob):
        raise ValueError(f"length mismatch: {len(alice)} preparations vs {len(bob)} outcomes")
    conclusive = sifted = errors = 0
    for (state, basis), outcome in zip(alice, bob):
        if not outcome.conclusive:
            continue
        conclusive += 1
        if outcome.basis_used is not basis:
            continue
        sifted += 1
        errors += outcome.bit != state.key_bit
    return TallyCounts(rounds=len(bob), conclusive=conclusive, sifted=sifted, errors=errors)


def estimate_pS(states: Sequence[PairState], rng: np.random.Generator) -> float:
    """Estimate the inside-S fraction from a coincident test sample.

    Each state is measured in the tagged H/V basis immediately after the
    tag (no Hadamard); the estimate is the fraction of HV or VH outcomes.
    The sample must consist of states with nonzero coincident weight.
    """
    if len(states) == 0:
        raise ValueError("pS estimation needs a nonempty sample")
    hits = 0
    for s in states:
        p_conc, weights = coincident_split(s)
        if p_conc <= 0.0:
            raise ValueError("pS sample contains a state with no coincident component")
        if rng.random() < weights.get("S", 0.0) / p_conc:
            hits += 1
    return hits / len(states)
