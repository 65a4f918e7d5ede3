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
so each block is read on its own: one table P(block, decoded bit) per round
(`read_rows`) holds all a round can show, and one uniform draw over its
cells samples the round, as direct Born sampling would for any mask-uniform
ensemble.  The inside_S flag is diagnostic only, never revealed to the parties.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .channel import CollectiveRotation
from .hilbert import DIM, N_BINS, POLS, PairState, apply_pol_unitary, pure_state, tag

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
        return np.diag([1.0, 1j ** self.value])  # exact: exp(i phi) would leave 1e-16 real parts


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
        negative = [f.name for f in fields(self) if not getattr(self, f.name) >= 0]
        if negative:
            raise ValueError(f"tally counters must be nonnegative: {', '.join(negative)}")
        for low, high in (("errors", "sifted"), ("sifted", "conclusive"),
                          ("pS_sample_inS", "pS_sample_total")):
            if getattr(self, low) > getattr(self, high):
                raise ValueError(f"tally counter {low!r} exceeds {high!r}")

    def __add__(self, other: "TallyCounts") -> "TallyCounts":
        return TallyCounts(**{f.name: getattr(self, f.name) + getattr(other, f.name)
                              for f in fields(self)})


# every equal-bin mode pair; arrival-time difference exactly the pair label
COINCIDENT_PAIRS = tuple(
    ((p1, b), (p2, b)) for b in range(N_BINS) for p1 in POLS for p2 in POLS
)
_H = POLS.index("H")

# blocks of the coincident sector by their number of V-polarized photons;
# with V at index 1 that is the sum of the two polarization indices
BLOCK_LABELS = {0: "HH", 1: "S", 2: "VV"}
_BLOCKS = np.array([np.add.outer(range(2), range(2)) == n for n in BLOCK_LABELS])
# decoded bit of each output (pol1, pol2) = ij: same polarization 0, different 1
_BITS = np.array([np.eye(2), 1.0 - np.eye(2)]).reshape(2, 4)
_STATES, _BASES = tuple(LogicalState), tuple(BasisChoice)
# the readout of each basis (_BASES order) and block as one (basis, ij, block) x pq table
_READ = np.einsum("sip,jq,kpq->sijkpq", HADAMARD @ np.array([np.eye(2), _BASIS_I_TRANSFORM]),
                  HADAMARD, _BLOCKS).reshape(-1, 4)
# flat cell of each coincident amplitude (pol1, bin, pol2, bin), in the (pq, bin) order of _READ
_COINCIDENT = np.arange(DIM).reshape(2, N_BINS, 2, N_BINS).diagonal(axis1=1, axis2=3).ravel()
# phase factor of a two-photon mask on each (pol1, pol2), by mask index
_MASK_PHASES = np.array([np.outer(np.diag(m.matrix), np.diag(m.matrix)) for m in PhaseMask])


# pure_state rescales: alpha_beta's rounded 1/sqrt(2) leaves the norm 2 ulp short
_PREPARED = {l: pure_state(dict(zip(((("H", 0), ("V", 0)), (("V", 0), ("H", 0))), l.alpha_beta)))
             for l in LogicalState}
# Alice's tag of V on each prepared state: the fixed start of every round
_TAGGED = np.array([tag(_PREPARED[l], "V").amplitudes for l in _STATES])
_P, _Q = np.ogrid[:2, :2]  # each output (pol1, pol2)
# its support entries (j, b, l, c), nonzero in some state, as (j, l), the amplitude by state
# and the flat cells their rotated outputs fill once Bob's tag of H has moved each photon
# in H one bin later (bin 2 is empty before his tag); the two entries fill eight cells
_SUPPORT = [((j, l), _TAGGED[:, j, b, l, c],
             np.ravel_multi_index((_P, b + (_P == _H), _Q, c + (_Q == _H)), _TAGGED.shape[1:]))
            for j, b, l, c in np.argwhere(np.any(_TAGGED, axis=0))]


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


def evolve_rows(states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """N honest rounds up to detection, as an (N, 2, 3, 2, 3) amplitude array.

    Row n is the prepared state states[n] (an index into LogicalState) with
    Alice's tag of V, the 2x2 unitary u[n] on both photons (the channel with
    any compensation B folded in, u @ B) and Bob's tag of H.  Bob's phase
    mask is left out: within each block it is a global phase, so it moves no
    entry of `read_rows`.  Only the tagged support is rotated, and each
    product is written straight into the cells Bob's delay moves it to.
    Unlike the PairState pipelines it checks nothing: its inputs are built.
    """
    z = np.zeros((len(states), _TAGGED[0].size), dtype=complex)
    for (j, l), x, cells in _SUPPORT:
        z[:, cells] = x[states][:, None, None] * u[:, :, j, None] * u[:, None, :, l]
    return z.reshape((len(states),) + _TAGGED.shape[1:])


def read_rows(amps: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """P(block and decoded bit) of N rounds, as an (N, 3, 2) array.

    This is the one place block weights and bit odds are computed.  The
    blocks HH, S, VV (BLOCK_LABELS order) are the mask-dephased sectors of
    the 12 coincident amplitudes, so each is read on its own: through row
    n's basis bases[n] (an index into BasisChoice) and the Hadamard pair,
    with same polarization decoded as bit 0; one product with `_READ` reads
    all rows in both bases, and each row's own basis is squared.  Every
    entry is a sum of squared moduli, hence nonnegative; summed over bits
    they are the block weights, and over everything the coincidence probability.
    """
    r = (_READ @ amps.reshape(-1, DIM).T[_COINCIDENT].reshape(4, -1)).reshape(2, 12, N_BINS, -1)
    np.copyto(r[0], r[1], where=bases == 1)  # (ij and block, bin, row) in each row's own basis
    p = np.abs(r[0])
    del r  # freed before squaring: a lower peak per slice keeps the allocator from refaulting
    p = np.square(p, out=p).sum(axis=1)
    return (_BITS @ p.reshape(4, 3 * len(amps))).reshape(2, 3, len(amps)).T


def evolve(l: LogicalState, u: CollectiveRotation, mask: PhaseMask = PhaseMask.ZERO) -> PairState:
    """One honest round up to detection: the engine's row, times Bob's mask phase."""
    row = evolve_rows(np.array([_STATES.index(l)]), u.matrix[None]).reshape(-1)
    for _, _, cells in _SUPPORT:
        row[cells] *= _MASK_PHASES[mask.value]
    return PairState(row.reshape(_TAGGED.shape[1:]))


def coincident_split(s: PairState) -> tuple[float, dict[str, float]]:
    """Coincidence probability and its split over the S / HH / VV blocks.

    Weights are absolute (they sum to the coincidence probability); only
    nonzero blocks are listed.  `read_rows` gives them in any basis.
    """
    w = read_rows(s.amplitudes[None], np.zeros(1, dtype=int))[0].sum(axis=1)
    return float(w.sum()), {BLOCK_LABELS[k]: float(w[k]) for k in BLOCK_LABELS if w[k] > 0.0}


def conclusive_blocks(
    s: PairState, basis: BasisChoice
) -> tuple[float, list[tuple[str, float, float]]]:
    """Exact round statistics: coincidence probability and per-block bit odds.

    Returns (p_conclusive, blocks) where each nonzero block is a tuple of
    (label, absolute weight, P(bit = 0 | that block)), read by `read_rows`.
    """
    (joint,) = read_rows(s.amplitudes[None], np.array([_BASES.index(basis)]))
    w = joint.sum(axis=1)
    return float(w.sum()), [(BLOCK_LABELS[k], float(w[k]), float(joint[k, 0] / w[k]))
                            for k in BLOCK_LABELS if w[k] > 0.0]


def measure(s: PairState, basis: BasisChoice, rng: np.random.Generator) -> RoundOutcome:
    """Sample one post-selected measurement of a post-tag state.

    One uniform draw picks a cell of the `read_rows` table P(block, bit) in
    C order, or no coincidence past the last cell; a zero-weight cell is
    never picked.  The output beam splitter's success is an apparatus
    efficiency of the detection layer, not drawn here.
    """
    (joint,) = read_rows(s.amplitudes[None], np.array([_BASES.index(basis)]))
    cell = int(np.searchsorted(np.cumsum(joint), rng.random(), side="right"))
    if cell == joint.size:
        return RoundOutcome(conclusive=False, bit=None, basis_used=basis)
    block, bit = divmod(cell, 2)
    return RoundOutcome(conclusive=True, bit=bit, basis_used=basis,
                        inside_S=BLOCK_LABELS[block] == "S")


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
