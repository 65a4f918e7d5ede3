"""Round-level protocol tests: preparation, pipelines, measurement, sifting."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfqkd import hilbert
from rfqkd.channel import CollectiveRotation, haar_matrices, haar_sample, survival_probability
from rfqkd.protocol import (
    _BASIS_I_TRANSFORM,
    _BITS,
    _MASK_PHASES,
    _READ,
    COINCIDENT_PAIRS,
    HADAMARD,
    BasisChoice,
    LogicalState,
    PhaseMask,
    RoundOutcome,
    TallyCounts,
    alice_pipeline,
    bob_pipeline,
    coincident_split,
    conclusive_blocks,
    evolve,
    evolve_rows,
    measure,
    prepare,
    read_rows,
    sift,
)

SQ2 = 1.0 / np.sqrt(2.0)
IDENT = CollectiveRotation.identity()
FLIP = CollectiveRotation.bit_flip()


def evolved(state, b_choice="identity", u=IDENT, mask=PhaseMask.ZERO):
    return bob_pipeline(alice_pipeline(prepare(state), b_choice, u), mask)


class TestPrepare:
    def test_psi_plus_amplitudes(self):
        s = prepare(LogicalState.PSI_PLUS)
        assert abs(s.amplitude((("H", 0), ("V", 0))) - SQ2) < 1e-12
        assert abs(s.amplitude((("V", 0), ("H", 0))) - SQ2) < 1e-12

    def test_psi_minus_i_amplitudes(self):
        s = prepare(LogicalState.PSI_MINUS_I)
        assert abs(s.amplitude((("H", 0), ("V", 0))) - SQ2) < 1e-12
        assert abs(s.amplitude((("V", 0), ("H", 0))) + 1j * SQ2) < 1e-12

    def test_same_basis_states_orthogonal(self):
        assert hilbert.fidelity(prepare(LogicalState.PSI_PLUS),
                                prepare(LogicalState.PSI_MINUS)) < 1e-15
        assert hilbert.fidelity(prepare(LogicalState.PSI_PLUS_I),
                                prepare(LogicalState.PSI_MINUS_I)) < 1e-15

    def test_encoded_bits_and_bases(self):
        assert LogicalState.PSI_PLUS.key_bit == 0
        assert LogicalState.PSI_MINUS.key_bit == 1
        assert LogicalState.PSI_PLUS.basis is BasisChoice.PLUS_MINUS
        assert LogicalState.PSI_MINUS_I.basis is BasisChoice.PLUS_MINUS_I


class TestAlicePipeline:
    def test_identity_channel_tags_v_only(self):
        out = alice_pipeline(prepare(LogicalState.PSI_PLUS), "identity", IDENT)
        assert abs(out.amplitude((("H", 0), ("V", 1))) - SQ2) < 1e-12
        assert abs(out.amplitude((("V", 1), ("H", 0))) - SQ2) < 1e-12

    def test_flip_b_cancels_bit_flip_channel(self):
        # composed rotation is the identity up to phase: the kept part is intact
        out = bob_pipeline(
            alice_pipeline(prepare(LogicalState.PSI_PLUS), "flip", FLIP), PhaseMask.ZERO
        )
        kept, prob = hilbert.project(out, COINCIDENT_PAIRS)
        assert abs(prob - 1.0) < 1e-12
        reference = hilbert.pure_state({(("H", 1), ("V", 1)): SQ2, (("V", 1), ("H", 1)): SQ2})
        assert abs(hilbert.fidelity(kept.normalized(), reference) - 1.0) < 1e-12

    def test_flip_b_alone_empties_coincident_sector(self):
        for state in LogicalState:
            out = evolved(state, "flip", IDENT)
            _, prob = hilbert.project(out, COINCIDENT_PAIRS)
            assert prob < 1e-24

    def test_unknown_b_choice_rejected(self):
        with pytest.raises(ValueError):
            alice_pipeline(prepare(LogicalState.PSI_PLUS), "sometimes", IDENT)


class TestBobPipeline:
    def test_zero_mask_just_tags_h(self):
        pre = alice_pipeline(prepare(LogicalState.PSI_PLUS), "identity", IDENT)
        out = bob_pipeline(pre, PhaseMask.ZERO)
        assert abs(out.amplitude((("H", 1), ("V", 1))) - SQ2) < 1e-12
        assert abs(out.amplitude((("V", 1), ("H", 1))) - SQ2) < 1e-12

    def test_pi_mask_flips_v_amplitudes(self):
        s = hilbert.pure_state({(("H", 0), ("V", 0)): 1.0})
        out = bob_pipeline(s, PhaseMask.HALF)
        # photon 2 is V: one factor of e^{i pi} = -1, then H tag moves photon 1
        assert abs(out.amplitude((("H", 1), ("V", 0))) + 1.0) < 1e-12

    def test_mask_phases(self):
        phases = [mask.phi for mask in PhaseMask]
        np.testing.assert_allclose(phases, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])


class TestMeasure:
    def test_matched_basis_is_deterministic(self):
        rng = np.random.default_rng(0)
        for state in LogicalState:
            for mask in PhaseMask:
                out = measure(evolved(state, mask=mask), state.basis, rng)
                assert out.conclusive
                assert out.inside_S
                assert out.bit == state.key_bit

    def test_mismatched_basis_is_uniform(self):
        _, blocks = conclusive_blocks(
            evolved(LogicalState.PSI_PLUS), BasisChoice.PLUS_MINUS_I
        )
        assert len(blocks) == 1
        assert abs(blocks[0][2] - 0.5) < 1e-12

    def test_bit_flip_channel_never_conclusive(self):
        rng = np.random.default_rng(1)
        out = measure(evolved(LogicalState.PSI_PLUS, u=FLIP), BasisChoice.PLUS_MINUS, rng)
        assert not out.conclusive and out.bit is None

    def test_outcome_invariant_enforced(self):
        with pytest.raises(ValueError):
            RoundOutcome(conclusive=True, bit=None, basis_used=BasisChoice.PLUS_MINUS)

    def test_conclusive_probability_equals_channel_survival(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = haar_sample(rng)
            for b_choice, u_eff in (("identity", u), ("flip", u @ FLIP)):
                p_conc, _ = conclusive_blocks(
                    evolved(LogicalState.PSI_MINUS, b_choice, u), BasisChoice.PLUS_MINUS
                )
                assert abs(p_conc - survival_probability(u_eff)) < 1e-10


class _Uniforms:
    """A generator stand-in whose random() returns the given values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


# block weights HH 0.1, S 0.4, VV 0.2, and 0.3 outside the coincident sector
_CELL_STATE = hilbert.pure_state({
    (("H", 1), ("H", 1)): np.sqrt(0.1),
    (("H", 1), ("V", 1)): np.sqrt(0.2),
    (("V", 1), ("H", 1)): np.sqrt(0.2),
    (("V", 1), ("V", 1)): np.sqrt(0.2),
    (("H", 0), ("V", 1)): np.sqrt(0.3),
})
# its P(block, bit) in the +/- basis: HH and VV split evenly over the bits,
# and the S part |HV> + |VH> decodes to bit 0 only
_CELLS = np.array([[0.05, 0.05], [0.4, 0.0], [0.1, 0.1]])


class TestMeasureCells:
    """measure walks the cells HH 0, HH 1, S 0, S 1, VV 0, VV 1 with one uniform."""

    def outcome(self, u):
        return measure(_CELL_STATE, BasisChoice.PLUS_MINUS, _Uniforms(u))

    def test_hand_built_table(self):
        (joint,) = read_rows(_CELL_STATE.amplitudes[None], np.zeros(1, dtype=int))
        np.testing.assert_allclose(joint, _CELLS, atol=1e-12)

    def test_each_cell_just_inside_its_bounds(self):
        edges = np.concatenate([[0.0], np.cumsum(_CELLS)])
        for cell, (low, high) in enumerate(zip(edges[:-1], edges[1:])):
            if high == low:
                continue
            block, bit = divmod(cell, 2)
            # u = 0 is drawable and lands in the first cell
            for u in (low + 1e-9, high - 1e-9) if cell else (0.0, high - 1e-9):
                out = self.outcome(u)
                assert out.conclusive and out.bit == bit
                assert out.inside_S == (block == 1)
                assert out.basis_used is BasisChoice.PLUS_MINUS

    def test_past_the_last_cell_not_conclusive(self):
        for u in (0.7 + 1e-9, 0.999999):
            out = self.outcome(u)
            assert not out.conclusive and out.bit is None and not out.inside_S

    def test_zero_weight_cell_never_drawn(self):
        (joint,) = read_rows(_CELL_STATE.amplitudes[None], np.zeros(1, dtype=int))
        edge = np.cumsum(joint)[2]  # where S bit 0 ends and the empty S bit 1 sits
        below, at = self.outcome(np.nextafter(edge, 0.0)), self.outcome(edge)
        assert below.inside_S and below.bit == 0
        assert not at.inside_S and at.bit == 0  # VV bit 0, the next cell with weight


class TestFrameIndependence:
    def test_sifted_bits_error_free_for_any_rotation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = haar_sample(rng)
            for state in LogicalState:
                for b_choice in ("identity", "flip"):
                    p_conc, blocks = conclusive_blocks(
                        evolved(state, b_choice, u), state.basis
                    )
                    if p_conc < 1e-9:
                        continue
                    p_correct = sum(
                        w * (p0 if state.key_bit == 0 else 1.0 - p0)
                        for _, w, p0 in blocks
                    ) / p_conc
                    assert abs(p_correct - 1.0) < 1e-10


class TestBasisSecrecySymmetry:
    def test_swapping_states_flips_bit_statistics(self):
        rng = np.random.default_rng(4)
        pairs = [
            (LogicalState.PSI_PLUS, LogicalState.PSI_MINUS),
            (LogicalState.PSI_PLUS_I, LogicalState.PSI_MINUS_I),
        ]
        for _ in range(20):
            u = haar_sample(rng)
            mask = list(PhaseMask)[rng.integers(4)]
            for plus, minus in pairs:
                for basis in BasisChoice:
                    stats = []
                    for state in (plus, minus):
                        p_conc, blocks = conclusive_blocks(
                            evolved(state, u=u, mask=mask), basis
                        )
                        p0 = sum(w * p for _, w, p in blocks) / p_conc
                        stats.append(p0)
                    assert abs(stats[0] - (1.0 - stats[1])) < 1e-10


class TestSift:
    def run_rounds(self, n, rng, u=IDENT, scheme_flip=False):
        alice, bob = [], []
        states = list(LogicalState)
        masks = list(PhaseMask)
        bases = list(BasisChoice)
        for _ in range(n):
            state = states[rng.integers(4)]
            b_choice = "flip" if scheme_flip and rng.random() < 0.5 else "identity"
            mask = masks[rng.integers(4)]
            basis = bases[rng.integers(2)]
            alice.append((state, state.basis))
            bob.append(measure(evolved(state, b_choice, u, mask), basis, rng))
        return alice, bob

    def test_noiseless_session_error_free(self):
        rng = np.random.default_rng(5)
        alice, bob = self.run_rounds(2000, rng)
        tally = sift(alice, bob)
        assert tally.errors == 0
        assert tally.conclusive == 2000  # identity channel: every round coincident

    def test_sifted_fraction_half(self):
        rng = np.random.default_rng(6)
        alice, bob = self.run_rounds(4000, rng)
        tally = sift(alice, bob)
        ratio = tally.sifted / tally.conclusive
        assert abs(ratio - 0.5) < 3 * np.sqrt(0.25 / tally.conclusive)

    def test_noiseless_qber_zero_under_rotation_with_flip(self):
        rng = np.random.default_rng(7)
        u = haar_sample(rng)
        alice, bob = self.run_rounds(2000, rng, u=u, scheme_flip=True)
        tally = sift(alice, bob)
        assert tally.errors == 0
        assert tally.sifted > 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sift([(LogicalState.PSI_PLUS, BasisChoice.PLUS_MINUS)], [])


def _tally(errors, sifted, conclusive, rounds, acc, ps_in, ps_total, eighths):
    """A valid tally from free counts: each bound counter adds to the one below it.
    Durations sit on a grid of 1/8 s, so float sums of them are exact."""
    sifted += errors
    conclusive += sifted
    return TallyCounts(rounds=rounds + conclusive, conclusive=conclusive, sifted=sifted,
                       errors=errors, accidental_conclusive=acc, pS_sample_total=ps_in + ps_total,
                       pS_sample_inS=ps_in, duration_s=eighths / 8)


class TestTallyCounts:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            TallyCounts(rounds=1, conclusive=1, sifted=2, errors=0)
        with pytest.raises(ValueError):
            TallyCounts(rounds=1, conclusive=1, sifted=1, errors=2)

    def test_merge(self):
        a = TallyCounts(rounds=5, conclusive=3, sifted=2, errors=1, duration_s=1.0)
        b = TallyCounts(rounds=7, conclusive=4, sifted=2, errors=0, duration_s=2.0)
        c = a + b
        assert (c.rounds, c.conclusive, c.sifted, c.errors) == (12, 7, 4, 1)
        assert c.duration_s == 3.0

    @pytest.mark.parametrize("field", ["rounds", "accidental_conclusive", "duration_s"])
    def test_nan_counter_rejected(self, field):
        with pytest.raises(ValueError, match="nonnegative"):
            TallyCounts(**{field: math.nan})

    def test_frozen(self):
        t = TallyCounts(rounds=2, conclusive=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.conclusive = 2

    @given(st.lists(st.builds(_tally, *[st.integers(0, 10**6)] * 8), min_size=3, max_size=3))
    def test_merge_is_associative_with_zero(self, tallies):
        a, b, c = tallies
        assert (a + b) + c == a + (b + c)
        assert a + TallyCounts() == a == TallyCounts() + a


class TestCoincidentSplit:
    def test_weights_sum_to_conclusive_probability(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            u = haar_sample(rng)
            p_conc, weights = coincident_split(evolved(LogicalState.PSI_PLUS_I, u=u))
            assert abs(sum(weights.values()) - p_conc) < 1e-12

    def test_ideal_rounds_fully_inside_s(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = haar_sample(rng)
            p_conc, weights = coincident_split(evolved(LogicalState.PSI_MINUS, u=u))
            if p_conc < 1e-12:
                continue
            assert abs(weights.get("S", 0.0) - p_conc) < 1e-12


# real and imaginary parts of all 36 amplitudes, so the HH / VV blocks are
# populated; a 1e-3 grid keeps every nonzero block weight far from underflow
_RAW_AMPLITUDES = st.lists(
    st.integers(-1000, 1000), min_size=72, max_size=72
).filter(any)


def _random_state(xs):
    amps = (np.array(xs[:36]) + 1j * np.array(xs[36:])) / 1000.0
    amps /= np.linalg.norm(amps)
    return hilbert.PairState(amps.reshape(2, 3, 2, 3), "normalized")


class TestBlockWeightsAgree:
    @settings(deadline=None)
    @given(_RAW_AMPLITUDES)
    def test_conclusive_blocks_matches_coincident_split(self, xs):
        s = _random_state(xs)
        p_split, weights = coincident_split(s)
        for basis in BasisChoice:
            p_conc, blocks = conclusive_blocks(s, basis)
            assert p_conc == pytest.approx(p_split, abs=1e-12)
            assert {label: w for label, w, _ in blocks} == pytest.approx(weights, abs=1e-12)
            assert all(-1e-12 <= p0 <= 1.0 + 1e-12 for _, _, p0 in blocks)


_P1, _B1, _P2, _B2 = np.indices((2, 3, 2, 3))
# coincident part of each block by its number of V photons (V is index 1)
_BLOCK_REFERENCE = {label: (_B1 == _B2) & (_P1 + _P2 == n_v)
                    for label, n_v in (("HH", 0), ("S", 1), ("VV", 2))}


def _chain_bit0(block_amps, basis):
    """P(bit 0) through the explicit transform chain on a PairState."""
    state = hilbert.PairState(block_amps, "normalized")
    if basis is BasisChoice.PLUS_MINUS_I:
        state = hilbert.apply_pol_unitary(state, _BASIS_I_TRANSFORM, "photon1")
    state = hilbert.apply_pol_unitary(state, HADAMARD, "both")
    return sum(float(np.sum(np.abs(state.amplitudes[p, :, p, :]) ** 2)) for p in range(2))


class TestBitOddsMatchTransformChain:
    @settings(deadline=None)
    @given(_RAW_AMPLITUDES)
    def test_precomputed_forms_match_chain(self, xs):
        s = _random_state(xs)
        for basis in BasisChoice:
            _, blocks = conclusive_blocks(s, basis)
            for label, w, p0 in blocks:
                block = np.where(_BLOCK_REFERENCE[label], s.amplitudes, 0.0) / np.sqrt(w)
                assert p0 == pytest.approx(_chain_bit0(block, basis), abs=1e-12)


class TestLocalRotationsStayInS:
    @settings(deadline=None, max_examples=300)
    @given(st.integers(0, 2**32 - 1))
    def test_independent_photon_rotations_keep_coincidences_in_s(self, seed):
        # U1 on photon 1 and U2 on photon 2, between Alice's tag and Bob's pipeline
        rng = np.random.default_rng(seed)
        u1, u2 = haar_sample(rng).matrix, haar_sample(rng).matrix
        for state in LogicalState:
            rotated = hilbert.apply_pol_unitary(
                hilbert.apply_pol_unitary(hilbert.tag(prepare(state), "V"), u1, "photon1"),
                u2, "photon2",
            )
            for mask in PhaseMask:
                p_conc, weights = coincident_split(bob_pipeline(rotated, mask))
                assert set(weights) <= {"S"}
                assert weights.get("S", 0.0) == pytest.approx(p_conc, abs=1e-12)


def masked(rows, masks):
    """Engine rows with Bob's phase mask masks[n] (an index into PhaseMask)
    multiplied into every output (pol1, pol2) of row n."""
    return rows * _MASK_PHASES[masks][:, :, None, :, None]


# every (state, mask) pair as engine rows, each read in both bases
_ROW_STATES, _ROW_MASKS = np.indices((4, 4)).reshape(2, -1)


class TestArrayEngineMatchesScalarChain:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["identity", "flip"]))
    def test_rows_match_chain_amplitudes_and_reads(self, seed, b_choice):
        # the compensation B is folded into the engine's rotation as U @ B, and
        # Bob's mask, which the engine leaves out, is multiplied in here
        u = haar_sample(np.random.default_rng(seed))
        u_eff = u.matrix @ (FLIP.matrix if b_choice == "flip" else np.eye(2))
        rows = masked(evolve_rows(_ROW_STATES, np.broadcast_to(u_eff, (16, 2, 2))), _ROW_MASKS)
        for b, basis in enumerate(BasisChoice):
            joint = read_rows(rows, np.full(16, b))
            for n, (state, mask) in enumerate(zip(_ROW_STATES, _ROW_MASKS)):
                chain = evolved(list(LogicalState)[state], b_choice, u, list(PhaseMask)[mask])
                assert np.max(np.abs(rows[n] - chain.amplitudes)) <= 1e-12
                p_conc, blocks = conclusive_blocks(chain, basis)
                weights = joint[n].sum(axis=1)
                assert weights.sum() == pytest.approx(p_conc, abs=1e-12)
                read = {label: (w, p0) for label, w, p0 in blocks}
                for k, label in enumerate(("HH", "S", "VV")):
                    w, p0 = read.get(label, (0.0, 0.0))
                    assert weights[k] == pytest.approx(w, abs=1e-12)
                    assert joint[n, k, 0] == pytest.approx(w * p0, abs=1e-12)
                    block = np.where(_BLOCK_REFERENCE[label], chain.amplitudes, 0.0)
                    assert weights[k] == pytest.approx(np.sum(np.abs(block) ** 2), abs=1e-12)

    def test_evolve_is_one_engine_row(self):
        u = haar_sample(np.random.default_rng(3))
        for n, state in enumerate(LogicalState):
            row = evolve_rows(np.array([n]), u.matrix[None])
            assert np.array_equal(evolve(state, u).amplitudes, row[0])
            for mask in PhaseMask:
                engine = evolve(state, u, mask).amplitudes
                assert np.max(np.abs(engine - evolved(state, u=u, mask=mask).amplitudes)) <= 1e-12
                assert np.array_equal(engine, masked(row, np.array([mask.value]))[0])


def _chain_joint(s, basis):
    """P(block, bit) of a state from its block projections and the transform chain."""
    joint = np.zeros((3, 2))
    for k, label in enumerate(("HH", "S", "VV")):
        block = np.where(_BLOCK_REFERENCE[label], s.amplitudes, 0.0)
        w = float(np.sum(np.abs(block) ** 2))
        if w > 0.0:
            p0 = _chain_bit0(block / np.sqrt(w), basis)
            joint[k] = w * p0, w * (1.0 - p0)
    return joint


class TestEngineRowsAreIndependent:
    """A batch mixing rotations, compensations, states, masks and bases gives
    every row exactly what that row gives alone and through the scalar chain."""

    N = 300  # a multiple of neither the 8 flip_half rows nor the 128-row Haar slices

    @pytest.fixture(scope="class")
    def batch(self):
        rng = np.random.default_rng(20041122)
        rotations = [haar_sample(rng) for _ in range(self.N)]
        flips, states, masks, bases = rng.integers((2, 4, 4, 2), size=(self.N, 4)).T
        u = np.array([r.matrix @ (FLIP.matrix if f else np.eye(2))
                      for r, f in zip(rotations, flips)])
        rows = evolve_rows(states, u)
        return rotations, flips, states, masks, bases, u, rows, read_rows(rows, bases)

    def test_each_row_matches_its_own_call_and_the_chain(self, batch):
        rotations, flips, states, masks, bases, u, rows, joint = batch
        assert rows.shape == (self.N, 2, 3, 2, 3) and joint.shape == (self.N, 3, 2)
        assert np.all(joint >= 0.0)
        for n in range(self.N):
            one = slice(n, n + 1)
            chain = evolved(list(LogicalState)[states[n]], ("identity", "flip")[flips[n]],
                            rotations[n], list(PhaseMask)[masks[n]])
            alone = evolve_rows(states[one], u[one])[0]
            assert np.max(np.abs(rows[n] - alone)) <= 1e-12
            assert np.max(np.abs(masked(rows[one], masks[one])[0] - chain.amplitudes)) <= 1e-12
            assert np.max(np.abs(joint[n] - read_rows(rows[one], bases[one])[0])) <= 1e-12
            reference = _chain_joint(chain, list(BasisChoice)[bases[n]])
            assert np.max(np.abs(joint[n] - reference)) <= 1e-12

    def test_strided_and_broadcast_inputs(self, batch):
        _, _, states, masks, bases, u, rows, joint = batch
        assert np.max(np.abs(read_rows(rows[::3], bases[::3]) - joint[::3])) <= 1e-12
        assert np.max(np.abs(evolve_rows(states[::2], u[::2]) - rows[::2])) <= 1e-12
        shared = evolve_rows(states, np.broadcast_to(u[0], u.shape))
        for n in range(0, self.N, 37):
            own = evolve_rows(states[n:n + 1], u[:1])[0]
            assert np.max(np.abs(shared[n] - own)) <= 1e-12

    def test_no_rows(self):
        rows = evolve_rows(np.zeros(0, dtype=int), np.zeros((0, 2, 2), dtype=complex))
        assert rows.shape == (0, 2, 3, 2, 3)
        assert read_rows(rows, np.zeros(0, dtype=int)).shape == (0, 3, 2)


def _read_rows_reference(amps, bases):
    """`read_rows` as first written: the coincident amplitudes by diagonal and
    moveaxis, both bases squared, then each row's basis picked."""
    c = np.moveaxis(np.diagonal(amps, axis1=2, axis2=4), 0, -1).reshape(4, -1)
    p = (np.abs(_READ @ c) ** 2).reshape(2, 12, 3, len(amps)).sum(axis=2)
    p = np.where(bases == 1, p[1], p[0])
    return (_BITS @ p.reshape(4, 3 * len(amps))).reshape(2, 3, len(amps)).T


class TestReadRowsBitIdentical:
    """`read_rows` squares only each row's own basis, yet every entry equals the
    first form's bit for bit: the squares and the bin sums are the same operations."""

    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.floats(0.0, 1.0))
    def test_random_rows_mixed_bases_and_zero_rows(self, seed, n, zero_frac):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=(n, 36, 2)).view(complex)[..., 0]
        amps[rng.random((n, 36)) < zero_frac] = 0.0
        amps[rng.random(n) < 0.2] = 0.0  # whole zero rows
        amps = amps.reshape(n, 2, 3, 2, 3)
        bases = rng.integers(2, size=n)
        assert np.array_equal(read_rows(amps, bases), _read_rows_reference(amps, bases))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_engine_rows(self, seed):
        rng = np.random.default_rng(seed)
        states, masks, bases = rng.integers(4, size=(3, 256)) % [[4], [4], [2]]
        unmasked = evolve_rows(states, haar_matrices(rng, 256))
        for rows in (unmasked, masked(unmasked, masks)):
            assert np.array_equal(read_rows(rows, bases), _read_rows_reference(rows, bases))
            assert np.array_equal(read_rows(rows[::3], bases[::3]),
                                  _read_rows_reference(rows[::3], bases[::3]))
