"""Exact-algebra tests for the two-photon state module."""

import re

import numpy as np
import pytest

from rfqkd import hilbert
from rfqkd.hilbert import (
    PairDensity,
    PairState,
    apply_pol_unitary,
    density_average,
    fidelity,
    project,
    pure_state,
    tag,
)

SQ2 = 1.0 / np.sqrt(2.0)
BIT_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])
HADAMARD_LIKE = np.array([[1.0, 1.0], [1.0, -1.0]]) * SQ2

PSI_PLUS = {(("H", 0), ("V", 0)): 1.0, (("V", 0), ("H", 0)): 1.0}
PSI_MINUS = {(("H", 0), ("V", 0)): 1.0, (("V", 0), ("H", 0)): -1.0}


def random_state(rng, subnormalized=False):
    amps = rng.normal(size=(2, 3, 2, 3)) + 1j * rng.normal(size=(2, 3, 2, 3))
    amps /= np.linalg.norm(amps)
    if subnormalized:
        amps *= 0.5
        return PairState(amps, "subnormalized")
    return PairState(amps, "normalized")


def random_taggable_state(rng):
    """Random state with no V amplitude in bin 2, so one more V tag is legal."""
    amps = rng.normal(size=(2, 3, 2, 3)) + 1j * rng.normal(size=(2, 3, 2, 3))
    v = "HV".index("V")
    amps[v, 2, :, :] = 0.0
    amps[:, :, v, 2] = 0.0
    amps /= np.linalg.norm(amps)
    return PairState(amps, "normalized")


def haar_su2(rng):
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)
    a, b = complex(x[0], x[1]), complex(x[2], x[3])
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


_MIXED = random_state(np.random.default_rng(23))

# every public entry point that takes a mode pair, called with one pair
MODE_ENTRY_POINTS = {
    "pure_state": lambda pair: pure_state({pair: 1.0, (("H", 0), ("V", 0)): 0.5}).amplitudes,
    "project": lambda pair: project(_MIXED, [pair, (("V", 0), ("H", 0))])[0].amplitudes,
    "amplitude": lambda pair: _MIXED.amplitude(pair),
    "element_ket": lambda pair: PairDensity.from_state(_MIXED).element(pair, (("V", 1), ("H", 1))),
    "element_bra": lambda pair: PairDensity.from_state(_MIXED).element((("V", 1), ("H", 1)), pair),
}


class TestModeCheck:
    """A mode is a (pol, bin) tuple; every entry point rejects any other and names it."""

    def test_rejects_out_of_range(self):
        for read in MODE_ENTRY_POINTS.values():
            for pair, bad in (
                ((("X", 0), ("V", 0)), "('X', 0)"),
                ((("H", 0), ("V", 3)), "('V', 3)"),
                ((("H", -1), ("V", 0)), "('H', -1)"),
                (("H0", "V1"), "'H0'"),
            ):
                with pytest.raises(ValueError, match=re.escape(f"got {bad}")):
                    read(pair)

    @pytest.mark.parametrize("entry", MODE_ENTRY_POINTS)
    def test_numpy_integer_bins_accepted(self, entry):
        read = MODE_ENTRY_POINTS[entry]
        for p1, b1, p2, b2 in (("H", 1, "V", 2), ("V", 2, "V", 0), ("H", 0, "H", 1)):
            expected = read(((p1, b1), (p2, b2)))
            assert np.array_equal(read(((p1, np.int64(b1)), (p2, np.int64(b2)))), expected)
            assert np.array_equal(read(((p1, np.int8(b1)), (p2, b2))), expected)


class TestPureState:
    def test_bell_state_normalized(self):
        s = pure_state({(("H", 0), ("V", 0)): SQ2, (("V", 0), ("H", 0)): SQ2})
        assert abs(s.norm2 - 1.0) < 1e-12
        assert abs(s.amplitude((("H", 0), ("V", 0))) - SQ2) < 1e-12

    def test_product_state(self):
        s = pure_state({(("H", 0), ("V", 0)): 1.0})
        assert abs(s.norm2 - 1.0) < 1e-12

    def test_renormalizes_unnormalized_input(self):
        s = pure_state(PSI_MINUS)
        assert abs(s.norm2 - 1.0) < 1e-12
        assert abs(s.amplitude((("H", 0), ("V", 0))) - SQ2) < 1e-12

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            pure_state({(("H", 0), ("V", 0)): 0.0})


class TestApplyPolUnitary:
    def test_identity_keeps_state(self):
        s = pure_state(PSI_PLUS)
        out = apply_pol_unitary(s, np.eye(2), "both")
        np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-15)

    def test_bit_flip_both(self):
        s = pure_state({(("H", 0), ("V", 0)): 1.0})
        out = apply_pol_unitary(s, BIT_FLIP, "both")
        assert abs(out.amplitude((("V", 0), ("H", 0))) - 1.0) < 1e-12

    def test_hadamard_on_photon1(self):
        s = pure_state({(("H", 0), ("V", 0)): 1.0})
        out = apply_pol_unitary(s, HADAMARD_LIKE, "photon1")
        assert abs(out.amplitude((("H", 0), ("V", 0))) - SQ2) < 1e-12
        assert abs(out.amplitude((("V", 0), ("V", 0))) - SQ2) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            apply_pol_unitary(pure_state(PSI_PLUS), np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_bad_which_rejected(self):
        with pytest.raises(ValueError):
            apply_pol_unitary(pure_state(PSI_PLUS), np.eye(2), "photon3")

    def test_norm_preserved_for_random_unitaries(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            s = random_state(rng)
            for which in ("photon1", "photon2", "both"):
                out = apply_pol_unitary(s, haar_su2(rng), which)
                assert abs(out.norm2 - 1.0) < 1e-12


class TestTag:
    def test_single_tag(self):
        s = pure_state({(("H", 0), ("V", 0)): 1.0})
        out = tag(s, "V")
        assert abs(out.amplitude((("H", 0), ("V", 1))) - 1.0) < 1e-12

    def test_double_tag(self):
        s = pure_state({(("V", 0), ("V", 0)): 1.0})
        out = tag(tag(s, "V"), "V")
        assert abs(out.amplitude((("V", 2), ("V", 2))) - 1.0) < 1e-12

    def test_overflow_rejected(self):
        s = pure_state({(("V", 0), ("V", 0)): 1.0})
        with pytest.raises(ValueError):
            tag(tag(tag(s, "V"), "V"), "V")

    def test_alice_then_bob_identity_channel(self):
        # with no rotation only the kept term exists: alpha |H1 V1> + beta |V1 H1>
        alpha, beta = SQ2, SQ2 * 1j
        s = pure_state({(("H", 0), ("V", 0)): alpha, (("V", 0), ("H", 0)): beta})
        out = tag(tag(s, "V"), "H")
        assert abs(out.amplitude((("H", 1), ("V", 1))) - alpha) < 1e-12
        assert abs(out.amplitude((("V", 1), ("H", 1))) - beta) < 1e-12
        assert abs(out.norm2 - 1.0) < 1e-12

    def test_commutes_with_polarization_phase(self):
        rng = np.random.default_rng(3)
        phase = np.diag([1.0, np.exp(0.7j)])
        for _ in range(10):
            s = random_taggable_state(rng)
            left = tag(apply_pol_unitary(s, phase, "both"), "V")
            right = apply_pol_unitary(tag(s, "V"), phase, "both")
            np.testing.assert_allclose(left.amplitudes, right.amplitudes, atol=1e-13)


class TestProject:
    def test_own_support_probability_one(self):
        s = pure_state(PSI_PLUS)
        _, p = project(s, [(("H", 0), ("V", 0)), (("V", 0), ("H", 0))])
        assert abs(p - 1.0) < 1e-12

    def test_disjoint_support_probability_zero(self):
        s = pure_state({(("H", 0), ("V", 0)): 1.0})
        kept, p = project(s, [(("V", 0), ("H", 0))])
        assert p == 0.0
        assert kept.norm_kind == "subnormalized"

    def test_empty_mode_set_rejected(self):
        with pytest.raises(ValueError):
            project(pure_state(PSI_PLUS), [])

    def test_equal_bin_projection_matches_survival(self):
        # full tag / rotate / tag evolution: kept weight is |(d1+1)/2|^2 = |a|^4
        rng = np.random.default_rng(5)
        equal_bin = [((p1, b), (p2, b)) for b in range(3) for p1 in "HV" for p2 in "HV"]
        for _ in range(20):
            u = haar_su2(rng)
            s = pure_state(PSI_PLUS)
            evolved = tag(apply_pol_unitary(tag(s, "V"), u, "both"), "H")
            _, p = project(evolved, equal_bin)
            assert abs(p - abs(u[0, 0]) ** 4) < 1e-12


class TestFidelity:
    def test_self_fidelity(self):
        s = pure_state(PSI_PLUS)
        assert abs(fidelity(s, s) - 1.0) < 1e-12

    def test_orthogonal_states(self):
        assert fidelity(pure_state(PSI_PLUS), pure_state(PSI_MINUS)) < 1e-15

    def test_half_overlap(self):
        other = pure_state({(("H", 0), ("V", 0)): 1.0, (("V", 0), ("H", 0)): 1j})
        assert abs(fidelity(pure_state(PSI_PLUS), other) - 0.5) < 1e-12

    def test_subnormalized_rejected(self):
        rng = np.random.default_rng(1)
        sub = random_state(rng, subnormalized=True)
        with pytest.raises(ValueError):
            fidelity(sub, random_state(rng))


class TestDensity:
    def test_single_state_weight_one(self):
        rho = PairDensity.from_state(pure_state(PSI_PLUS))
        avg = density_average([(rho, 1.0)])
        np.testing.assert_allclose(avg.matrix, rho.matrix, atol=1e-15)

    def test_equal_mix_is_diagonal_in_bell_sector(self):
        mix = density_average(
            [
                (PairDensity.from_state(pure_state(PSI_PLUS)), 0.5),
                (PairDensity.from_state(pure_state(PSI_MINUS)), 0.5),
            ]
        )
        off = mix.element((("H", 0), ("V", 0)), (("V", 0), ("H", 0)))
        assert abs(off) < 1e-12
        assert abs(mix.element((("H", 0), ("V", 0)), (("H", 0), ("V", 0))) - 0.5) < 1e-12

    def test_phase_mask_average_kills_cross_sector_coherence(self):
        # uniform mix over the four mask phases: S to outside coherence vanishes
        rng = np.random.default_rng(9)
        s_pairs = [(("H", 0), ("V", 1)), (("V", 1), ("H", 0))]
        out_pairs = [(("H", 0), ("H", 0)), (("V", 1), ("V", 1))]
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        base = pure_state(dict(zip(s_pairs + out_pairs, amps)))
        members = []
        for k in range(4):
            mask = np.diag([1.0, np.exp(1j * k * np.pi / 2)])
            members.append(
                (PairDensity.from_state(apply_pol_unitary(base, mask, "both")), 0.25)
            )
        avg = density_average(members)
        for ket in s_pairs:
            for bra in out_pairs:
                assert abs(avg.element(ket, bra)) < 1e-12
                assert abs(avg.element(bra, ket)) < 1e-12

    def test_negative_weight_rejected(self):
        rho = PairDensity.from_state(pure_state(PSI_PLUS))
        with pytest.raises(ValueError):
            density_average([(rho, -0.1)])

    def test_weights_above_one_rejected(self):
        rho = PairDensity.from_state(pure_state(PSI_PLUS))
        with pytest.raises(ValueError):
            density_average([(rho, 0.7), (rho, 0.7)])

    def test_non_hermitian_rejected(self):
        m = np.zeros((36, 36), dtype=complex)
        m[0, 1] = 1.0
        m[0, 0] = 1.0
        with pytest.raises(ValueError):
            PairDensity(m)


class TestLinearity:
    def test_operations_linear_in_amplitudes(self):
        rng = np.random.default_rng(21)
        u = haar_su2(rng)
        equal_bin = [((p1, b), (p2, b)) for b in range(3) for p1 in "HV" for p2 in "HV"]
        for _ in range(10):
            x = random_taggable_state(rng).amplitudes
            y = random_taggable_state(rng).amplitudes
            c1, c2 = 0.3 + 0.1j, 0.2 - 0.4j
            combo = PairState(c1 * x + c2 * y, "subnormalized")
            for op in (
                lambda s: apply_pol_unitary(s, u, "both"),
                lambda s: tag(s, "V"),
                lambda s: project(s, equal_bin)[0],
            ):
                lhs = op(combo).amplitudes
                rhs = c1 * op(PairState(x, "normalized")).amplitudes + c2 * op(
                    PairState(y, "normalized")
                ).amplitudes
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def four_term_oracle(u, alpha, beta):
    """Independent reconstruction of the tagged evolution from its closed form."""
    a, b = complex(u[0, 0]), complex(u[1, 0])
    d1 = abs(a) ** 2 - abs(b) ** 2
    d2 = a.conjugate() * b - a * b.conjugate()
    d3 = -(a * b.conjugate() + a.conjugate() * b)
    amps = np.zeros((2, 3, 2, 3), dtype=complex)

    def put(coeff, pol1, bin1, pol2, bin2):
        amps["HV".index(pol1), bin1, "HV".index(pol2), bin2] += coeff

    put((d1 + 1) / 2 * alpha, "H", 1, "V", 1)
    put((d1 + 1) / 2 * beta, "V", 1, "H", 1)
    put((d1 - 1) / 2 * alpha, "V", 0, "H", 2)
    put((d1 - 1) / 2 * beta, "H", 2, "V", 0)
    put((d2 + d3) / 2 * alpha, "H", 1, "H", 2)
    put((d2 + d3) / 2 * beta, "H", 2, "H", 1)
    put((d2 - d3) / 2 * alpha, "V", 0, "V", 1)
    put((d2 - d3) / 2 * beta, "V", 1, "V", 0)
    return amps


class TestExpansionEquivalence:
    def test_pipeline_matches_four_term_expansion(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            u = haar_su2(rng)
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            alpha, beta = z / np.linalg.norm(z)
            s = pure_state({(("H", 0), ("V", 0)): alpha, (("V", 0), ("H", 0)): beta})
            evolved = tag(apply_pol_unitary(tag(s, "V"), u, "both"), "H")
            np.testing.assert_allclose(
                evolved.amplitudes, four_term_oracle(u, alpha, beta), atol=1e-10
            )
