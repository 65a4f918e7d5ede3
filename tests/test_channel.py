"""Tests for the collective rotation channel and its delta parameters."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfqkd import channel, hilbert, protocol
from rfqkd.channel import (
    CollectiveRotation,
    RotatorSetting,
    delta_params,
    from_waveplates,
    haar_sample,
    randomized_survival,
    survival_probability,
    sweep_settings,
)


def jones_oracle(qwp1_deg, hwp_deg, qwp2_deg):
    """Direct closed-form Jones product, written out independently."""

    def qwp(theta):
        c, s = np.cos(theta), np.sin(theta)
        return np.array(
            [[c**2 + 1j * s**2, (1 - 1j) * s * c], [(1 - 1j) * s * c, s**2 + 1j * c**2]]
        )

    def hwp(theta):
        c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
        return np.array([[c2, s2], [s2, -c2]])

    m = (
        qwp(np.deg2rad(qwp1_deg))
        @ hwp(np.deg2rad(hwp_deg))
        @ qwp(np.deg2rad(qwp2_deg))
    )
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return m / np.sqrt(det)


class TestCollectiveRotation:
    def test_su2_constraint_enforced(self):
        with pytest.raises(ValueError):
            CollectiveRotation(1.0, 1.0)

    def test_matrix_structure(self):
        u = CollectiveRotation(0.6, 0.8j)
        m = u.matrix
        assert m[1, 1] == np.conj(m[0, 0])
        assert m[0, 1] == -np.conj(m[1, 0])

    def test_from_matrix_normalizes_phase(self):
        m = np.exp(0.3j) * CollectiveRotation(0.6, 0.8j).matrix
        u = CollectiveRotation.from_matrix(m)
        assert abs(abs(u.a) - 0.6) < 1e-12

    def test_from_matrix_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            CollectiveRotation.from_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_composition(self):
        u = CollectiveRotation.bit_flip() @ CollectiveRotation.bit_flip()
        assert abs(abs(u.a) - 1.0) < 1e-12


def _assert_equals_jones_reference(r: RotatorSetting):
    """from_waveplates against the det-normalized product of the Jones matrices."""
    m = (channel.qwp_jones(r.qwp1_deg) @ channel.hwp_jones(r.hwp_deg)
         @ channel.qwp_jones(r.qwp2_deg))
    ref, u = CollectiveRotation.from_matrix(m), from_waveplates(r)
    assert abs(u.a - ref.a) <= 1e-15 and abs(u.b - ref.b) <= 1e-15, (u, ref)


class TestFromWaveplates:
    def test_all_plates_at_zero_is_identity(self):
        u = from_waveplates(RotatorSetting(0.0, 0.0, 0.0))
        assert abs(u.a - 1.0) < 1e-12
        assert abs(u.b) < 1e-12

    def test_last_sweep_setting_is_bit_flip(self):
        u = from_waveplates(sweep_settings()[-1])
        assert abs(u.a) < 1e-12
        assert abs(abs(u.b) - 1.0) < 1e-12

    def test_sweep_matches_cos_squared_schedule(self):
        for k, setting in enumerate(sweep_settings()):
            u = from_waveplates(setting)
            target = np.cos(k * np.pi / 8) ** 2
            assert abs(abs(u.a) ** 2 - target) < 1e-12
            oracle = jones_oracle(setting.qwp1_deg, setting.hwp_deg, setting.qwp2_deg)
            assert abs(abs(oracle[0, 0]) ** 2 - abs(u.a) ** 2) < 1e-12
            np.testing.assert_allclose(
                np.abs(u.matrix), np.abs(oracle), atol=1e-12
            )

    def test_general_setting_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            angles = rng.uniform(-90, 90, size=3)
            u = from_waveplates(RotatorSetting(*angles))
            oracle = jones_oracle(*angles)
            # both are det-1 normalizations of the same unitary: equal up to sign
            diff = min(
                np.max(np.abs(u.matrix - oracle)), np.max(np.abs(u.matrix + oracle))
            )
            assert diff < 1e-10

    @given(*[st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-360.0, 360.0))] * 3)
    def test_equals_jones_reference(self, qwp1, hwp, qwp2):
        _assert_equals_jones_reference(RotatorSetting(qwp1, hwp, qwp2))

    @pytest.mark.parametrize("setting", sweep_settings(), ids=lambda r: f"hwp{r.hwp_deg}")
    def test_sweep_equals_jones_reference(self, setting):
        _assert_equals_jones_reference(setting)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError):
            RotatorSetting(float("nan"), 0.0, 0.0)

    def test_sweep_needs_two_points(self):
        with pytest.raises(ValueError):
            sweep_settings(1)


class TestHaarSample:
    def test_mean_survival_is_one_third(self):
        rng = np.random.default_rng(100)
        vals = [survival_probability(haar_sample(rng)) for _ in range(100_000)]
        assert abs(np.mean(vals) - 1.0 / 3.0) < 0.005

    def test_a_squared_uniform_mean(self):
        rng = np.random.default_rng(101)
        vals = [abs(haar_sample(rng).a) ** 2 for _ in range(100_000)]
        assert abs(np.mean(vals) - 0.5) < 0.005

    def test_deterministic_given_seed(self):
        u1 = haar_sample(np.random.default_rng(7))
        u2 = haar_sample(np.random.default_rng(7))
        assert u1.a == u2.a and u1.b == u2.b

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1])
    def test_equals_linalg_norm_form_exactly(self, seed):
        fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2000):
            u = haar_sample(fast)
            x = reference.normal(size=4)
            x = x / np.linalg.norm(x)
            assert (u.a, u.b) == (complex(x[0], x[1]), complex(x[2], x[3]))


class TestDeltaParams:
    def test_identity(self):
        d = delta_params(CollectiveRotation.identity())
        assert abs(d.d1 - 1.0) < 1e-12
        assert abs(d.d2) < 1e-12 and abs(d.d3) < 1e-12

    def test_bit_flip(self):
        d = delta_params(CollectiveRotation.bit_flip())
        assert abs(d.d1 + 1.0) < 1e-12
        assert abs(d.d2) < 1e-12 and abs(d.d3) < 1e-12
        assert survival_probability(CollectiveRotation.bit_flip()) == 0.0

    def test_balanced_rotation(self):
        u = from_waveplates(sweep_settings()[2])
        d = delta_params(u)
        assert abs(d.d1) < 1e-12
        assert abs(abs(d.d2) ** 2 + abs(d.d3) ** 2 - 1.0) < 1e-10

    def test_norm_identity_haar(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            d = delta_params(haar_sample(rng))
            norm = abs(d.d1) ** 2 + abs(d.d2) ** 2 + abs(d.d3) ** 2
            assert abs(norm - 1.0) < 1e-10

    def test_d1_real(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = delta_params(haar_sample(rng))
            assert abs(d.d1.imag) < 1e-14


class TestSurvival:
    def test_identity_survives(self):
        assert survival_probability(CollectiveRotation.identity()) == 1.0

    def test_matches_kept_coefficient(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            u = haar_sample(rng)
            d = delta_params(u)
            assert abs(survival_probability(u) - abs((d.d1 + 1.0) / 2.0) ** 2) < 1e-12

    def test_oracle_equivalence_with_projection(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            u = haar_sample(rng)
            evolved = protocol.bob_pipeline(
                protocol.alice_pipeline(
                    protocol.prepare(protocol.LogicalState.PSI_PLUS), "identity", u
                ),
                protocol.PhaseMask.ZERO,
            )
            _, p = hilbert.project(evolved, protocol.COINCIDENT_PAIRS)
            assert abs(p - survival_probability(u)) < 1e-10


class TestRandomizedSurvival:
    def test_flip_half_at_identity(self):
        assert randomized_survival(CollectiveRotation.identity(), "flip_half") == 0.5

    def test_flip_half_at_balanced(self):
        u = from_waveplates(sweep_settings()[2])
        assert abs(randomized_survival(u, "flip_half") - 0.25) < 1e-12

    def test_none_at_bit_flip(self):
        assert randomized_survival(CollectiveRotation.bit_flip(), "none") == 0.0

    def test_haar_is_exactly_one_third(self):
        assert randomized_survival(CollectiveRotation.identity(), "haar") == 1.0 / 3.0

    def test_flip_half_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            v = randomized_survival(haar_sample(rng), "flip_half")
            assert 0.25 - 1e-12 <= v <= 0.5 + 1e-12

    def test_flip_half_is_mean_over_b_choices(self):
        # the scheme average equals the mean of the two composed channels
        rng = np.random.default_rng(14)
        flip = CollectiveRotation.bit_flip()
        for _ in range(50):
            u = haar_sample(rng)
            direct = randomized_survival(u, "flip_half")
            composed = 0.5 * (survival_probability(u) + survival_probability(u @ flip))
            assert abs(direct - composed) < 1e-12

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            randomized_survival(CollectiveRotation.identity(), "sometimes")


class TestDfsPreservation:
    def test_logical_state_survives_any_rotation(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            u = haar_sample(rng)
            if survival_probability(u) < 1e-6:
                continue
            for state in protocol.LogicalState:
                alpha, beta = state.alpha_beta
                evolved = protocol.bob_pipeline(
                    protocol.alice_pipeline(protocol.prepare(state), "identity", u),
                    protocol.PhaseMask.ZERO,
                )
                kept, _ = hilbert.project(evolved, protocol.COINCIDENT_PAIRS)
                reference = hilbert.pure_state(
                    {(("H", 1), ("V", 1)): alpha, (("V", 1), ("H", 1)): beta}
                )
                assert abs(hilbert.fidelity(kept.normalized(), reference) - 1.0) < 1e-10
