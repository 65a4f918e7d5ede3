"""Tests for the collective rotation channel and its delta parameters."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfqkd import hilbert, protocol
from rfqkd.channel import (
    CollectiveRotation,
    RotatorSetting,
    delta_params,
    from_waveplates,
    haar_matrices,
    haar_sample,
    randomized_survival,
    su2,
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


def _from_matrix(m):
    """Any 2x2 unitary as a CollectiveRotation, its global phase normalized to
    determinant 1: how the Jones reference and composed channels are read."""
    m = hilbert.check_unitary(m)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    m = m / np.sqrt(det)
    return CollectiveRotation(complex(m[0, 0]), complex(m[1, 0]))


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
        u = _from_matrix(m)
        assert abs(abs(u.a) - 0.6) < 1e-12

    def test_from_matrix_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            _from_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))


def _plate(theta_deg, phi):
    """Wave plate R(-t) diag(1, phi) R(t), fast axis at t from horizontal."""
    t = np.deg2rad(theta_deg)
    c, s = np.cos(t), np.sin(t)
    rot = np.array([[c, s], [-s, c]])
    return rot.T @ np.diag([1.0, phi]) @ rot


def _assert_equals_jones_reference(r: RotatorSetting):
    """from_waveplates against the det-normalized product of the Jones matrices."""
    m = _plate(r.qwp1_deg, 1.0j) @ _plate(r.hwp_deg, -1.0) @ _plate(r.qwp2_deg, 1.0j)
    ref, u = _from_matrix(m), from_waveplates(r)
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


def _stacked_su2(a, b):
    """[[a, -conj(b)], [b, conj(a)]] built with np.stack, the first form of `su2`."""
    return np.stack([a, -np.conj(b), b, np.conj(a)], axis=-1).reshape(np.shape(a) + (2, 2))


def _haar_reference(rng, n):
    """The bulk Haar draw as first written: normal(size=...) draws, stacked."""
    x = rng.normal(size=(n, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return _stacked_su2(x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3])


def _haar_fold_reference(rng, n, u):
    """`haar_matrices` as first folded: u times B's column (a, b), summed over a
    (2, 2, n) product, the rows normalized by `np.linalg.norm`."""
    x = rng.standard_normal((n, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return su2(*(u[:, :, None] * x.view(complex).T).sum(axis=1))


_SEEDS = st.integers(0, 2**32 - 1)
_ANGLES = st.floats(-360.0, 360.0)
# channels to fold in: waveplate settings, with the signed zeros of setting 0, and Haar draws
_CHANNELS = st.one_of(
    st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0]), _ANGLES)] * 3).map(
        lambda angles: from_waveplates(RotatorSetting(*angles)).matrix),
    _SEEDS.map(lambda seed: haar_sample(np.random.default_rng(seed)).matrix),
)


class TestSu2Construction:
    @given(*[st.floats(-1.0, 1.0)] * 4)
    def test_matrix_is_the_stacked_form_bit_for_bit(self, a0, a1, b0, b1):
        r = float(np.linalg.norm([a0, a1, b0, b1]))
        a, b = complex(a0, a1), complex(b0, b1)
        if r > 1e-3:
            a, b = a / r, b / r
        else:
            a, b = 1.0 + 0.0j, 0.0j
        m = CollectiveRotation(a, b).matrix
        assert m.dtype == complex and m.shape == (2, 2)
        assert np.array_equal(m, _stacked_su2(a, b))

    @given(_SEEDS, st.integers(0, 40))
    def test_su2_is_the_stacked_form_bit_for_bit(self, seed, n):
        z = np.random.default_rng(seed).normal(size=(2, n, 2)).view(complex)[..., 0]
        assert np.array_equal(su2(z[0], z[1]), _stacked_su2(z[0], z[1]))

    def test_scalar_su2(self):
        assert np.array_equal(su2(0.6 + 0.0j, 0.8j), CollectiveRotation(0.6, 0.8j).matrix)


class TestHaarMatrices:
    @settings(deadline=None, max_examples=60)
    @given(_SEEDS, st.integers(0, 300), _ANGLES, _ANGLES, _ANGLES)
    def test_channel_folded_into_the_draw(self, seed, n, qwp1, hwp, qwp2):
        u = from_waveplates(RotatorSetting(qwp1, hwp, qwp2)).matrix
        folded, plain = np.random.default_rng(seed), np.random.default_rng(seed)
        ub, b = haar_matrices(folded, n, u), haar_matrices(plain, n)
        assert folded.bit_generator.state == plain.bit_generator.state
        assert ub.shape == (n, 2, 2)
        assert np.max(np.abs(ub - u @ b), initial=0.0) <= 1e-15

    @settings(deadline=None, max_examples=200)
    @given(_SEEDS, st.integers(0, 300), _CHANNELS)
    @example(0, 300, from_waveplates(sweep_settings()[0]).matrix)
    def test_fold_is_the_summed_form_bit_for_bit(self, seed, n, u):
        folded, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(haar_matrices(folded, n, u), _haar_fold_reference(reference, n, u))
        assert folded.bit_generator.state == reference.bit_generator.state

    @settings(deadline=None)
    @given(_SEEDS, st.integers(0, 300))
    def test_identity_leaves_the_draw_exact(self, seed, n):
        rngs = [np.random.default_rng(seed) for _ in range(4)]
        reference = _haar_reference(rngs[0], n)
        setting_0 = from_waveplates(sweep_settings()[0]).matrix  # identity, signed zeros
        for rng, u in zip(rngs[1:], (None, np.eye(2), setting_0)):
            b = haar_matrices(rng, n) if u is None else haar_matrices(rng, n, u)
            assert np.array_equal(b, reference)
            assert rng.bit_generator.state == rngs[0].bit_generator.state

    def test_rows_are_haar_sample_in_bulk(self):
        bulk, scalar = np.random.default_rng(8), np.random.default_rng(8)
        b = haar_matrices(bulk, 500)
        for row in b:
            assert np.max(np.abs(row - haar_sample(scalar).matrix)) <= 1e-15

    def test_scalar_draw_keeps_the_normal_stream(self):
        fast, reference = np.random.default_rng(12), np.random.default_rng(12)
        for _ in range(2000):
            haar_sample(fast)
            reference.normal(size=4)
        assert fast.bit_generator.state == reference.bit_generator.state


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
            composed = 0.5 * (survival_probability(u)
                              + survival_probability(_from_matrix(u.matrix @ flip.matrix)))
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
