"""Noise model and Monte Carlo counting tests."""

import cmath
import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfqkd import detection
from rfqkd.channel import (
    RotatorSetting,
    from_waveplates,
    haar_matrices,
    randomized_survival,
    sweep_settings,
)
from rfqkd.detection import (
    NoiseConfig,
    accidental_error_contribution,
    accidental_rate,
    expected_conclusive_rate,
    expected_qber,
    expected_sifted_rate,
    intrinsic_error_rate,
    simulate_session,
    sifted_true_rate,
    transmittance,
    visibility_envelope,
)
from rfqkd.protocol import _MASK_PHASES, evolve_rows, read_rows

SETTINGS = sweep_settings()


def _clifford_group() -> np.ndarray:
    """The 24 single-qubit Cliffords in SU(2), (24, 2, 2): H and S closed under
    products, one matrix for each class modulo a global phase."""

    def to_su2(m):
        return m / cmath.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])  # det(H) = -1

    def key(m):  # the class: phase of the first nonzero entry removed, -0.0 made 0.0
        first = m.flat[np.argmax(np.abs(m.ravel()) > 1e-9)]
        m = np.round(m * abs(first) / first, 9) + 0.0
        return m.real.tobytes() + m.imag.tobytes()

    generators = [to_su2(np.array([[1.0, 1.0], [1.0, -1.0]])), to_su2(np.diag([1.0, 1.0j]))]
    group, frontier = {key(np.eye(2)): np.eye(2, dtype=complex)}, [np.eye(2, dtype=complex)]
    while frontier:
        products = [m @ g for m in frontier for g in generators]
        frontier = [group.setdefault(key(m), m) for m in products if key(m) not in group]
    return np.array(list(group.values()))


CLIFFORDS = _clifford_group()


def pair_odds(cfg: NoiseConfig, u: np.ndarray, scheme: str) -> np.ndarray:
    """Odds (6,) of one detected pair: `_mean_odds` for a fixed scheme and, for
    'haar', `_row_odds` averaged over the 4 states x 24 Cliffords C as u @ C."""
    if scheme != "haar":
        return detection._mean_odds(cfg, u, scheme)
    states = np.repeat(np.arange(4), len(CLIFFORDS))
    return detection._row_odds(cfg, states, np.tile(u @ CLIFFORDS, (4, 1, 1))).mean(axis=0)


def mean_rates(cfg: NoiseConfig, setting: RotatorSetting, scheme: str):
    """Conclusive rate, sifted rate and QBER from `pair_odds` scaled by the
    detected-pair rate, plus the accidental row at its rate."""
    p_det = cfg.apparatus_efficiency * transmittance(cfg) ** 2
    u = from_waveplates(setting).matrix
    rates = (cfg.pair_rate_hz * p_det * pair_odds(cfg, u, scheme)
             + accidental_rate(cfg) * detection._accidental_odds(cfg)[0])
    return rates[:5].sum(), rates[3] + rates[4], rates[4] / (rates[3] + rates[4])


def assert_exact_means(cfg: NoiseConfig, setting: RotatorSetting, scheme: str):
    """The means a session of the scheme draws from are the closed forms within
    1e-12 relative ('haar' through the Clifford table)."""
    survival = randomized_survival(from_waveplates(setting), scheme)
    conclusive, sifted, qber = mean_rates(cfg, setting, scheme)
    assert conclusive == pytest.approx(expected_conclusive_rate(cfg, survival), rel=1e-12)
    assert sifted == pytest.approx(expected_sifted_rate(cfg, survival), rel=1e-12)
    assert qber == pytest.approx(expected_qber(cfg, survival), rel=1e-12)


class TestTransmittance:
    def test_no_fiber_is_lossless(self):
        assert transmittance(NoiseConfig(fiber_length_km=0.0, extra_loss_db=0.0)) == 1.0

    def test_one_km_attenuation(self):
        cfg = NoiseConfig(fiber_length_km=1.0, atten_db_per_km=4.8, extra_loss_db=0.0)
        assert abs(transmittance(cfg) - 10 ** (-0.48)) < 1e-15
        assert abs(transmittance(cfg) - 0.3311311214825911) < 1e-12

    def test_one_km_preset_reproduces_coincidence_ceiling(self):
        cfg = NoiseConfig.one_km()
        ceiling = cfg.pair_rate_hz * cfg.apparatus_efficiency * transmittance(cfg) ** 2
        assert abs(ceiling - 1.4) < 1e-9

    def test_four_meter_preset_ceiling(self):
        cfg = NoiseConfig.four_meter()
        ceiling = cfg.pair_rate_hz * cfg.apparatus_efficiency * transmittance(cfg) ** 2
        assert abs(ceiling - 140.0) < 1.5  # 4 m of fiber costs a fraction of a dB


class TestAccidentalRate:
    def test_reference_value(self):
        assert accidental_rate(NoiseConfig(singles_rate_hz=2000.0, window_ns=3.0)) == 0.024

    def test_zero_singles(self):
        assert accidental_rate(NoiseConfig(singles_rate_hz=0.0)) == 0.0

    def test_quadratic_scaling(self):
        assert accidental_rate(NoiseConfig(singles_rate_hz=1000.0, window_ns=3.0)) == 0.006


class TestExpectedQber:
    def test_zero_survival_is_half(self):
        assert expected_qber(NoiseConfig.one_km(), 0.0) == 0.5

    def test_accidental_contribution_at_full_survival(self):
        cfg = NoiseConfig.one_km()
        assert abs(sifted_true_rate(cfg, 1.0) - 0.7) < 1e-9
        contrib = accidental_error_contribution(cfg, 1.0)
        assert abs(contrib - 0.012 / 0.724) < 1e-9
        assert abs(contrib - 0.0165746) < 1e-6

    def test_flip_half_band(self):
        cfg = NoiseConfig.one_km()
        top = accidental_error_contribution(cfg, 0.5)
        bottom = accidental_error_contribution(cfg, 0.25)
        assert abs(top - 0.0320856) < 1e-6
        assert abs(bottom - 0.0603015) < 1e-6

    def test_survival_range_enforced(self):
        with pytest.raises(ValueError):
            expected_qber(NoiseConfig.one_km(), 1.5)

    def test_intrinsic_error_combines_source_and_contrast(self):
        cfg = NoiseConfig(source_error_prob=0.04, visibility=0.95)
        assert abs(intrinsic_error_rate(cfg) - 0.065) < 1e-15


class TestNoiseConfigValidation:
    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(source_error_prob=1.5)

    def test_bad_visibility_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(visibility=0.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(singles_rate_hz=-1.0)

    def test_intrinsic_flip_above_one_rejected(self):
        with pytest.raises(ValueError, match=r"source_error_prob \+ \(1 - visibility\)/2"):
            NoiseConfig(source_error_prob=0.9, visibility=0.2)

    def test_intrinsic_flip_of_one_flips_every_true_pair(self):
        cfg = NoiseConfig.four_meter(singles_rate_hz=0.0, source_error_prob=0.75, visibility=0.5)
        assert intrinsic_error_rate(cfg) == 1.0
        tally = simulate_session(cfg, SETTINGS[0], "none", 10.0, np.random.default_rng(0))
        assert tally.sifted > 0 and tally.errors == tally.sifted

    @given(st.floats(0.0, 1.0), st.floats(1e-9, 1.0), st.sampled_from(["none", "flip_half"]))
    def test_every_accepted_flip_probability_runs(self, source_error_prob, visibility, scheme):
        """A config is refused at construction or its session runs: no sampler error."""
        try:
            cfg = NoiseConfig.four_meter(source_error_prob=source_error_prob,
                                         visibility=visibility)
        except ValueError:
            assert source_error_prob + (1.0 - visibility) / 2.0 > 1.0
            return
        simulate_session(cfg, SETTINGS[2], scheme, 1.0, np.random.default_rng(1))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["pair_rate_hz", "fiber_length_km", "atten_db_per_km",
                                      "extra_loss_db", "singles_rate_hz", "window_ns"])
    def test_non_finite_rate_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            NoiseConfig(**{name: value})


class TestSimulateSession:
    # The three session tests of 'haar' and of the test/key split check their
    # means exactly (`assert_exact_means`) and hold each sampled count to
    # |z| < Z_BOUND.  Their sessions are three times the length a 3-sigma test
    # once used, so the bound sits at 4.9 / sqrt(3) = 2.83 sigmas of that length
    # and sees every fixed shift the 3-sigma test saw.  The false-failure rates
    # in their docstrings are exact Poisson or binomial tails at the expected
    # counts; for the nine asserts together they sum to 1.3e-5.
    Z_BOUND = 4.9

    def test_noiseless_identity_has_zero_qber(self):
        cfg = NoiseConfig.four_meter(
            singles_rate_hz=0.0, source_error_prob=0.0, visibility=1.0
        )
        tally = simulate_session(cfg, SETTINGS[0], "none", 30.0, np.random.default_rng(0))
        assert tally.errors == 0
        assert tally.sifted > 0

    def test_counters_consistent_and_duration_recorded(self):
        cfg = NoiseConfig.four_meter()
        tally = simulate_session(cfg, SETTINGS[1], "flip_half", 20.0, np.random.default_rng(1))
        assert tally.errors <= tally.sifted <= tally.conclusive <= tally.rounds
        assert tally.pS_sample_inS <= tally.pS_sample_total
        assert tally.duration_s == 20.0

    def test_sifted_fraction_half_without_accidentals(self):
        cfg = NoiseConfig.four_meter(singles_rate_hz=0.0, ps_sample_fraction=0.0)
        tally = simulate_session(cfg, SETTINGS[0], "none", 60.0, np.random.default_rng(2))
        ratio = tally.sifted / tally.conclusive
        assert abs(ratio - 0.5) < 3 * math.sqrt(0.25 / tally.conclusive)

    def test_accidental_floor(self):
        cfg = NoiseConfig.one_km(pair_rate_hz=0.0)
        duration = 1.0e6
        tally = simulate_session(cfg, SETTINGS[0], "none", duration, np.random.default_rng(3))
        lam = accidental_rate(cfg) * duration
        assert abs(tally.conclusive - lam) < 3 * math.sqrt(lam)
        assert tally.accidental_conclusive == tally.conclusive
        qber = tally.errors / tally.sifted
        assert abs(qber - 0.5) < 3 * math.sqrt(0.25 / tally.sifted)

    def test_bit_flip_setting_without_compensation_hits_half(self):
        cfg = NoiseConfig.one_km()
        duration = 2.0e5
        tally = simulate_session(cfg, SETTINGS[-1], "none", duration, np.random.default_rng(4))
        # survival is zero at the flip setting: the accidental floor remains
        lam = accidental_rate(cfg) * duration
        assert abs(tally.conclusive - lam) < 3 * math.sqrt(lam)
        qber = tally.errors / tally.sifted
        assert abs(qber - 0.5) < 3 * math.sqrt(0.25 / tally.sifted)

    def test_rate_linearity(self):
        cfg = NoiseConfig.four_meter()
        t1 = simulate_session(cfg, SETTINGS[0], "none", 40.0, np.random.default_rng(5))
        t2 = simulate_session(cfg, SETTINGS[0], "none", 80.0, np.random.default_rng(6))
        diff = t2.conclusive - 2 * t1.conclusive
        assert abs(diff) < 3 * math.sqrt(4 * t1.conclusive + t2.conclusive)

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf])
    def test_duration_must_be_positive(self, duration):
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            simulate_session(NoiseConfig(), SETTINGS[0], "none", duration,
                             np.random.default_rng(0))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            simulate_session(NoiseConfig(), SETTINGS[0], "half_flip", 1.0,
                             np.random.default_rng(0))

    def test_haar_scheme_session(self):
        """About 694 conclusive counts; fails a correct program with 1.2e-6."""
        cfg = NoiseConfig.four_meter(ps_sample_fraction=0.1)
        assert_exact_means(cfg, SETTINGS[0], "haar")
        duration = 15.0
        tally = simulate_session(cfg, SETTINGS[0], "haar", duration, np.random.default_rng(7))
        expected = expected_conclusive_rate(cfg, 1.0 / 3.0) * duration
        z = (tally.conclusive - expected) / math.sqrt(expected)
        assert abs(z) < self.Z_BOUND, f"rate, z = {z:.2f}"
        assert tally.errors <= tally.sifted <= tally.conclusive

    def test_noiseless_haar_session_has_no_errors(self):
        cfg = NoiseConfig.four_meter(singles_rate_hz=0.0, source_error_prob=0.0, visibility=1.0)
        tally = simulate_session(cfg, SETTINGS[2], "haar", 5.0, np.random.default_rng(8))
        assert tally.sifted > 0
        assert tally.errors == 0

    def test_haar_session_matches_closed_forms(self):
        """About 2,777 conclusive counts and 1,250 sifted bits; fails a correct
        program with 1.1e-6 on the rate and at most 3.1e-6 on the QBER."""
        # the haar compensation gives survival 1/3 whatever the channel,
        # the collective bit-flip included
        cfg = NoiseConfig.four_meter()
        assert_exact_means(cfg, SETTINGS[4], "haar")
        duration = 60.0
        tally = simulate_session(cfg, SETTINGS[4], "haar", duration, np.random.default_rng(9))
        expected = expected_conclusive_rate(cfg, 1.0 / 3.0) * duration
        z = (tally.conclusive - expected) / math.sqrt(expected)
        assert abs(z) < self.Z_BOUND, f"rate, z = {z:.2f}"
        e = expected_qber(cfg, 1.0 / 3.0)
        z = (tally.errors / tally.sifted - e) / math.sqrt(e * (1.0 - e) / tally.sifted)
        assert abs(z) < self.Z_BOUND, f"qber, z = {z:.2f}"

    @pytest.mark.parametrize("scheme", ["none", "flip_half", "haar"])
    def test_test_and_key_split(self, scheme):
        """1,388-3,033 conclusive counts and 555-1,213 sifted bits by scheme;
        fails a correct program with at most 2.5e-6 per scheme."""
        # without accidentals every test round is inside S; the test sample
        # takes f_test of the conclusive pairs and the rest is sifted with 1/2
        cfg = NoiseConfig.four_meter(singles_rate_hz=0.0, ps_sample_fraction=0.2)
        assert_exact_means(cfg, SETTINGS[1], scheme)
        duration = 30.0
        tally = simulate_session(cfg, SETTINGS[1], scheme, duration, np.random.default_rng(10))
        assert tally.pS_sample_inS == tally.pS_sample_total
        f = cfg.ps_sample_fraction
        n = tally.conclusive
        z = (tally.pS_sample_total - f * n) / math.sqrt(n * f * (1.0 - f))
        assert abs(z) < self.Z_BOUND, f"test fraction, z = {z:.2f}"
        survival = randomized_survival(from_waveplates(SETTINGS[1]), scheme)
        expected = expected_sifted_rate(cfg, survival) * duration
        z = (tally.sifted - expected) / math.sqrt(expected)
        assert abs(z) < self.Z_BOUND, f"sifted, z = {z:.2f}"

    def test_deterministic_given_seed(self):
        cfg = NoiseConfig.four_meter()
        a = simulate_session(cfg, SETTINGS[2], "flip_half", 10.0, np.random.default_rng(42))
        b = simulate_session(cfg, SETTINGS[2], "flip_half", 10.0, np.random.default_rng(42))
        assert a == b


class TestOracleAgreement:
    """Random configs: the means of each session, exactly, and the session itself.

    Each session aims at 3.2e5 sifted bits; a fixed-scheme session costs the
    same whatever its length.  Its conclusive count and QBER are held to
    |z| < Z_BOUND: with 40 such asserts per run, a correct program fails one
    with probability at most 40 * P(|N(0, 1)| >= 4.9) = 3.8e-5, whatever the
    seed or the order of random draws.  One sigma at 3.2e5 bits is a quarter
    of one at 2e4 bits, so the bound is about 1.2 sigmas of a 2e4-bit
    session: tighter than a 3-sigma test of sessions that size.
    """

    Z_BOUND = 4.9

    def test_monte_carlo_matches_analytic_for_random_configs(self):
        rng = np.random.default_rng(2024)
        for trial in range(20):
            cfg = NoiseConfig(
                pair_rate_hz=float(rng.uniform(2000, 20000)),
                apparatus_efficiency=float(rng.uniform(0.01, 0.1)),
                fiber_length_km=float(rng.uniform(0.0, 0.4)),
                atten_db_per_km=4.8,
                extra_loss_db=float(rng.uniform(0.0, 2.0)),
                singles_rate_hz=float(rng.uniform(500, 3000)),
                window_ns=3.0,
                source_error_prob=float(rng.uniform(0.0, 0.08)),
                visibility=float(rng.uniform(0.9, 1.0)),
                ps_sample_fraction=float(rng.uniform(0.0, 0.3)),
            )
            setting = SETTINGS[int(rng.integers(len(SETTINGS) - 1))]
            scheme = ("none", "flip_half")[int(rng.integers(2))]
            assert_exact_means(cfg, setting, scheme)
            survival = randomized_survival(from_waveplates(setting), scheme)
            duration = 3.2e5 / expected_sifted_rate(cfg, survival)
            tally = simulate_session(cfg, setting, scheme, duration, rng)

            lam = expected_conclusive_rate(cfg, survival) * duration
            z = (tally.conclusive - lam) / math.sqrt(lam)
            assert abs(z) < self.Z_BOUND, f"rate, trial {trial}, z = {z:.2f}"

            e = expected_qber(cfg, survival)
            z = (tally.errors / tally.sifted - e) / math.sqrt(e * (1.0 - e) / tally.sifted)
            assert abs(z) < self.Z_BOUND, f"qber, trial {trial}, z = {z:.2f}"


_WAVEPLATES = st.builds(RotatorSetting, *[st.floats(-360.0, 360.0)] * 3)
_CONFIGS = st.builds(
    NoiseConfig,
    pair_rate_hz=st.floats(0.0, 1e6), apparatus_efficiency=st.floats(1e-6, 1.0),
    fiber_length_km=st.floats(0.0, 100.0), atten_db_per_km=st.floats(0.0, 10.0),
    extra_loss_db=st.floats(0.0, 30.0), singles_rate_hz=st.floats(1.0, 1e5),
    window_ns=st.floats(0.1, 10.0), source_error_prob=st.floats(0.0, 0.5),
    visibility=st.floats(0.01, 1.0), ps_sample_fraction=st.floats(0.0, 0.99),
)


class TestMeanOddsExact:
    """The one home of a fixed scheme's means, `_mean_odds`, against the closed
    forms: the exact check that no seed or draw order can re-roll."""

    @pytest.mark.parametrize("scheme", ["none", "flip_half"])
    @pytest.mark.parametrize("preset", [NoiseConfig.four_meter, NoiseConfig.one_km])
    @pytest.mark.parametrize("k", range(len(SETTINGS)))
    def test_presets_at_the_sweep_settings(self, scheme, preset, k):
        assert_exact_means(preset(), SETTINGS[k], scheme)

    @pytest.mark.parametrize("scheme", ["none", "flip_half"])
    @settings(deadline=None, max_examples=60)
    @given(_CONFIGS, _WAVEPLATES)
    def test_random_configs_and_waveplates(self, scheme, cfg, setting):
        assert_exact_means(cfg, setting, scheme)


class TestCliffordMeansExact:
    """The 'haar' means from the 24 single-qubit Cliffords, against the closed
    forms at survival 1/3.

    Every P(block, bit) of a row has degree (2, 2) in the entries of B and
    their conjugates, so a unitary 2-design averages it to its Haar mean.  The
    Clifford group is one (Dankert, Cleve, Emerson and Livine, PRA 80, 012304
    (2009)), and so is u times it, so the table serves every channel u."""

    def test_table_has_24_elements(self):
        assert CLIFFORDS.shape == (24, 2, 2)

    @pytest.mark.parametrize("preset", [
        NoiseConfig.four_meter, NoiseConfig.one_km,
        functools.partial(NoiseConfig.one_km, source_error_prob=0.0, visibility=1.0,
                          singles_rate_hz=5000.0),
    ], ids=["4m", "1km", "1km-noiseless-5kHz"])
    @pytest.mark.parametrize("k", range(len(SETTINGS)))
    def test_presets_at_the_sweep_settings(self, preset, k):
        assert_exact_means(preset(), SETTINGS[k], "haar")

    @settings(deadline=None, max_examples=60)
    @given(_CONFIGS, _WAVEPLATES)
    def test_random_configs_and_waveplates(self, cfg, setting):
        assert_exact_means(cfg, setting, "haar")

    def test_table_equals_a_haar_monte_carlo(self):
        """The table's odds against the mean `_row_odds` of 32,768 Haar rows
        per setting from `haar_matrices`, each state in a quarter of them.

        Each of the 6 x 5 means is held to |z| < 5 of its standard error, so a
        correct program fails the test with probability at most 30 * P(|N(0, 1)|
        >= 5) = 1.7e-5 (normal tails: the CLT is close at this n); an outcome
        whose odds are 0 in every row (outside S without accidentals) must
        match to 1e-15."""
        cfg, n = NoiseConfig.four_meter(), 2**15
        rng = np.random.default_rng(2009)
        states = np.arange(n) % 4
        for setting in SETTINGS:
            u = from_waveplates(setting).matrix
            rows = haar_matrices(rng, n, u)
            odds = np.concatenate([detection._row_odds(cfg, states[k:k + 4096], rows[k:k + 4096])
                                   for k in range(0, n, 4096)])
            gap = np.abs(odds.mean(axis=0) - pair_odds(cfg, u, "haar"))
            assert np.all(gap <= 5.0 * odds.std(axis=0) / math.sqrt(n) + 1e-15), gap


class TestVisibilityEnvelope:
    def test_peak_value(self):
        assert visibility_envelope(0.0, 1.6, 702.0) == 0.95

    def test_coherence_length_and_falloff(self):
        # l_c = 702^2 / 1.6 nm = 308.0 um; at 100 um the envelope is just shy
        # of 90 percent of its peak
        v100 = visibility_envelope(100.0, 1.6, 702.0)
        assert abs(v100 - 0.95 * math.exp(-((100.0 / 308.0025) ** 2))) < 1e-12
        assert abs(v100 - 0.8549557) < 1e-6
        assert visibility_envelope(99.9, 1.6, 702.0) > 0.9 * 0.95

    def test_vanishes_far_out(self):
        assert visibility_envelope(1.0e5, 1.6, 702.0) < 1e-12

    def test_monotone_decreasing(self):
        xs = np.linspace(0, 400, 50)
        vs = [visibility_envelope(float(x), 1.6, 702.0) for x in xs]
        assert all(a >= b for a, b in zip(vs, vs[1:]))

    @pytest.mark.parametrize("args", [
        pytest.param((0.0, 0.0, 702.0), id="zero-bandwidth"),
        pytest.param((0.0, 1.6, -1.0), id="negative-wavelength"),
        pytest.param((0.0, math.inf, 702.0), id="inf-bandwidth"),
        pytest.param((0.0, 1.6, math.inf), id="inf-wavelength"),
        pytest.param((0.0, math.nan, 702.0), id="nan-bandwidth"),
        pytest.param((0.0, 1.6, math.nan), id="nan-wavelength"),
        pytest.param((math.nan, 1.6, 702.0), id="nan-mismatch"),
        pytest.param((0.0, 1.6, 702.0, 1.7), id="peak-above-one"),
        pytest.param((0.0, 1.6, 702.0, -0.2), id="negative-peak"),
        pytest.param((0.0, 1.6, 702.0, 0.0), id="zero-peak"),
        pytest.param((0.0, 1.6, 702.0, math.nan), id="nan-peak"),
    ])
    def test_invalid_inputs_rejected(self, args):
        with pytest.raises(ValueError):
            visibility_envelope(*args)


class TestExpectedRates:
    def test_conclusive_rate_composition(self):
        cfg = NoiseConfig.one_km()
        assert abs(expected_conclusive_rate(cfg, 1.0) - (1.4 + 0.024)) < 1e-9

    def test_sifted_rate_accounts_for_test_fraction(self):
        cfg = NoiseConfig.one_km(ps_sample_fraction=0.5)
        full = expected_sifted_rate(dataclasses.replace(cfg, ps_sample_fraction=0.0), 1.0)
        assert abs(expected_sifted_rate(cfg, 1.0) - 0.5 * full) < 1e-12


def _traced_peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSessionMemory:
    def test_haar_session_memory_does_not_grow_with_duration(self):
        # haar pairs are evaluated in bounded groups: a 150 s session at 4 m
        # (about 21k detected pairs) peaks no higher than a 15 s one
        cfg = NoiseConfig.four_meter()

        def session(duration):
            return lambda: simulate_session(cfg, SETTINGS[1], "haar", duration,
                                            np.random.default_rng(11))

        session(1.0)()  # one-time allocations of the first call are not the session's
        short, long = _traced_peak_bytes(session(15.0)), _traced_peak_bytes(session(150.0))
        assert long < 2_000_000
        assert long <= 1.5 * short

    def test_haar_slice_peak_stays_well_under_the_heap_trim_size(self):
        # glibc trims the heap once its free top reaches twice its largest freed
        # mmap block (over 512 kB in a started interpreter): 256-row slices peaked
        # near 560 kB, at that edge, and refaulted every group in some runs only
        cfg = NoiseConfig.four_meter()
        simulate_session(cfg, SETTINGS[1], "haar", 1.0, np.random.default_rng(11))
        peak = _traced_peak_bytes(
            lambda: simulate_session(cfg, SETTINGS[1], "haar", 15.0, np.random.default_rng(11)))
        assert peak < 350_000

    @pytest.mark.parametrize("rows", [7, 100, 256])
    def test_slicing_keeps_every_draw(self, monkeypatch, rows):
        # each slice's multinomial follows its rows in the stream, so the tallies
        # do not depend on how a 256-row group is sliced for evaluation
        cfg = NoiseConfig.four_meter()

        def tallies():
            return [simulate_session(cfg, s, "haar", 4.0, np.random.default_rng(5))
                    for s in SETTINGS]

        sliced = tallies()
        monkeypatch.setattr(detection, "_ENGINE_ROWS", rows)
        assert tallies() == sliced


def _odds_reference(joint, key_bits, p_sift, cfg):
    """The outcome odds as first written, stacked column by column."""
    f, e = cfg.ps_sample_fraction, intrinsic_error_rate(cfg)
    w = joint.sum(axis=2)
    bits = joint.sum(axis=1).T
    right, wrong = np.where(key_bits == 0, bits, bits[::-1])
    key = 1.0 - f
    return np.stack([
        f * w[:, 1], f * (w[:, 0] + w[:, 2]), key * (1.0 - p_sift) * w.sum(axis=1),
        key * p_sift * (right * (1.0 - e) + wrong * e),
        key * p_sift * (wrong * (1.0 - e) + right * e),
        np.zeros(len(w)),
    ], axis=1)


_NOISE = st.builds(NoiseConfig, ps_sample_fraction=st.floats(0.0, 0.99),
                   source_error_prob=st.floats(0.0, 0.5), visibility=st.floats(0.01, 1.0))
# the ideal apparatus, which _NOISE reaches only by chance: no intrinsic flip at all
_IDEAL = NoiseConfig(source_error_prob=0.0, visibility=1.0)


class TestOutcomeOdds:
    """`_odds` is bit-identical to the first form: a one-ulp change would re-roll
    the exact p = 1/2 binomial split of the accidentals' sifted bits."""

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 300), st.sampled_from([0.5, 1.0]), _NOISE)
    @example(0, 300, 0.5, _IDEAL)
    def test_equals_the_stacked_form(self, seed, n, p_sift, cfg):
        rng = np.random.default_rng(seed)
        joint = rng.dirichlet(np.ones(7), size=n)[:, :6].reshape(n, 3, 2)
        key_bits = rng.integers(2, size=n)
        odds = detection._odds(joint, key_bits, p_sift, cfg)
        assert odds.shape == (n, 6)
        assert np.array_equal(odds, _odds_reference(joint, key_bits, p_sift, cfg))

    @given(_NOISE)
    @example(_IDEAL)
    def test_accidental_odds_cached_read_only(self, cfg):
        odds = detection._accidental_odds(cfg)
        assert odds is detection._accidental_odds(cfg)
        assert not odds.flags.writeable
        with pytest.raises(ValueError):
            odds[0, 0] = 0.0
        fresh = detection._odds(detection._ACCIDENTAL, np.zeros(1, dtype=int), 1.0, cfg)
        assert np.array_equal(odds, fresh)
        assert odds[0, 3] == odds[0, 4]  # sifted right and wrong equally likely

    @pytest.mark.parametrize("scheme", ["none", "flip_half"])
    @given(_NOISE, _WAVEPLATES)
    @example(_IDEAL, SETTINGS[2])
    def test_fixed_rotations_equal_one_product_per_row(self, scheme, cfg, setting):
        # `_mean_odds` forms u @ B once per B and indexes it; each row's own
        # product gives the same odds bit for bit
        u = from_waveplates(setting).matrix
        states, k = detection._FIXED_ROWS[scheme]
        rows = evolve_rows(states, u @ detection._COMPENSATIONS[scheme][k])
        joint = read_rows(rows, detection._BASIS_INDEX[states])
        odds = detection._odds(joint, detection._KEY_BITS[states], 0.5, cfg)
        assert np.array_equal(detection._mean_odds(cfg, u, scheme), odds.mean(axis=0))

    @pytest.mark.parametrize("scheme, size", [("none", 4), ("flip_half", 8)])
    def test_fixed_rows_hold_every_state_and_b_once(self, scheme, size):
        states, k = detection._FIXED_ROWS[scheme]
        pairs = set(zip(states.tolist(), k.tolist()))
        assert len(states) == len(pairs) == size
        assert pairs == {(s, b) for s in range(4) for b in range(size // 4)}


class TestPhaseMaskInvariance:
    """The engine leaves Bob's mask out: within each block `read_rows` reads on
    its own the mask is a global phase, so multiplying any of the four mask
    phases into the rows moves P(block, bit) by at most 1e-15 and no odd at all."""

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2**32 - 1), _NOISE)
    # no intrinsic flip: a sifted-wrong odd is then only the engine's rounding
    # residue, which a mask phase that is not an exact quarter turn moves
    @example(0, _IDEAL)
    def test_masks_move_no_odds(self, seed, cfg):
        rng = np.random.default_rng(seed)
        states = rng.integers(4, size=128)
        setting = SETTINGS[int(rng.integers(len(SETTINGS)))]
        rows = evolve_rows(states, haar_matrices(rng, 128, from_waveplates(setting).matrix))
        bases, key_bits = detection._BASIS_INDEX[states], detection._KEY_BITS[states]
        joint = read_rows(rows, bases)
        odds = detection._odds(joint, key_bits, 0.5, cfg)
        for phases in _MASK_PHASES:
            masked = read_rows(rows * phases[:, None, :, None], bases)
            assert np.max(np.abs(masked - joint)) <= 1e-15
            assert np.array_equal(detection._odds(masked, key_bits, 0.5, cfg), odds)
