"""Noise model and Monte Carlo counting tests."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfqkd.channel import from_waveplates, randomized_survival, sweep_settings
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

SETTINGS = sweep_settings()


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

    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate_session(NoiseConfig(), SETTINGS[0], "none", 0.0, np.random.default_rng(0))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            simulate_session(NoiseConfig(), SETTINGS[0], "half_flip", 1.0,
                             np.random.default_rng(0))

    def test_haar_scheme_session(self):
        cfg = NoiseConfig.four_meter(ps_sample_fraction=0.1)
        duration = 5.0
        tally = simulate_session(cfg, SETTINGS[0], "haar", duration, np.random.default_rng(7))
        expected = expected_conclusive_rate(cfg, 1.0 / 3.0) * duration
        assert abs(tally.conclusive - expected) < 3 * math.sqrt(expected)
        assert tally.errors <= tally.sifted <= tally.conclusive

    def test_noiseless_haar_session_has_no_errors(self):
        cfg = NoiseConfig.four_meter(singles_rate_hz=0.0, source_error_prob=0.0, visibility=1.0)
        tally = simulate_session(cfg, SETTINGS[2], "haar", 5.0, np.random.default_rng(8))
        assert tally.sifted > 0
        assert tally.errors == 0

    def test_haar_session_matches_closed_forms(self):
        # the haar compensation gives survival 1/3 whatever the channel,
        # the collective bit-flip included
        cfg = NoiseConfig.four_meter()
        duration = 20.0
        tally = simulate_session(cfg, SETTINGS[4], "haar", duration, np.random.default_rng(9))
        expected = expected_conclusive_rate(cfg, 1.0 / 3.0) * duration
        assert abs(tally.conclusive - expected) < 3 * math.sqrt(expected)
        e = expected_qber(cfg, 1.0 / 3.0)
        sigma = math.sqrt(e * (1.0 - e) / tally.sifted)
        assert abs(tally.errors / tally.sifted - e) < 3 * sigma

    @pytest.mark.parametrize("scheme", ["none", "flip_half", "haar"])
    def test_test_and_key_split(self, scheme):
        # without accidentals every test round is inside S; the test sample
        # takes f_test of the conclusive pairs and the rest is sifted with 1/2
        cfg = NoiseConfig.four_meter(singles_rate_hz=0.0, ps_sample_fraction=0.2)
        duration = 10.0
        tally = simulate_session(cfg, SETTINGS[1], scheme, duration, np.random.default_rng(10))
        assert tally.pS_sample_inS == tally.pS_sample_total
        f = cfg.ps_sample_fraction
        n = tally.conclusive
        assert abs(tally.pS_sample_total - f * n) < 3 * math.sqrt(n * f * (1.0 - f))
        survival = randomized_survival(from_waveplates(SETTINGS[1]), scheme)
        expected = expected_sifted_rate(cfg, survival) * duration
        assert abs(tally.sifted - expected) < 3 * math.sqrt(expected)

    def test_deterministic_given_seed(self):
        cfg = NoiseConfig.four_meter()
        a = simulate_session(cfg, SETTINGS[2], "flip_half", 10.0, np.random.default_rng(42))
        b = simulate_session(cfg, SETTINGS[2], "flip_half", 10.0, np.random.default_rng(42))
        assert a == b


class TestOracleAgreement:
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
            survival = randomized_survival(from_waveplates(setting), scheme)
            # aim for about 2e4 sifted bits per config
            duration = 2.0e4 / expected_sifted_rate(cfg, survival)
            tally = simulate_session(cfg, setting, scheme, duration, rng)

            lam = expected_conclusive_rate(cfg, survival) * duration
            assert abs(tally.conclusive - lam) < 3 * math.sqrt(lam), f"rate, trial {trial}"

            qber = tally.errors / tally.sifted
            e = expected_qber(cfg, survival)
            sigma = math.sqrt(e * (1.0 - e) / tally.sifted)
            assert abs(qber - e) < 3 * sigma, f"qber, trial {trial}"


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

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            visibility_envelope(0.0, 0.0, 702.0)
        with pytest.raises(ValueError):
            visibility_envelope(0.0, 1.6, -1.0)


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
