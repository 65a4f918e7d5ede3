"""Simulator and analysis toolkit for reference-frame-free entangled-photon QKD.

The protocol encodes BB84-like key bits in two-photon states that combine
polarization and time-bin tagging, making the sifted key immune to any
collective polarization rotation of the channel.  The package provides the
exact two-photon amplitude algebra (`hilbert`), the rotation channel and its
survival parameters (`channel`), the honest protocol rounds (`protocol`),
realistic Monte Carlo counting statistics (`detection`), the asymptotic
secret-key-rate bound (`security`) and a seeded experiment harness with a
CLI (`harness`, `cli`).
"""

from .channel import (
    CollectiveRotation,
    DeltaParams,
    RotatorSetting,
    delta_params,
    from_waveplates,
    haar_sample,
    randomized_survival,
    survival_probability,
    sweep_settings,
)
from .detection import (
    NoiseConfig,
    accidental_rate,
    expected_conclusive_rate,
    expected_qber,
    simulate_session,
    transmittance,
    visibility_envelope,
)
from .harness import DEFAULT_SEED, ExperimentConfig, SweepRow, emit, run_sweep, selftest
from .hilbert import (
    PairDensity,
    PairState,
    apply_pol_unitary,
    density_average,
    fidelity,
    project,
    pure_state,
    tag,
)
from .protocol import (
    BasisChoice,
    LogicalState,
    PhaseMask,
    RoundOutcome,
    TallyCounts,
    alice_pipeline,
    bob_pipeline,
    evolve,
    measure,
    prepare,
    sift,
)
from .security import SecurityReport, binary_entropy, bound_exS, key_rate, report

__version__ = "0.1.0"
