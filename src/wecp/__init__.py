"""Linear-optics concentration of partially entangled W states.

Sparse pure-state simulation of two post-selected optical circuits (one
photon over N modes, and N polarized photons) together with the closed-form
success probabilities they are verified against, plus an analytic model of
an earlier iterative scheme for comparison sweeps.
"""
from .state import (
    DEFAULT_PRUNE_EPS,
    IncompatibleStates,
    Ket,
    ModeCollision,
    ModeLabel,
    Polarization,
    PureState,
    ZeroState,
    fidelity,
    fresh_label,
    norm_squared,
)
from .optics import (
    BadTransmittance,
    BranchOutcome,
    PbsWiring,
    UnknownMode,
    VbsSetting,
    WrongConvention,
    apply_pbs,
    apply_vbs,
    detect_vacuum,
)
from .protocols import (
    BadCoefficients,
    PlanStep,
    RunReport,
    WCoefficients,
    analytic_total_probability,
    default_party_labels,
    run_polarization_ecp,
    run_single_photon_ecp,
    target_w_state,
    w_state_polarization,
    w_state_single_photon,
)
from .comparison import (
    DomainError,
    PriorEcpParams,
    default_alpha_grid,
    prior_step1_prob,
    prior_step2_prob,
    prior_total_prob,
    sweep_point,
)

__version__ = "0.1.0"

__all__ = [
    "BadCoefficients",
    "BadTransmittance",
    "BranchOutcome",
    "DEFAULT_PRUNE_EPS",
    "DomainError",
    "IncompatibleStates",
    "Ket",
    "ModeCollision",
    "ModeLabel",
    "PbsWiring",
    "PlanStep",
    "Polarization",
    "PriorEcpParams",
    "PureState",
    "RunReport",
    "UnknownMode",
    "VbsSetting",
    "WCoefficients",
    "WrongConvention",
    "ZeroState",
    "analytic_total_probability",
    "apply_pbs",
    "apply_vbs",
    "default_alpha_grid",
    "default_party_labels",
    "detect_vacuum",
    "fidelity",
    "fresh_label",
    "norm_squared",
    "prior_step1_prob",
    "prior_step2_prob",
    "prior_total_prob",
    "run_polarization_ecp",
    "run_single_photon_ecp",
    "sweep_point",
    "target_w_state",
    "w_state_polarization",
    "w_state_single_photon",
]
