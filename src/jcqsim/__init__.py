"""Thermal quantum discord and entanglement for a two-qubit Josephson
charge-qubit device: control maps, Gibbs states, correlation measures,
parameter sweeps and critical-point searches."""

from .correlations import (
    CorrelationReport,
    Measurement,
    binary_entropy,
    classical_correlation,
    concurrence,
    eof,
    eof_from_concurrence,
    mutual_information,
    quantum_discord,
)
from .device import (
    CONSTANTS,
    DeviceParams,
    EffectiveParams,
    PhysicalConstants,
    ThermalSpec,
    build_hamiltonian,
    charge_energy,
    effective_params,
    epsilon_from_voltage,
    gibbs_state,
    thermal_state,
)
from .errors import (
    BracketError,
    ConfigError,
    DimensionError,
    DomainError,
    InvalidParameterError,
    NotAStateError,
    NotHermitianError,
    SpecValidationError,
)
from .qmath import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    kron,
    partial_trace,
)
from .sweep import (
    FIGURES,
    MEASURES,
    VARIABLES,
    CriticalPoint,
    SweepSpec,
    esd_temperature,
    figure_preset,
    optimal_ratio,
    sweep_1d,
    sweep_2d,
)

__version__ = "0.1.0"
