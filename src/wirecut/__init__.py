"""Quasiprobability wire cutting.

Decompose n-qubit identity channels ("wires") into signed mixtures of
measure-and-prepare channels, synthesize the Clifford circuits behind the
MUB-based decomposition, estimate cut circuits by Monte-Carlo sampling, and
compare methods through their sampling-overhead / channel-count / run-time
cost models.
"""

from .channels import (
    Decomposition,
    MPChannel,
    build_decomposition,
    build_mub_default,
    build_mub_nq,
    build_optimal_1q,
    build_peng_1q,
    build_randomized_nq,
    build_teleport_nq,
    ptm,
    single_qubit_clifford_group,
    verify_decomposition,
)
from .costs import (
    GateCountRow,
    MethodRow,
    TimeModelParams,
    channel_count_bound,
    gate_count_bench,
    overhead_table,
    predict_time,
)
from .errors import (
    DesignViolationError,
    InvalidInputError,
    NumericFailureError,
    ResourceLimitError,
    SynthesisError,
    WirecutError,
)
from .estimator import (
    CircuitLayer,
    CutLocation,
    CutSpec,
    EstimateReport,
    LayeredCircuit,
    PostProcess,
    demo_circuit,
    demo_cut,
    enumerate_estimator_mean,
    exact_expectation,
    run_monte_carlo,
)
from .families import (
    CommutingFamily,
    FamilyPartition,
    expand_family,
    generate_partition,
    validate_partition,
)
from .pauli import (
    PauliString,
    pauli_vector,
)
from .synth import (
    CliffordCircuit,
    Gate,
    GateStats,
    circuit_unitary,
    edge_color_cz,
    gate_stats,
    synthesize,
    verify_diagonalizes_symplectic,
)

__version__ = "0.1.0"
