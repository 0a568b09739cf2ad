"""Trace-norm isometric encodings of quantum information.

Detects the subsystem structure of isometric state encodings, classifies
codes under CPTP noise (fixed / preserved / noiseless / correctable /
protectable), constructs recovery channels, and quantifies the robustness
of perturbed encodings under iterated noise-plus-correction cycles.
"""

__version__ = "0.1.0"

from .errors import (
    ContractViolation,
    ConvergenceError,
    NotCorrectableError,
    NumericError,
    TnisoError,
)
from .opcore import (
    DensityOperator,
    sqrt_psd,
    support_projector,
    trace_norm,
)
from .channels import (
    KrausChannel,
    Superoperator,
    cesaro_projector,
    check_support_invariance,
    compose,
    convex_mix,
    unvec,
    vec,
)
from .codes import (
    IsometricEncoding,
    ObservableEncoding,
    PerturbedEncoding,
    SubsystemDecomposition,
    bit_flip_channel,
    majority_basis_unitary,
    make_example2_channel,
    make_repetition_example,
    phase_flip_channel,
    verify_faithfulness,
)
from .analysis import (
    ClassificationReport,
    StructureReport,
    build_correction,
    check_ns_factorization,
    classify,
    derive_protectable_code,
    detect_structure,
    is_fixed,
    is_preserved,
    noiseless_certificate,
    unitary_correctability,
)
from .robustness import (
    EpsilonEstimate,
    SimulationTrace,
    check_geometric_bound,
    check_prop3_bound,
    estimate_epsilon,
    perturbed_encoding_correctability,
    simulate_iterated,
)
from . import sampling, serialize
