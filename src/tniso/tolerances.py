"""Centralized numerical tolerances.

The constants below are the single source of numerical thresholds. Most
functions read them directly; the few that take a tolerance argument (the
detection tolerance ``tol_``/``detection_tol`` above all) default to them
and check a caller's value with :func:`require_tolerance`.
"""

from .errors import ContractViolation

# Construction-time checks on operators.
HERMITICITY_TOL = 1e-10     # max-abs deviation of A from its adjoint
PSD_TOL = 1e-10             # eigenvalues may dip this far below zero
TRACE_TOL = 1e-10           # |trace - 1| allowed for density operators
UNITARY_TOL = 1e-10         # max-abs deviation of basis^dag basis from I
PERTURBATION_TOL = 1e-10    # Hermiticity/trace defect of an encoding perturbation

# Rank decisions: eigenvalues below RANK_TOL * (largest eigenvalue) are
# treated as exact zeros before support/rank computations.
RANK_TOL = 1e-9

# Eigenvalue clamping window for positive/negative part splitting.
EIG_CLAMP_TOL = 1e-12

# Channel invariants.
TP_TOL = 1e-10              # max-abs deviation of sum_k M_k^dag M_k from I; time reversal falls back above it
WEIGHT_SUM_TOL = 1e-12      # convex-mixture weights must sum to 1 this tightly
KERNEL_TOL = 1e-10          # singular-value cutoff for fixed-point kernels
CESARO_TOL = 1e-8           # iterative Cesaro averaging stops at this successive change
SPAN_CLOSURE_TOL = 1e-12    # a code's span is invariant when the channel moves it off itself by less than this share
SUPPORT_INVARIANCE_TOL = 1e-10  # Kraus block leaking out of a state's support
KRAUS_WEIGHT_CUT = 1e-12    # absolute and relative Choi-eigenvalue cut of minimal_kraus
PAIR_DISTANCE_FLOOR = 1e-12  # contraction-witness state pairs closer than this are resampled

# Structure detection and classification.
DETECTION_TOL = 1e-8        # default trace-norm reconstruction residual
SPECTRAL_GAP_TOL = 1e-8     # eigenvalue clustering width for eigenprojectors
EIGENVALUE_WINDOW = 1e-9    # eigenvalue matching widens by this times max(1, |lambda|)
INPUT_MAP_TOL = 1e-8        # Hermiticity/trace defect of a map handed to detection
STATE_IMAGE_FLOOR = 1e-10   # negative eigenvalue of a basis-state image always allowed
SPECTRUM_FLOOR = 1e-9       # spectral spread across basis-state images always allowed
INVARIANCE_FLOOR = 1e-9      # block-leak residual always allowed in an NS split

# Iterated noise-plus-recovery rounds.
CONTRACTION_RESIDUAL_FLOOR = 1e-12  # no contraction ratio from a residual below this
LOOP_FIXED_FLOOR = 1e-8     # fixed-code residual always allowed before iterating a perturbed code
BOUND_SLACK = 1e-6          # iterated errors may exceed the linear or geometric bound by this
ASCENT_GAIN_TOL = 1e-12     # the epsilon witness's ascent stops at a step that gains no more than this share of its value

# Golden checks of the bundled paper examples (``tniso example``).
GOLDEN_EXACT_TOL = 1e-12    # closed-form golden spectra and images match, and decoded coherence never grows, this tightly
GOLDEN_FIXED_TOL = 1e-10    # the repetition code is fixed by its correction this tightly
GOLDEN_DIGITS_TOL = 1e-3    # the paper's goldens (0.332, 0.335) are printed to three digits


def require_tolerance(value, name: str) -> float:
    """``value`` if it is positive and finite, else ``ContractViolation``
    naming ``name``: an infinite tolerance accepts every residual, and NaN
    rejects every one."""
    if not 0 < value < float("inf"):
        raise ContractViolation(f"{name} must be positive and finite, got {value!r}")
    return value
