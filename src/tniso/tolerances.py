"""Centralized numerical tolerances.

The constants below are the single source of numerical thresholds. Most
functions read them directly; the few that take a tolerance argument (the
detection tolerance ``tol_``/``detection_tol`` above all) default to them.
"""

# Construction-time checks on operators.
HERMITICITY_TOL = 1e-10     # max-abs deviation of A from its adjoint
PSD_TOL = 1e-10             # eigenvalues may dip this far below zero
TRACE_TOL = 1e-10           # |trace - 1| allowed for density operators

# Rank decisions: eigenvalues below RANK_TOL * (largest eigenvalue) are
# treated as exact zeros before support/rank computations.
RANK_TOL = 1e-9

# Eigenvalue clamping window for positive/negative part splitting.
EIG_CLAMP_TOL = 1e-12

# Channel invariants.
TP_TOL = 1e-10              # max-abs deviation of sum_k M_k^dag M_k from I
WEIGHT_SUM_TOL = 1e-12      # convex-mixture weights must sum to 1 this tightly
KERNEL_TOL = 1e-10          # singular-value cutoff for fixed-point kernels

# Structure detection and classification.
DETECTION_TOL = 1e-8        # default trace-norm reconstruction residual
SPECTRAL_GAP_TOL = 1e-8     # eigenvalue clustering width for eigenprojectors
