"""Central tolerance table.

Modeling tolerances (what counts as Hermitian, positive, trace preserving)
are kept separate from method noise floors (finite differencing, rank
cutoffs) so a failed check points at the right culprit.
"""

# Hermiticity / exact-structure tolerance (floating point noise floor).
TOL_HERM = 1e-12

# Allowed negativity for "positive semidefinite" eigenvalue checks.
TOL_PSD = 1e-10

# Slack for "<= 0" assertions on finite-difference derivative estimates.
TOL_DERIV = 1e-6

# Slack for "<= 0" assertions on closed-form evaluations.
TOL_CLOSED_FORM = 1e-12

# Relative singular-value cutoff for rank decisions (image bases,
# pseudoinverses).  Far above float noise, far below the spectral gaps of
# the maps handled here.
RANK_CUTOFF = 1e-8

# Default initial step of the finite-difference right-derivative estimator
# (operators.right_derivative), the oracle the exact scan is tested against;
# two Richardson halvings on top of this pass closed-form checks at 1e-5
# without catastrophic cancellation at the 1e-12 matrix tolerance floor.
DEFAULT_H0 = 1e-4

# Eigenvalues of an evolved probe with |lam| <= KERNEL_CUTOFF * max |lam| of
# that probe count as its kernel in the exact right derivative of the trace
# norm.  Rounding leaves structural kernels near 1e-16 relative, but genuine
# eigenvalues get small too: near the end of stage 2 the weight
# w = exp(-tau^2 / (1 - tau)) is about 1e-10 at tau = 0.96, and the probes
# carry eigenvalues of up to 2.6e-10 there.  Counting a genuine eigenvalue
# as kernel can only raise the derivative (||P0 Xdot P0||_1 is at least the
# sign sum it replaces), by up to twice its rate: a cutoff of 1e-10 reads a
# spurious 3.3e-7 at t = 1.96 on the default verify scan, 1e-13 reads 1.9e-15.
KERNEL_CUTOFF = 1e-13

# Fixed published seed so default runs are reproducible.
DEFAULT_SEED = 20210907
