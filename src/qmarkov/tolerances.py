"""Central tolerance table.

Modeling tolerances (what counts as Hermitian, positive, trace preserving)
are kept separate from method noise floors (kernel and rank cutoffs, the
closed forms' singular point) so a failed check points at the right
culprit.
"""

# Hermiticity / exact-structure tolerance (floating point noise floor).
TOL_HERM = 1e-12

# Allowed negativity for "positive semidefinite" eigenvalue checks.
TOL_PSD = 1e-10

# Slack for "<= 0" assertions on the scan's exact right derivatives (the
# default --slack): a row fails when its derivative exceeds it.  Rounding
# and the kernel over-read (see KERNEL_CUTOFF) stay below 1e-11 on the
# default grids, while the k = 2 scan's backflow reads 6e-2.
TOL_DERIV = 1e-6

# Slack for "<= 0" assertions on closed-form evaluations.
TOL_CLOSED_FORM = 1e-12

# The closed-form derivative divides by sqrt(1 + lam^2 + 2 lam cos(2 theta
# tau)), which vanishes only at lam = 1, 2 theta tau = pi: a root at or below
# this is that singular point, skipped and counted.  It reads exactly 0 there
# (cos(pi) rounds to -1); at lam = 1 with 2 theta tau off pi it exceeds 1e-8.
SINGULAR_ROOT = 1e-12

# Slack of the bound chain's links between order-1 closed forms: far above
# their rounding, far below a genuine violation (link 4 at theta = 1.3 is
# off by 1.5e-3 already at tau = 0.005).
TOL_BOUND_CHAIN = 1e-10

# Relative singular-value cutoff for rank decisions (image bases,
# pseudoinverses).  Far above float noise, far below the spectral gaps of
# the maps handled here.
RANK_CUTOFF = 1e-8

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
