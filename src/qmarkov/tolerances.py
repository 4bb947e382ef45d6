"""Central tolerance table.

Modeling tolerances (what counts as Hermitian, positive, trace preserving)
are kept separate from method noise floors (kernel and rank cutoffs, the
closed forms' singular point) so a failed check points at the right
culprit.  Every threshold is read by name where it decides something, and
none is passed in as a parameter, apart from lambda_reflection_check's tol.
"""

# Hermiticity / exact-structure tolerance (floating point noise floor).
TOL_HERM = 1e-12

# Allowed negativity for "positive semidefinite" eigenvalue checks.
TOL_PSD = 1e-10

# Slack for "<= 0" assertions on the scan's exact right derivatives, recorded
# as the scan's "slack": a row is "ok" only where its derivative is at most
# it, so a NaN row fails.  Rounding and the kernel over-read (see
# KERNEL_CUTOFF) stay below 1e-11 on the default grids, while the k = 2
# scan's backflow reads 6e-2.
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

# Slack of the reflection identity d(lam) = lam * d(1/lam) between two
# closed-form derivatives: at lam near 0.01 the factor 1/lam = 100 scales
# the rounding of d(1/lam), and the largest gap on a 99 x 101 (lam, tau)
# grid at theta in {1.2, sqrt(2), 1.5, pi/2} is 2.5e-13.
TOL_REFLECTION = 1e-10

# Relative singular-value cutoff for rank decisions (image bases,
# pseudoinverses, and the forcing witness's unit-trace images, whose ranks
# count eigenvalues above it; an input whose image has trace at most it is
# dropped).  Far above float noise, far below the spectral gaps of the maps
# handled here.
RANK_CUTOFF = 1e-8

# Largest max-abs residual |V Lambda_s - Lambda_t| for which an intermediate
# map V counts as reproducing Lambda_t; every row of the divisibility table at
# or above it, closed form or completion, reads "inconsistent".  If Lambda_t =
# W Lambda_s, a singular value sigma <= RANK_CUTOFF * sigma_max(Lambda_s) that
# the cutoff drops leaves a residual of at most ||W|| sigma: 1e-8 here, with
# sigma_max = sqrt(2) (9.99999999999412e-9 on (1.9491785011793674, + 1e-15),
# at the end of stage 2).  Other residuals are rounding, below 1e-13; a kernel
# of Lambda_s outside Lambda_t's leaves O(1).  100 times the cutoff clears the
# bound 100x.
RESIDUAL_TOL = 100 * RANK_CUTOFF

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

# The scan's closed-form 3 x 3 block spectrum (the trigonometric roots of
# the characteristic cubic) is trusted where neighbouring eigenvalues lie at
# least TRIPLE_GAP times the block's largest |lam| apart.  Near a double root
# arccos amplifies the rounding of q: the pair's eigenvalues err by about
# eps/gap of that scale, and each of its rates by eps/gap^2 of Xdot.  A pair
# of equal signs enters the derivative through the sum of its rates, which
# errs by eps/gap only; a pair of opposite signs through their difference,
# so there the gap must reach sqrt(TRIPLE_GAP).  On constructed blocks 5 %
# inside either edge the derivative erred by at most 3e-14 times Xdot's
# largest entry against a 50-digit reference.  53 of the 10,000 stage-1 rows
# of the default verify scan fail the test and take eigh.
TRIPLE_GAP = 1e-2

# A closed-form 3 x 3 block whose smallest |lam| is at most TRIPLE_FLOOR times
# its largest takes eigh: below it the cubic's error (about 1e-14 of the
# largest) would no longer leave the sign and the KERNEL_CUTOFF decision of
# that eigenvalue to eigh's accuracy.
TRIPLE_FLOOR = 1e-6

# Largest entry gap between the left and right limits of Lambda_t, and of its
# time derivative, at a junction for which each counts as continuous.  Both
# sides are closed forms (stages 1-3 at tau = 1, stages 2-4 at tau = 0): the
# maps read exactly 0.0 at t1, t2 and t3, and so do the derivatives for
# delta > 1; the kink of delta = 1 reads 0.75 at t3.  Anything above
# rounding is a genuine jump.
JUNCTION_GAP = 1e-12

# The forcing witness's discrepancy is 2 |cos theta| (0.14 at theta = 1.5,
# 0.042 at 1.55); at or below this it reads "inconclusive", as at theta =
# pi/2, where both forced targets coincide up to rounding (1.2e-16).
WITNESS_MIN_DISCREPANCY = 1e-6

# A float whose scaled remainder r (see tables._g_bytes) lies within
# this of +-1/2 is a near-tie of its last printed digit, and Python's
# formatter writes it: r errs by under 1e-16, so it could round either way.
# Exact ties (12345678901234.25 at 15 digits) land here, and a value away
# from a tie does so with probability 2e-9.
CSV_TIE_BAND = 1e-9

# Fixed published seed so default runs are reproducible.
DEFAULT_SEED = 20210907
