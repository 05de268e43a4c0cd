"""Frozen reference values for regression tests.

Each number was computed once, by the route named below, and then frozen.
Tests compare against these values with tolerances loose enough for
root-finder-level jitter and tight enough for genuine regressions.

FROZEN_DISK_EIGENVALUE: fundamental clamped eigenvalue of the unweighted
unit disk, from Richardson extrapolation of fd_lowest_eigenvalue over
meshes 2000/4000 (n=2, l=0, R=1, flat weight); consistent with the
1000/2000 extrapolation to 4e-8.

FROZEN_LAMBDA1: fundamental clamped eigenvalues under the exp(r^2/2)
weight, keyed by (n, l, R).  Each is Lambda = lambda^2 with lambda the root
of the boundary determinant h_R found by mpmath.findroot at 40 significant
digits, h_R built from mpmath.hyp1f1 alone (as reference_h in
test_ball_spectrum.py) and started from the series pipeline's root; no
agplate code enters the value.  These replace values that carried the
fixed-step scan's Brent error (4.5e-12 relative at (2, 0, 1), 1.5e-12 at
(3, 0, 1)).

FROZEN_LARGE_R_C: C(R, n) above R = 4.6, keyed by (n, R).  Each is
min(1, mu_D1(A*)^2 / Lambda_1(R)) at 40 significant digits, all from
mpmath: A* by mpmath.findroot on Phi(A) = Phi(R)/2 with Phi =
beta_n R^n / n * hyp1f1(n/2, n/2 + 1, R^2/2); mu_D1(A*) as
closedform.dirichlet_reference; Lambda_1 = lambda_1^2 with lambda_1 the root
of h_R (as reference_h in test_ball_spectrum.py, at 40 digits) by
mpmath.findroot started from the series pipeline's root, and h_R of one
sign at 400 points below it.  Where the equal split wins, C is the
equal-split root against the single ball's.
"""

FROZEN_DISK_EIGENVALUE = 104.36310556184917

FROZEN_LAMBDA1 = {
    (2, 0, 1.0): 119.54602763204223,
    (3, 0, 1.0): 275.45462873996735,
    (4, 0, 1.0): 525.0553880377342,
    (5, 0, 1.0): 893.0891820362397,
    (2, 1, 1.0): 488.43302850013697,
    (3, 1, 1.0): 843.5459856060205,
}

FROZEN_LARGE_R_C = {
    (2, 4.6): 0.99820171853254572,
    (2, 5.0): 0.99959982904441894,
    (2, 5.4): 0.99992760333409429,
    (3, 4.8): 0.99873448529605627,
    (3, 5.0): 0.9993854957886734,
}
