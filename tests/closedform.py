"""Closed-form constants of the Euclidean clamped plate, from scipy.special.

As R -> 0 the weight exp(r^2/2) tends to 1, so the weighted problem tends
to the flat one on the ball.  There the degree-l clamped eigenvalue of the
ball of radius R is k^4 / R^4, with k the first positive zero of
J_nu I_{nu+1} + I_nu J_{nu+1}, nu = n/2 + l - 1, and the Dirichlet
eigenvalues of -Delta are j_{nu,k}^2 / R^2.

dirichlet_reference is the weighted radial Dirichlet frequency mu_D1(X), the
lowest zero of lambda -> M(lambda/2, n/2, -X^2/2), at 40 digits from mpmath.
Nothing here uses agplate.
"""

import mpmath
from scipy.optimize import brentq
from scipy.special import iv, jv


def _first_zeros(f, start, count):
    """The first `count` sign changes of f above start, refined."""
    zeros = []
    x, fx = start, f(start)
    while len(zeros) < count:
        xn = x + 0.05
        fn = f(xn)
        if (fx < 0.0) != (fn < 0.0):
            zeros.append(brentq(f, x, xn, xtol=1e-15, rtol=1e-15))
        x, fx = xn, fn
    return zeros


def bessel_zero(nu, k):
    """The k-th positive zero j_{nu,k} of J_nu (nu >= 0)."""
    return _first_zeros(lambda x: jv(nu, x), nu + 1e-3, k)[k - 1]


def plate_zero(nu):
    """First positive zero of J_nu(k) I_{nu+1}(k) + I_nu(k) J_{nu+1}(k)."""

    def g(x):
        return jv(nu, x) * iv(nu + 1, x) + iv(nu, x) * jv(nu + 1, x)

    return _first_zeros(g, nu + 1e-3, 1)[0]


def dirichlet_reference(n, X):
    """mu_D1(X) at 40 digits, as a float.

    mpmath.findroot's bracketing solver on [lb_1, lb_2], lb_k =
    j_{n/2-1,k}^2 / X^2 + n/2 with the Bessel zeros from
    mpmath.besseljzero; M comes from mpmath.hyp1f1 with zeroprec, so values
    near the zero keep their digits.  That bracket holds mu_D1 alone
    wherever M changes sign across it (mu_k >= lb_k).
    """
    with mpmath.workdps(40):
        X = mpmath.mpf(X)
        b = mpmath.mpf(n) / 2
        ends = [mpmath.besseljzero(b - 1, k) ** 2 / X**2 + b for k in (1, 2)]

        def m(lam):
            return mpmath.hyp1f1(lam / 2, b, -(X**2) / 2, zeroprec=400)

        return float(mpmath.findroot(m, tuple(ends), solver="anderson"))
