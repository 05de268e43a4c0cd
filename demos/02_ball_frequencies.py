"""
Fundamental tones of clamped balls under the Gaussian-inverse weight
====================================================================

The lowest eigenvalue of the weighted bi-Laplacian with clamped boundary,
computed from the secular determinant of confluent hypergeometric factors.
"""

import numpy as np

from agplate.ball_spectrum import (
    eigenfunction_profile,
    eigenvalue_curve,
    lowest_eigenvalue,
    secular_h,
)

# One ball, one mode: the returned record carries lambda (the secular root),
# Lambda = lambda^2 (the eigenvalue), and the amplitude ratio G_R of the two
# confluent factors in the eigenfunction.
mode = lowest_eigenvalue(2, 0, 1.0)
print("n=2, l=0, R=1:  lambda =", mode.lam)
print("               Lambda =", mode.Lambda)
print("               G_R    =", mode.G_R)
print()

# The eigenvalue is a root of the boundary determinant h_R; check the sign
# change in a tight window around the reported root.
for offset in (-1e-8, 1e-8):
    lam = mode.lam * (1.0 + offset)
    print("  h(lambda * (1%+.0e)) = %+.3e" % (offset, secular_h(2, 0, 1.0, lam)))
print()

# Smaller balls ring higher: Lambda grows like R^-4 as the ball shrinks.
print("R        Lambda(R)        Lambda * R^4")
for R, lam in eigenvalue_curve(2, 0, [0.25, 0.5, 1.0, 2.0]):
    print("%-8s %-16.10g %-16.10g" % (R, lam * lam, lam * lam * R**4))
print()

# Higher harmonic degrees ring higher still, at every radius.
print("degree ordering at R = 1:")
for l in (0, 1, 2):
    print("  l =", l, " lambda =", lowest_eigenvalue(2, l, 1.0).lam)
print()

# The radial profile vanishes at the wall together with its slope: that is
# the clamped condition the secular root enforces.
profile = eigenfunction_profile(mode, samples=9)
print("radial profile (9 samples):")
for r, y in zip(profile.radii, profile.values):
    print("  y(%.3f) = %+.6f" % (r, y / max(abs(v) for v in profile.values)))
