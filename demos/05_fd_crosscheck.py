"""
Cross-checking the series solver with a finite difference mesh
==============================================================

An independent discretization of the same eigenvalue problem: second order
stencils on a uniform radial mesh, clamped closure via a reflected ghost
node, and inverse power iteration on the factored normal form. The two
routes share no code beyond numpy, so agreement is evidence, not tautology.
"""

from agplate.ball_spectrum import lowest_eigenvalue
from agplate.fd_oracle import FdProblem, fd_lowest_eigenvalue

# Mesh refinement at n=2, l=0, R=1: the error shrinks by ~4x per doubling,
# the signature of a second order scheme.
exact = lowest_eigenvalue(2, 0, 1.0).Lambda
print("series value:", exact)
print()
print("mesh    estimate            relative gap")
previous_gap = None
for mesh in (250, 500, 1000, 2000):
    estimate = fd_lowest_eigenvalue(FdProblem(2, 0, 1.0, mesh))
    gap = abs(estimate - exact) / exact
    note = ""
    if previous_gap is not None:
        note = "   (gap ratio %.2f)" % (previous_gap / gap)
    print("%-7d %-19.12f %.3e%s" % (mesh, estimate, gap, note))
    previous_gap = gap
print()

# The same oracle with the weight switched off solves the classical
# clamped plate; on the unit disk the constant is 104.3631...
flat = fd_lowest_eigenvalue(FdProblem(2, 0, 1.0, 2000, weight="none"))
print("unweighted disk, mesh 2000:", flat)
print()

# Agreement across dimensions and degrees at a fixed mesh.
print("n  l  series            mesh 2000         relative gap")
for n in (2, 3, 4, 5):
    for l in (0, 1):
        s = lowest_eigenvalue(n, l, 1.0).Lambda
        f = fd_lowest_eigenvalue(FdProblem(n, l, 1.0, 2000, weight="antigauss"))
        print("%d  %d  %-17.10f %-17.10f %.2e" % (n, l, s, f, abs(f - s) / s))
