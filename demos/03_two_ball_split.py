"""
Splitting a ball's weighted volume between two smaller balls
============================================================

Two centered balls of radii A and B share the weighted volume of one ball
of radius R. The coupled clamped problem on the pair has its own lowest
eigenvalue mu(A, B); minimizing it over the split reveals a sharp
transition between "keep one ball" and "split evenly".
"""

from agplate.jab_solver import minimize_jab, solve_jab
from agplate.measure import complement_radius, half_mass_radius, phi_volume

# The volume constraint: A ranges from 0 (single ball of radius R) to the
# half-mass radius A* (two balls of equal weighted volume).
n, R = 2, 1.25
a_star = half_mass_radius(n, R)
print("R =", R, " half-mass radius A* =", a_star)
print("check: Phi(A*) / Phi(R) =", phi_volume(n, a_star) / phi_volume(n, R))
print()

# One pair at a time: the characteristic root for an uneven split.
A = 0.6
B = complement_radius(n, R, A)
sol = solve_jab(n, A, B)
print("A = %.4f  B = %.4f  ->  mu = %.6f" % (A, B, sol.mu))
print()

# Minimize over the whole family. Just below the transition radius the
# single ball wins; just above it the equal split takes over.
for radius in (1.2, 1.25):
    record = minimize_jab(n, radius)
    ratio = record.A_min / half_mass_radius(n, radius)
    print("R = %-5s A_min = %-10.6f A_min/A* = %-8.4f J_min = %.6f"
          % (radius, record.A_min, ratio, record.J_min))
print()

# The scan profile behind the R = 1.25 minimum, one row per grid sample:
# sqrt(mu) as the split moves from one ball toward equal balls.
record = minimize_jab(n, 1.25)
print("A         B         sqrt(mu)")
for a, b, root in record.profile:
    print("%-9.5f %-9.5f %.7f" % (a, b, root))
