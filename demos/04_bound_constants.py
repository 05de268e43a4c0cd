"""
The comparison constant C(R, n) and radius sweeps
=================================================

C(R, n) divides the best two-ball eigenvalue by the single-ball eigenvalue.
C = 1 means the single ball is optimal; C < 1 measures how much an even
split improves on it. The sweep tooling writes one canonical CSV row per
(n, R) pair and never aborts on a row whose solver fails.
"""

from agplate.constants import c_constant, format_records, sweep

# Three regimes in the plane: deep inside the single-ball range, at the
# classical unit ball, and past the transition where splitting wins.
for R in (0.8, 1.0, 1.5):
    record = c_constant(2, R)
    print("n=2 R=%-4s C = %-20.17g A_min = %.6f" % (R, record.C, record.A_min))
print()

# The record carries the full decomposition.
record = c_constant(2, 1.5)
print("decomposition at n=2, R=1.5:")
print("  Lambda1 =", record.Lambda1)
print("  J_min   =", record.J_min)
print("  C_raw   =", record.C_raw)
print("  status  =", record.status)
print()

# A small sweep, rendered in the canonical CSV schema (17 significant
# digits, LF endings, one status column). A row whose solver fails
# (NoRootFound or NonConvergent) comes back as a status row with NaN
# numerics instead of raising.
records = sweep([2, 3], r_min=0.5, r_max=1.0, steps=4, grid_points=64)
print(format_records(records))
