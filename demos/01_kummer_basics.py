"""
Evaluating Kummer's function M(a, b, z)
=======================================

The series engine behind every solver in agplate, shown on its own.
"""

import math

from agplate.kummer import (
    KummerParams,
    count_negative_roots,
    count_positive_roots,
    eval_m,
    eval_m_dz,
)

# A single evaluation returns the value together with diagnostics: how many
# series terms were consumed, the largest term magnitude along the way, and
# whether catastrophic cancellation forced the mpmath repair.
result = eval_m(KummerParams(-2.5, 1.0), -0.5)
print("M(-2.5, 1.0, -0.5)  =", result.value)
print("terms used          =", result.terms_used)
print("max term magnitude  =", result.max_term_magnitude)
print("cancellation repair =", result.cancellation_flag)
print()

# Two classical closed forms make good sanity anchors.
print("M(a, a, z) collapses to exp(z):")
r = eval_m(KummerParams(1.5, 1.5), 0.7)
print("  series", r.value, " exp", math.exp(0.7))

print("M(1, 2, z) equals (exp(z) - 1)/z:")
r = eval_m(KummerParams(1.0, 2.0), 0.7)
print("  series", r.value, " closed form", math.expm1(0.7) / 0.7)
print()

# The derivative is itself a Kummer value: M'(a,b,z) = (a/b) M(a+1,b+1,z).
d = eval_m_dz(KummerParams(0.5, 2.0), 0.0)
print("M'(0.5, 2.0, 0.0) =", d.value, " (equals a/b = 0.25 at the origin)")
print()

# Alternating series with large negative z cancel catastrophically in
# doubles; the engine flags a max|term| / |sum| above 1e8 and recomputes the
# value with mpmath.hyp1f1, which raises its own precision until the double
# is correct, keeping the flag set so callers can see it.
hard = eval_m(KummerParams(20.0, 1.5, ), -20.0)
print("M(20, 1.5, -20) =", hard.value)
print("  flagged:", hard.cancellation_flag,
      " ratio ~ %.1e" % (hard.max_term_magnitude / abs(hard.value)))
print()

# Real-axis zero counts follow from the parameters alone.
p = KummerParams(-2.5, 3.0)
print("zeros of M(-2.5, 3, .):",
      count_positive_roots(p), "positive,",
      count_negative_roots(p), "negative")
