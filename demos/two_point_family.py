"""The two-point generalized Stirling family T(A, B, r, r'; s).

A single parameter s interpolates between two one-point triangles:
at s = -1 the family collapses to HS(-A, B, r'), at s = +1 to HS(A, -B, r).
For excess e = 1 the inverted pair has radical closed forms; for e = 2 the
lowering series satisfies an explicit quartic that degenerates at s = +-1.
"""

from bosonorder import (HSParams, SPoly, TwoPointParams, closed_form_e1,
                        hs_pair, quartic_leading_coeffs, quartic_residual,
                        group_inverse, two_point_egf, two_point_pair)

s = SPoly.s()
N = 6

print("== interpolation in s ==")
p = TwoPointParams(2, 1, -1, 3, s)
egf = two_point_egf(p, 3)
print("row 1 polynomial:", [str(c) for c in egf.row_poly(1)])
print("row 2 polynomial:", [str(c) for c in egf.row_poly(2)])

print()
print("== endpoint collapse ==")
minus = group_inverse(two_point_pair(TwoPointParams(2, 1, -1, 3, -1), N))
plus = group_inverse(two_point_pair(TwoPointParams(2, 1, -1, 3, 1), N))
print("s = -1 equals HS(-2, 1, 3):", minus == hs_pair(HSParams(-2, 1, 3), N))
print("s = +1 equals HS(2, -1, -1):", plus == hs_pair(HSParams(2, -1, -1), N))

print()
print("== excess e = 1: radical closed forms ==")
closed = closed_form_e1(1, 1, s, N)
direct = group_inverse(two_point_pair(TwoPointParams(1, 1, -1, 1, s), N))
print("gbar = (1 + 2sz + z^2)^(-1/2):", closed.first)
print("matches series reversion     :", closed == direct)

print()
print("== excess e = 2: the quartic constraint ==")
print("residual at symbolic s:",
      "0" if quartic_residual(2, 1, s, N).is_zero() else "NONZERO")
c4, c3 = quartic_leading_coeffs(s)
print("leading coefficients  :", c4, "|", c3)
c4, c3 = quartic_leading_coeffs(1)
print("at s = 1 they vanish  :", c4, "|", c3, " (quartic -> quadratic)")
