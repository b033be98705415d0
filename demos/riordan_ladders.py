"""Exponential Riordan arrays, Sheffer sequences, and their ladder operators.

Each catalog entry is a Sheffer pair [g, f]; its coefficient triangle holds
the polynomials s_n(t), and the pair determines a lowering operator P (a
pure series in d/dt) and a raising operator M with P s_n = n s_{n-1} and
M s_n = s_{n+1}.
"""

from bosonorder import array_coeffs, catalog, group_inverse, ladder_apply

for name in ("touchard", "hermite", "laguerre", "abel"):
    pair = catalog(name, 8)
    tri = array_coeffs(group_inverse(pair), 5)
    print(f"== {name} ==")
    for n in range(6):
        row = ", ".join(str(c) for c in tri.row_poly(n))
        print(f"  s_{n}(t): [{row}]")
    s3 = tri.row_poly(3)
    print("  P s_3 :", [str(c) for c in ladder_apply(pair, "lowering", s3)])
    print("  M s_3 :", [str(c) for c in ladder_apply(pair, "raising", s3)])
    print()
