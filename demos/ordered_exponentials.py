"""s-ordered expansions of exp(lambda ad^L a ad^R), every route cross-checked.

The lambda^n coefficient of the s-ordered symbol is x*^(en) T_n(x* x)/n!
with T_n a two-point generalized Stirling row polynomial at
(A, B, r, r') = (e, 1, -L, R), e = L + R - 1.  Quantizing at the same s
must reproduce plain brute-force normal ordering -- for every s at once.
"""

from bosonorder import (SPoly, SingleAnnihilatorWord, blasiak_identity_check,
                        catalog, exp_number_closed_form, oracle_exponential,
                        s_ordered_symbol, weyl_power_aaa, normal_order,
                        s_quantize)

s = SPoly.s()

print("== exp(lambda ad a ad), symbol at symbolic s ==")
w = SingleAnnihilatorWord(1, 1)
sym = s_ordered_symbol(w, s, 3)
for n in range(4):
    print(f"  lambda^{n}:", sym[n])
print("quantized == rewriting oracle:",
      sym.quantize() == oracle_exponential(w, 3))

print()
print("== exp(lambda ad a) in closed form ==")
closed = exp_number_closed_form(s, 3)
print("  lambda^1:", closed[1])
print("  lambda^2:", closed[2])
print("quantized == oracle:",
      closed.quantize() == oracle_exponential(SingleAnnihilatorWord(1, 0), 3))

print()
print("== Weyl-ordered (ad a ad)^n ==")
for n in range(4):
    print(f"  n={n}:", weyl_power_aaa(n))
print("n=3 check:", s_quantize(weyl_power_aaa(3), 0)
      == normal_order(w.word().power(3)))

print()
print("== exponential of the Sheffer raising element ==")
for name in ("touchard", "hermite", "laguerre", "abel"):
    terms = blasiak_identity_check(catalog(name, 9), 4, 4)
    print(f"  {name:9s} exp(lambda X) normal form matches:",
          all(got == want for _, _, got, want in terms))
