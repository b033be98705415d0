"""Hsu-Shiue generalized Stirling numbers HS_{n,k}(A, B, r).

The three-parameter family is defined by connecting strided falling
factorials:

    (x + r | A)_n = sum_k HS_{n,k}(A, B, r) (x | B)_k

where (x | h)_n = x (x-h) (x-2h) ... (x-(n-1)h).  Specializations include
both kinds of Stirling numbers, binomial coefficients, and Lah-type and
Laguerre-type triangles.

Three independent computational routes are provided and cross-checked:

* a finite summation formula (valid for B != 0),
* the triangular recurrence
      HS_{n+1,k} = (r - A n + B k) HS_{n,k} + HS_{n,k-1},
  run on the integers L^(n-k) HS_{n,k}, L the lcm of the denominators of
  A, B and r, so that no cell builds a Fraction before the last step,
* the exponential Riordan pair

      d(z) = (1 + A z)^(r/A)          h(z) = ((1 + A z)^(B/A) - 1)/B

  read off from the generalized factorials (Hsu & Shiue, Adv. Appl. Math.
  20, 1998): d_n = (r | A)_n/n! and h_n = (B - A | A)_(n-1)/n!, since
  h' = (1 + A z)^((B - A)/A).  With A, B and r over their lcm L, each is
  one integer generalized factorial over L^n n!, so one formula holds for
  every (A, B), the limits A = 0 (exponentials) and B = 0 (a logarithm)
  included.

Duality: the inverse array of HS(A, B, r) is HS(B, A, -r); negating all
three parameters multiplies entries by (-1)^(n-k).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .scalars import SPoly, _rationals_over_lcm, as_spoly, falling_row
from .riordan import BivariateEGF, RiordanPair, Triangle, pair_to_egf
from .series import Series


@dataclass(frozen=True)
class HSParams:
    """The parameter triple (A, B, r), stored exactly: ints, Fractions and
    constant SPolys are read as rationals, and a float raises TypeError."""

    A: Fraction
    B: Fraction
    r: Fraction

    def __post_init__(self):
        for name in ("A", "B", "r"):
            object.__setattr__(self, name,
                               as_spoly(getattr(self, name)).as_rational())

    def dual(self) -> "HSParams":
        """Parameters of the inverse array."""
        return HSParams(self.B, self.A, -self.r)


def hs_pair(p: HSParams, N: int) -> RiordanPair:
    """The exponential Riordan pair [d, h] of HS(A, B, r), order N:
    d = (1 + A z)^(r/A) and h the integral of (1 + A z)^((B - A)/A).

    With A = a/L, B = b/L and r = rho/L over their lcm L, every coefficient
    is one integer generalized factorial over L^n n!, reduced once:

        d_n = (rho | a)_n / (L^n n!)      h_n = L (b - a | a)_(n-1) / (L^n n!)

    and h_0 = 0.  A = 0 gives exponentials, and nothing is divided by A.

    >>> print(hs_pair(HSParams(1, 2, 1), 3).second)
    z + 1/2*z^2 + O(z^4)
    """
    (a, b, rho), L = _rationals_over_lcm(p.A, p.B, p.r)
    d_num = falling_row(rho, N, a)
    h_num = [0, *falling_row(b - a, N - 1, a)]
    d, h, den = [], [], 1  # den = L^n n!
    for n in range(N + 1):
        d.append(SPoly.ratio(d_num[n], den))
        h.append(SPoly.ratio(L * h_num[n], den))
        den *= L * (n + 1)
    return RiordanPair(Series(d, N), Series(h, N))


def hs_falling_table(p: HSParams, n: int, k: int) -> list:
    """table[j][m] = (B j + r | A)_m for j <= k and m <= n: every strided
    falling factorial that the summation formula reads through cell (n, k)."""
    return [falling_row(p.B * j + p.r, n, p.A) for j in range(k + 1)]


def hs_coeff_sum(p: HSParams, n: int, k: int, table=None) -> Fraction:
    """HS_{n,k} by the finite summation formula (requires B != 0):

        (1/(B^k k!)) sum_{j=0}^{k} (-1)^(k-j) C(k,j) (B j + r | A)_n

    read from ``table``, a :func:`hs_falling_table` through at least (n, k)
    that a whole triangle can share; without one, it is built for this cell.
    """
    if p.B == 0:
        raise ValueError("summation formula requires B != 0")
    if k < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    if k > n:
        return Fraction(0)
    if table is None:
        table = hs_falling_table(p, n, k)
    acc = Fraction(0)
    for j in range(k + 1):
        term = comb(k, j) * table[j][n]
        acc += term if (k - j) % 2 == 0 else -term
    return acc / (p.B ** k * factorial(k))


def hs_triangle_rec(p: HSParams, N: int) -> Triangle:
    """The triangle through row N by the recurrence, apex 1, on integers.

    With L = lcm(den A, den B, den r), T_{n,k} = L^(n-k) HS_{n,k} is an
    integer and satisfies

        T_{n+1,k} = (r L - A L n + B L k) T_{n,k} + T_{n,k-1},

    so each cell costs two integer products and two sums, and is divided
    by L^(n-k) once, at the end.
    """
    (a, b, r), L = _rationals_over_lcm(p.A, p.B, p.r)
    rows = [[1]]
    for n in range(N):
        prev = rows[-1]
        c = r - a * n
        row = [c * prev[0]]
        row += [(c + b * k) * prev[k] + prev[k - 1] for k in range(1, n + 1)]
        row.append(prev[n])
        rows.append(row)
    powers = [L ** j for j in range(N + 1)]
    return Triangle(N, [[SPoly.ratio(t, powers[n - k])
                         for k, t in enumerate(row)]
                        for n, row in enumerate(rows)])


def hs_egf(p: HSParams, N: int) -> BivariateEGF:
    """The bivariate EGF  d(z) exp(t h(z))  expanded through z^N."""
    return pair_to_egf(hs_pair(p, N), N)


def hs_pde_residual(p: HSParams, N: int) -> BivariateEGF:
    """Residual of the characterizing PDE, exact through order N-1.

    The EGF F(t, z) of HS(A, B, r) satisfies
        (-A z - 1) dF/dz + B t dF/dt + (r + t) F = 0,
    which on the coefficients c_{n,k} of z^n t^k reads, for n < N,
        (r - A n + B k) c_{n,k} - (n+1) c_{n+1,k} + c_{n,k-1} = 0.
    """
    if N < 1:
        raise ValueError("the PDE residual needs truncation order >= 1")
    egf = hs_egf(p, N)
    rows = []
    for n in range(N):
        width = max(len(egf.zcoeffs[n]) + 1, len(egf.zcoeffs[n + 1]))
        rows.append([(p.r - p.A * n + p.B * k) * egf.coeff(n, k)
                     - (n + 1) * egf.coeff(n + 1, k)
                     + egf.coeff(n, k - 1)
                     for k in range(width)])
    return BivariateEGF(rows, N - 1)
