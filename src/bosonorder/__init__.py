"""bosonorder: exact ordering calculus for the single-mode boson algebra.

The package computes normally, anti-normally, Weyl-, and generally
s-ordered forms of powers and exponentials of boson words, with every
coefficient exact in Q[s].  The combinatorial backbone is the exponential
Riordan group, Sheffer sequences, the Hsu-Shiue generalized Stirling
family, and its two-point extension whose single parameter s sweeps the
whole continuum of ordering conventions.

Two independent computation stacks are maintained deliberately: a
brute-force word-rewriting oracle and the closed Riordan/EGF route.  The
``verify`` module drives them against each other; the CLI exposes both.
"""

from .scalars import S, SPoly, as_s, as_spoly, format_rational, parse_rational
from .series import Series
from .weyl import (AntiNormalForm, ClassicalPoly, NormalForm, Word,
                   anti_normal_order, convert_order, normal_order, s_quantize,
                   s_transform, weyl_quantize_monomial)
from .riordan import (BivariateEGF, RiordanPair, Triangle, array_coeffs,
                      catalog, group_inverse, group_product, identity_pair,
                      ladder_apply, pair_to_egf)
from .hsu_shiue import (HSParams, hs_coeff_sum, hs_egf, hs_pair,
                        hs_pde_residual, hs_triangle_rec)
from .two_point import (TwoPointParams, closed_form_e1, quartic_leading_coeffs,
                        quartic_residual, two_point_egf, two_point_pair)
from .ordering import (SingleAnnihilatorWord, SymbolSeries,
                       blasiak_identity_check, exp_number_closed_form,
                       laguerre_power, oracle_exponential, power_normal_form,
                       power_symbol, s_ordered_symbol, weyl_power_aaa)
from .verify import SUITES, run_all, run_suite, suite_passed

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
