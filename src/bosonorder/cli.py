"""Command-line front end.

Every subcommand prints exact data (JSON or CSV) built from rational and
polynomial-in-s arithmetic, so repeated runs with the same arguments are
byte-for-byte identical.  The truncation order is --N (default 8) and
must be >= 0; power takes no truncation order.

:data:`COMMANDS` is the one list of subcommands; a new subcommand is one
handler decorated with ``@_command(name, help, *specs)``.

Exit codes:
    0   success (for ``verify``: every case passed)
    1   a verification suite reported a failing case
    2   usage error (bad flags, unknown subcommand; raised by argparse),
        or the --out FILE cannot be written
    3   data precondition violated (reported by the library as ValueError)
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from json.encoder import encode_basestring_ascii as _quote

from .scalars import as_s, parse_rational
from .riordan import CATALOG, array_coeffs, catalog, group_inverse
from .hsu_shiue import HSParams, hs_egf, hs_triangle_rec
from .two_point import TwoPointParams, two_point_egf
from .ordering import SingleAnnihilatorWord, power_symbol, s_ordered_symbol
from .verify import SUITES, run_all, run_suite, suite_passed

DEFAULT_TRUNC_ORDER = 8


def _emit(text: str, out) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(obj, pad: str = "\n") -> str:
    r"""``json.dumps(obj, indent=2)`` for dicts with str keys, lists, strs
    and ints, the only types the CLI prints; strings go through the C
    escaper, and any other type raises TypeError.  ``pad`` is the line
    break and indent of the enclosing level.

    >>> print(_json_text({"n": [1, "é"], "m": {}}))
    {
      "n": [
        1,
        "\u00e9"
      ],
      "m": {}
    }
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = pad + "  "
    if kind is list:
        if not obj:
            return "[]"
        body = [_quote(x) if type(x) is str else _json_text(x, inner)
                for x in obj]
        return "[" + inner + ("," + inner).join(body) + pad + "]"
    if kind is dict:
        if not obj:
            return "{}"
        if any(type(k) is not str for k in obj):
            raise TypeError("CLI JSON keys must be strs")
        body = [_quote(k) + ": " + (_quote(v) if type(v) is str else
                                    _json_text(v, inner))
                for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(body) + pad + "}"
    raise TypeError(f"cannot write {kind.__name__} as CLI JSON")


def _output(args, result, csv, to_json=None) -> int:
    """Write ``result`` to --out FILE or stdout: ``csv(result)`` under
    --format csv, else the JSON of ``to_json(result)`` or of
    ``result.to_json()``.  Exit code 0."""
    _emit(csv(result) if args.format == "csv" else
          _json_text(to_json(result) if to_json else result.to_json()),
          args.out)
    return 0


def _triangle_csv(tri) -> str:
    """One row per line; exact rational (or polynomial-in-s) cells."""
    return "\n".join(",".join(str(c) for c in row) for row in tri.rows) + "\n"


def _egf_csv(egf) -> str:
    """One line per z-order; cells are the t-polynomial coefficients."""
    return "\n".join(",".join(str(c) for c in row) if row else "0"
                     for row in egf.zcoeffs) + "\n"


def _table_csv(poly) -> str:
    """Lines n,m,coeff in sorted key order."""
    return "".join(f"{n},{m},{c}\n" for (n, m), c in poly.items())


def _symbol_series_csv(series) -> str:
    """Lines lambda,n,m,coeff in sorted key order."""
    out = []
    for k in range(series.order + 1):
        out.extend(f"{k},{n},{m},{c}\n" for (n, m), c in series[k].items())
    return "".join(out)


# ---------------------------------------------------------------------------
# Subcommands: each handler is registered beside its flags.
# ---------------------------------------------------------------------------

def _arg_type(name: str, parse):
    """``parse`` as an argparse type named ``name``: argparse reports bad
    input as "invalid NAME value: 'x'", taking NAME from ``__name__``."""
    def convert(text):
        return parse(text)
    convert.__name__ = name
    return convert


_rational = _arg_type("rational", parse_rational)
_ordering = _arg_type("ordering", as_s)

# Flag groups: (flag, add_argument keywords) pairs, added in this order.
_HS = (("--A", dict(type=_rational, required=True,
                    help="parameter A, a rational like 3, -1/2 or 1.5")),
       ("--B", dict(type=_rational, required=True, help="parameter B")),
       ("--r", dict(type=_rational, required=True, help="parameter r")))
_WORD = (("--L", dict(type=int, required=True,
                      help="creation operators left of the annihilator")),
         ("--R", dict(type=int, required=True,
                      help="creation operators right of the annihilator")))
_S = ("--s", dict(type=_ordering, default="symbolic",
                  help="ordering parameter: a rational (not 1e3), or one of "
                       "normal/weyl/antinormal/symbolic (default symbolic)"))
_OUTPUT = (("--format", dict(choices=("json", "csv"), default="json",
                             help="output format (default json)")),
           ("--out", dict(metavar="FILE", default=None,
                          help="write to FILE instead of stdout")))
_N = ("--N", dict(type=int, default=DEFAULT_TRUNC_ORDER, metavar="ORDER",
                  help=f"truncation order (default {DEFAULT_TRUNC_ORDER})"))

#: name -> (help, argument specs, handler), in ``bosonorder --help`` order.
COMMANDS: dict = {}


def _command(name: str, help: str, *specs):
    """Register the decorated handler in :data:`COMMANDS` as subcommand
    ``name`` with the (flag, keywords) argument ``specs``."""
    def register(fn):
        COMMANDS[name] = (help, specs, fn)
        return fn
    return register


@_command("hs-triangle", "generalized Stirling triangle HS(A, B, r)",
          *_HS, *_OUTPUT, _N)
def _cmd_hs_triangle(args) -> int:
    tri = hs_triangle_rec(HSParams(args.A, args.B, args.r), args.N)
    return _output(args, tri, _triangle_csv)


@_command("hs-egf", "bivariate EGF d(z) exp(t h(z)) of HS(A, B, r)",
          *_HS, *_OUTPUT, _N)
def _cmd_hs_egf(args) -> int:
    return _output(args, hs_egf(HSParams(args.A, args.B, args.r), args.N),
                   _egf_csv)


@_command("two-point-egf",
          "bivariate EGF of the two-point family T(A, B, r, r'; s)", *_HS,
          ("--r-prime", dict(type=_rational, required=True,
                             help="parameter r'")), _S, *_OUTPUT, _N)
def _cmd_two_point_egf(args) -> int:
    p = TwoPointParams(args.A, args.B, args.r, args.r_prime, args.s)
    return _output(args, two_point_egf(p, args.N), _egf_csv)


@_command("order", "s-ordered symbol series of exp(lambda ad^L a ad^R)",
          *_WORD, _S, *_OUTPUT, _N)
def _cmd_order(args) -> int:
    w = SingleAnnihilatorWord(args.L, args.R)
    return _output(args, s_ordered_symbol(w, args.s, args.N),
                   _symbol_series_csv)


@_command("power", "s-ordered symbol of the single power (ad^L a ad^R)^n",
          *_WORD, ("--n", dict(type=int, required=True, help="the power")),
          _S, *_OUTPUT)
def _cmd_power(args) -> int:
    w = SingleAnnihilatorWord(args.L, args.R)
    return _output(args, power_symbol(w, args.n, args.s), _table_csv)


@_command("verify", "run a verification suite and report JSON",
          ("suite", dict(choices=list(SUITES) + ["all"],
                         help="suite name, or 'all'")),
          ("--seed", dict(type=int, default=0,
                          help="seed for randomized cases (default 0)")),
          ("--out", dict(metavar="FILE", default=None,
                         help="write the report to FILE instead of stdout")))
def _cmd_verify(args) -> int:
    if args.suite == "all":
        reports = run_all(args.seed)
        ok = all(suite_passed(r) for r in reports)
    else:
        reports = run_suite(args.suite, args.seed)
        ok = suite_passed(reports)
    _emit(_json_text(reports), args.out)
    return 0 if ok else 1


@_command("catalog", "a classical Sheffer pair and its triangle",
          ("sequence", dict(choices=CATALOG)), *_OUTPUT, _N)
def _cmd_catalog(args) -> int:
    pair = catalog(args.sequence, args.N)
    tri = array_coeffs(group_inverse(pair), args.N)
    return _output(args, tri, _triangle_csv,
                   lambda tri: {"sequence": args.sequence,
                                "g": pair.first.to_json(),
                                "f": pair.second.to_json(),
                                "triangle": tri.to_json()})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and then shared.

    ``parse_args`` leaves it unchanged, and a fresh parser per call would
    cost ~2 ms and leave its subparsers and formatters as cyclic garbage.
    """
    parser = argparse.ArgumentParser(
        prog="bosonorder",
        description="Exact generalized-Stirling arrays and s-ordered "
                    "expansions of boson operators.")
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse only recognizes -1 or -1.5 as values rather than flags; no
    # flag starts with "-" and a digit or ".", so every parser passes such a
    # word on as a value ("--B -1/3", "--s -.5") and parse_rational judges it.
    rational = re.compile(r"^-[\d.]")
    parser._negative_number_matcher = rational
    for name, (text, specs, handler) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for flag, kwargs in specs:
            sp.add_argument(flag, **kwargs)
        sp._negative_number_matcher = rational
        sp.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "N", 0) < 0:
            raise ValueError("truncation order must be >= 0")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # only _emit touches the file system
        print(f"error: cannot write {args.out or 'stdout'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
