"""Seeded operation lists for the three benchmark workloads.

An operation ("op") is one request a client makes of bosonorder: an
in-process ``cli.main`` call for the closed route, or one call of the
rewriting oracle.  Each workload is a list of *rounds*.  A round is a fixed
multiset of size slots; the seed fills every slot (which word, which op
kind, which ordering parameter, which random rationals) and shuffles the
round.  Within each size stratum, words, kinds and orderings are dealt from
seeded decks that cycle through every choice, so all seeds give nearly the
same mix and cost profile, and percentiles land on the same strata from run
to run.

Run ``python3 bench/workloads.py --seed 0`` to print the input profile of
each workload.
"""

from __future__ import annotations

import argparse
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("symbolic-order", "numeric-order", "rewrite")

#: Op kinds that go through ``cli.main``; the rest call the oracle directly.
CLI_KINDS = ("order", "power", "two-point-egf", "hs-egf", "hs-triangle")
CLOSED_KINDS = ("order", "power", "two-point-egf")
WORD_KINDS = ("normal_order", "anti_normal_order")
SYMBOL_KINDS = ("s_quantize", "convert_order")

#: Every single-annihilator word ad^L a ad^R with 1 <= L+R <= 4.
WORDS = tuple((L, t - L) for t in range(1, 5) for L in range(t, -1, -1))
#: The words the rewrite workload raises to powers (1 <= L+R <= 3).
POWER_WORDS = tuple(w for w in WORDS if sum(w) <= 3)

#: Size strata of one round: {size: slots}.  The counts put the median and
#: the 90th percentile of latency in the middle of a stratum.
SYMBOLIC_N = {4: 2, 5: 2, 6: 2, 7: 2, 8: 4, 9: 3, 10: 2, 11: 3, 12: 1}
NUMERIC_CLOSED_N = {10: 2, 12: 2, 14: 2, 18: 2, 20: 4}
NUMERIC_HS_N = {10: 2, 14: 2, 18: 2, 24: 2}
REWRITE_POWER_N = {5: 2, 6: 1, 8: 2, 10: 3}
REWRITE_WORD_SLOTS = 8
REWRITE_SYMBOL_SLOTS = 4

NAMED_S = ("normal", "weyl", "antinormal")

#: Rounds the profile printer covers: about one symbolic-order run.
PROFILE_ROUNDS = 5


@dataclass(frozen=True)
class Op:
    """One request.

    ``size`` is the truncation order for ``order``, ``two-point-egf``,
    ``hs-egf`` and ``hs-triangle``, the power n for ``power`` and for a
    power of a single-annihilator word, the letter count of any other word,
    and the total degree of a symbol.  ``L``/``R`` name the single-
    annihilator word, if the op has one.  ``args`` is the CLI argument list
    for CLI kinds, ``(letters,)`` for word kinds and ``(terms,)`` for
    symbol kinds, with terms ``((n, m, "p/q"), ...)``.  ``s`` is the
    ordering parameter and ``s_to`` the target of ``convert_order``.
    """

    kind: str
    size: int
    args: tuple
    s: str = ""
    s_to: str = ""
    L: int = -1
    R: int = -1

    @property
    def excess(self):
        return self.L + self.R - 1 if self.L >= 0 else None

    @property
    def symbolic(self) -> bool:
        return "symbolic" in (self.s, self.s_to)


class _Deck:
    """Deals items of a fixed tuple in seeded random order, reshuffling
    after every full pass, so each item appears equally often."""

    def __init__(self, items, rng: random.Random):
        self.items = tuple(items)
        self.rng = rng
        self.pending: list = []

    def deal(self):
        if not self.pending:
            self.pending = list(self.items)
            self.rng.shuffle(self.pending)
        return self.pending.pop()


def _rational(rng: random.Random, num: int, den: int, nonzero=False) -> str:
    while True:
        q = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if q or not nonzero:
            return str(q)


def _random_s(rng: random.Random) -> str:
    """A random ordering parameter strictly between -1 and 1, not 0."""
    while True:
        den = rng.randint(2, 12)
        q = Fraction(rng.randint(-den + 1, den - 1), den)
        if q:
            return str(q)


def _closed_op(kind: str, word, N: int, s: str) -> Op:
    L, R = word
    if kind == "two-point-egf":
        argv = ("two-point-egf", "--A", str(L + R - 1), "--B", "1",
                "--r", str(-L), "--r-prime", str(R), "--s", s, "--N", str(N))
    elif kind == "power":
        argv = ("power", "--L", str(L), "--R", str(R), "--n", str(N),
                "--s", s)
    else:
        argv = ("order", "--L", str(L), "--R", str(R), "--s", s,
                "--N", str(N))
    return Op(kind, N, argv, s, L=L, R=R)


def _hs_op(kind: str, N: int, rng: random.Random) -> Op:
    A = _rational(rng, 4, 3)
    B = _rational(rng, 4, 3, nonzero=kind == "hs-triangle")
    r = _rational(rng, 6, 4)
    return Op(kind, N, (kind, "--A", A, "--B", B, "--r", r, "--N", str(N)))


def _slots(strata: dict) -> list:
    return [size for size, count in sorted(strata.items())
            for _ in range(count)]


def _decks(strata: dict, items, rng: random.Random) -> dict:
    """One deck per size stratum, so every stratum sees a balanced mix."""
    return {size: _Deck(items, rng) for size in sorted(strata)}


def _symbolic_rounds(rng: random.Random, rounds: int, strata: dict) -> list:
    words = _decks(strata, WORDS, rng)
    kinds = _decks(strata, CLOSED_KINDS, rng)
    out = []
    for _ in range(rounds):
        rnd = [_closed_op(kinds[N].deal(), words[N].deal(), N, "symbolic")
               for N in _slots(strata)]
        rng.shuffle(rnd)
        out.append(rnd)
    return out


def _numeric_rounds(rng: random.Random, rounds: int, strata: dict,
                    hs_strata: dict) -> list:
    words = _decks(strata, WORDS, rng)
    kinds = _decks(strata, CLOSED_KINDS, rng)
    orderings = _decks(strata, NAMED_S + ("p/q",), rng)
    hs_kinds = _decks(hs_strata, ("hs-egf", "hs-triangle"), rng)
    out = []
    for _ in range(rounds):
        rnd = []
        for N in _slots(strata):
            s = orderings[N].deal()
            if s == "p/q":
                s = _random_s(rng)
            rnd.append(_closed_op(kinds[N].deal(), words[N].deal(), N, s))
        rnd.extend(_hs_op(hs_kinds[N].deal(), N, rng)
                   for N in _slots(hs_strata))
        rng.shuffle(rnd)
        out.append(rnd)
    return out


def _random_word(rng: random.Random) -> str:
    """A word of 20 letters, 7 of them annihilators at random places."""
    pos = set(rng.sample(range(20), 7))
    return "".join("a" if i in pos else "c" for i in range(20))


def _random_symbol(rng: random.Random) -> tuple:
    """Six monomials x*^n x^m of degree <= 8 each, with rational weights."""
    return tuple((rng.randint(0, 8), rng.randint(0, 8),
                  _rational(rng, 9, 9, nonzero=True)) for _ in range(6))


def _rewrite_rounds(rng: random.Random, rounds: int, strata: dict,
                    word_slots: int, symbol_slots: int) -> list:
    words = _decks(strata, POWER_WORDS, rng)
    kinds = _decks(strata, WORD_KINDS, rng)
    word_kinds = _Deck(WORD_KINDS, rng)
    sym_kinds = _Deck(SYMBOL_KINDS, rng)
    orderings = _Deck(NAMED_S + ("p/q", "symbolic"), rng)

    def ordering():
        s = orderings.deal()
        return _random_s(rng) if s == "p/q" else s

    out = []
    for _ in range(rounds):
        rnd = []
        for n in _slots(strata):
            L, R = words[n].deal()
            letters = ("c" * L + "a" + "c" * R) * n
            rnd.append(Op(kinds[n].deal(), n, (letters,), L=L, R=R))
        for _ in range(word_slots):
            letters = _random_word(rng)
            rnd.append(Op(word_kinds.deal(), len(letters), (letters,)))
        for _ in range(symbol_slots):
            terms = _random_symbol(rng)
            kind = sym_kinds.deal()
            s, s_to = ordering(), ordering() if kind == "convert_order" else ""
            degree = max(n + m for n, m, _ in terms)
            rnd.append(Op(kind, degree, (terms,), s, s_to))
        rng.shuffle(rnd)
        out.append(rnd)
    return out


def make_rounds(workload: str, seed: int, rounds: int,
                toy: bool = False) -> list:
    """The first ``rounds`` rounds of a workload, as lists of ops.

    ``toy`` shrinks every size stratum to a few small sizes, for the
    warm-up and the self-test.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "symbolic-order":
        return _symbolic_rounds(rng, rounds, {3: 2, 4: 1} if toy
                                else SYMBOLIC_N)
    if workload == "numeric-order":
        if toy:
            return _numeric_rounds(rng, rounds, {4: 2, 5: 2}, {3: 1, 5: 1})
        return _numeric_rounds(rng, rounds, NUMERIC_CLOSED_N, NUMERIC_HS_N)
    if workload == "rewrite":
        if toy:
            return _rewrite_rounds(rng, rounds, {2: 1, 3: 1}, 1, 2)
        return _rewrite_rounds(rng, rounds, REWRITE_POWER_N,
                               REWRITE_WORD_SLOTS, REWRITE_SYMBOL_SLOTS)
    raise ValueError(f"unknown workload {workload!r}")


def profile(ops) -> dict:
    """The input profile of a list of ops: kind mix, size and excess
    histograms, and the share of ops at symbolic s."""
    ops = list(ops)
    n = len(ops)
    kinds = Counter(op.kind for op in ops)
    sizes = Counter(op.size for op in ops)
    excess = Counter(op.excess for op in ops if op.excess is not None)
    return {
        "ops": n,
        "kind_share": {k: round(v / n, 4) for k, v in sorted(kinds.items())},
        "size_hist": {str(k): v for k, v in sorted(sizes.items())},
        "excess_hist": {str(k): v for k, v in sorted(excess.items())},
        "symbolic_s_share": round(sum(op.symbolic for op in ops) / n, 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Print the input profile of each benchmark workload.")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    out = {}
    for w in WORKLOADS:
        rounds = make_rounds(w, args.seed, PROFILE_ROUNDS)
        prof = profile(op for rnd in rounds for op in rnd)
        prof["ops_per_round"] = len(rounds[0])
        out[w] = prof
    print(json.dumps({"seed": args.seed, "rounds": PROFILE_ROUNDS,
                      "workloads": out}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
