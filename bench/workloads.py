"""The benchmark's workloads: seeded input generators, operations and checks.

Each generator draws from random.Random(f"<workload>:<seed>"), so one seed
always gives the same inputs.  Inputs are plain text; the library receives
them only through its public parsers, as a user of the CLI would type them.
A workload yields its inputs in rounds.  Every round has the same mix of
operation kinds, and runs are measured in whole rounds, so the share of
cheap and expensive operations does not depend on where a run stops.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from tracing import NULL

Op = tuple  # (kind, *text arguments)


@dataclass
class Outcome:
    text: str      # what a user sees: str(verdict), a report, a deduction
    verdict: str   # holds, fails, unknown, found, none, exhausted, pass, ...
    work: int = 1  # units counted by ops_per_s


def _word(rng: random.Random, alphabet, length: int) -> list[str]:
    return [rng.choice(alphabet) for _ in range(length)]


def _edit(rng: random.Random, w: list[str], kind: str) -> list[str]:
    """One seeded change of a word, given as a list of letter texts."""
    w = list(w)
    n = len(w)
    if kind == "swap":
        spots = [i for i in range(n - 1) if w[i] != w[i + 1]]
        if spots:
            i = rng.choice(spots)
            w[i], w[i + 1] = w[i + 1], w[i]
    elif kind == "swaps":
        for _ in range(rng.randint(2, 3)):
            w = _edit(rng, w, "swap")
    elif kind == "move":
        letter = w.pop(rng.randrange(n))
        w.insert(rng.randrange(n), letter)
    elif kind == "dup":
        w.insert(rng.randrange(n + 1), w[rng.randrange(n)])
    elif kind == "drop":
        spots = [i for i in range(n) if w.count(w[i]) > 1]
        if spots:
            del w[rng.choice(spots)]
    elif kind == "reclass":
        # a repeated letter becomes simple, or a simple one repeated
        letter = rng.choice(w)
        if w.count(letter) == 1:
            w.insert(rng.randrange(n + 1), letter)
        else:
            keep = rng.choice([i for i in range(n) if w[i] == letter])
            w = [l for i, l in enumerate(w) if l != letter or i == keep]
    elif kind == "rename":
        letters = sorted(set(w))
        if len(letters) > 1:
            a, b = rng.sample(letters, 2)
            w = [b if l == a else a if l == b else l for l in w]
    return w


def _identity_text(u, v) -> str:
    return f"{''.join(map(str, u))} = {''.join(map(str, v))}"


class Workload:
    name = ""
    op = ""                  # what one operation is
    unit = "ops"             # what ops_per_s counts
    seeded = True            # False when the input does not depend on the seed
    fresh_library = False    # re-import the library before every operation
    rss_rounds = 1           # peak_rss_mb is read after this many rounds

    def rounds(self, lib, seed: int, tr=NULL) -> Iterator[list[Op]]:
        raise NotImplementedError

    def parse_check(self, lib, ops: list[Op]) -> None:
        """Parse every text input once, so a bad input fails in set-up."""

    def run(self, lib, op: Op, tr) -> Outcome:
        raise NotImplementedError

    def check(self, lib, op: Op, out: Outcome) -> Optional[str]:
        """A check that needs no recorded reference; a message on mismatch."""
        return None

    def probe(self, lib, ops: list[Op], tr) -> dict:
        """Per-layer calls on the first round, outside the timed operations."""
        return {}


# ------------------------------------------------------------ chain_sweep

class ChainSweep(Workload):
    name = "chain_sweep"
    op = ("verify_chain(kmax, letters, max_len, cross_check=2000) on a "
          "freshly imported library; a round sweeps each of nine sizes once "
          "and the largest three times")
    unit = "pairs"
    seeded = False
    fresh_library = True
    # (kmax, letters, max_len), from 1560 to 16002 ordered pairs.  Sizes
    # whose run times spread evenly over a ratio of about five keep the
    # latency percentiles from jumping between the fast and slow states of
    # a shared machine, as a single repeated size would.  A round has an
    # odd number of sweeps, so the median falls among the runs of the
    # middle sizes, (3, 3, 4) and (4, 3, 4), which take the same time, and
    # not between the slowest runs of one size and the fastest of the
    # next.  The largest size, which takes about three times as long as
    # the middle ones, is swept three times per round: a run of about
    # seven rounds then has some twenty of these sweeps, and the tail (the
    # eleventh slowest sweep) is one from the middle of them, not one of
    # the few slowest sweeps of the next size.
    SIZES = ((3, 3, 3), (1, 3, 4), (2, 3, 4), (3, 2, 5), (3, 3, 4),
             (4, 3, 4), (2, 2, 6), (3, 2, 6)) + ((4, 2, 6),) * 3
    PROBE = (3, 3, 4)   # the size whose words the per-layer probes use

    def rounds(self, lib, seed, tr=NULL):
        while True:
            yield [("verify_chain",) + tuple(map(str, size)) + ("2000",)
                   for size in self.SIZES]

    def run(self, lib, op, tr):
        kmax, letters, max_len, cross = map(int, op[1:])
        with tr.span("deciders.verify_chain"):
            report = lib.deciders.verify_chain(kmax, letters, max_len, cross)
        text = (f"words: {report.words}; pairs: {report.pairs}; compared: "
                f"{report.compared}; violations: {len(report.violations)}; "
                f"witness-failures: {len(report.witness_failures)}")
        return Outcome(text, "pass" if report.ok else "fail", report.pairs)

    def check(self, lib, op, out):
        if out.verdict != "pass":
            return f"chain sweep reports a violation: {out.text}"
        return None

    def probe(self, lib, ops, tr):
        kmax, letters, max_len = self.PROBE
        alphabet = tuple(lib.words.Letter(b) for b in "xyz"[:letters])
        words = list(lib.words.iter_words(alphabet, max_len))
        # verify_chain compares both words' class keys for every ordered
        # pair in its cross-check loop, so the probe does the same
        with tr.span("words.class_key"):
            for u in words:
                for v in words:
                    if u is not v:
                        (u.simple(), u.multiple()) == (v.simple(), v.multiple())
        keys = [(w.simple(), w.multiple()) for w in words]
        lib.decomposition.profile.cache_clear()
        for w in words:
            with tr.span("decomposition.profile"):
                lib.decomposition.profile(w).depth_profile()
        groups: dict = {}
        for w, key in zip(words, keys):
            groups.setdefault(key, []).append(w)
        for group in groups.values():
            for u in group:
                for v in group:
                    if u is not v:
                        with tr.span("deciders.chain_bits"):
                            lib.deciders.chain_bits(u, v, kmax)
        return {}


# ----------------------------------------------------------- claim_decide

_CLAIM_LETTERS = ("x", "y", "z", "t", "s", "u", "x1", "y1", "z1")
_CLAIM_EDITS = ("swap", "swaps", "move", "dup", "drop", "reclass", "rename")
_CLAIM_WEIGHTS = (1, 1, 1, 1, 1, 3, 1)


class ClaimDecide(Workload):
    name = "claim_decide"
    op = ("parse_variety + parse_identity + decide + str(verdict), in a "
          "claim-decided variety of chain_of(3), K or a dual")
    ROUND = 2000   # operations per round; two of them use long catalog words
    # each round adds about 18 MB of cached profiles until the profile
    # cache is full, after about 18 rounds; a run reads its peak memory
    # after a fixed number of rounds, so it does not grow with the host's
    # or the library's speed
    rss_rounds = 8
    LONG_AT = (666, 1333)

    def rounds(self, lib, seed, tr=NULL):
        rng = random.Random(f"{self.name}:{seed}")
        varieties = [v.name for v in lib.deciders.chain_of(3)] + ["K"]
        # T and SL decide a delta word without profiling it, and so does
        # every dual, since a reversed delta word is cheap to profile.  The
        # others take 0.15 to 0.3 s on it; they take turns, round by round,
        # so that every run decides delta words in the same mix of them.
        deep = itertools.cycle(v for v in varieties if v not in ("T", "SL"))
        while True:
            ops = []
            for i in range(self.ROUND):
                if i == self.LONG_AT[0]:
                    variety = next(deep)
                    text = self._long(lib, rng, True, tr)
                else:
                    variety = rng.choice(varieties)
                    if rng.random() < 0.3:
                        variety += "~"
                    if i in self.LONG_AT:
                        text = self._long(lib, rng, False, tr)
                    else:
                        text = self._short(rng)
                ops.append(("decide", variety, text))
            yield ops

    def _short(self, rng):
        alphabet = rng.sample(_CLAIM_LETTERS, rng.randint(3, 6))
        u = _word(rng, alphabet, rng.randint(6, 20))
        kind = rng.choices(_CLAIM_EDITS, _CLAIM_WEIGHTS)[0]
        return _identity_text(u, _edit(rng, u, kind))

    def _long(self, lib, rng, use_delta, tr):
        """delta(90, m), 185 letters, or a w_family word of 122 to 242
        letters.  Profiling grows with the cube of the length.  Every round
        decides one delta word in a variety that profiles it (about 0.2 s),
        so these operations set the tail, and as their length and number
        are fixed, the tail does not depend on the seed."""
        cat = lib.catalog
        with tr.span("catalog.build"):
            if use_delta:
                ident = cat.delta(90, rng.randint(1, 90))
                u, v = list(ident.lhs), list(ident.rhs)
            else:
                n = rng.randint(20, 40)
                perm = lambda: rng.sample(range(1, n + 1), n)
                u = list(cat.w_family(n, perm(), perm()))
                v = list(cat.w_family(n, perm(), perm()))
        if rng.random() < 0.5:
            v = _edit(rng, u, rng.choice(_CLAIM_EDITS))
        return _identity_text(u, v)

    def parse_check(self, lib, ops):
        for _, variety, text in ops:
            lib.deciders.parse_variety(variety)
            lib.words.parse_identity(text)

    def run(self, lib, op, tr):
        _, variety, text = op
        v = lib.deciders.parse_variety(variety)
        with tr.span("words.parse"):
            ident = lib.words.parse_identity(text)
        with tr.span("deciders.decide"):
            verdict = lib.deciders.decide(v, ident)
        return Outcome(str(verdict), "holds" if verdict.holds else "fails")

    def check(self, lib, op, out):
        d = lib.deciders
        v = d.parse_variety(op[1])
        ident = lib.words.parse_identity(op[2])
        dual = d.decide(v.dualized, ident.reverse())
        if str(dual) != out.text:
            return f"{v.dualized} on the reversed identity says {dual}"
        holds = out.verdict == "holds"
        if v.family == "C" and v.k == 2 and d.structural_c(2, ident) != holds:
            return "C2 disagrees with structural_c(2)"
        chain = d.chain_of(3)
        bits = [d.decide(c, ident).holds for c in chain]
        for small, large, a, b in zip(chain, chain[1:], bits, bits[1:]):
            if b and not a:
                return f"accepted by {large} but not by {small}"
        return None

    def probe(self, lib, ops, tr):
        idents = [(lib.deciders.parse_variety(v), lib.words.parse_identity(t))
                  for _, v, t in ops]
        words = {w for _, ident in idents for w in (ident.lhs, ident.rhs)}
        profile = lib.decomposition.profile
        profile.cache_clear()
        for w in sorted(words, key=len):
            name = "decomposition.deep_profile" if len(w) > 100 else \
                "decomposition.profile"
            with tr.span(name):
                profile(w).depth_profile()
        for v, ident in idents:
            with tr.span("deciders.decide_warm"):
                lib.deciders.decide(v, ident)
        return {}


# ---------------------------------------------------------- oracle_decide

_ORACLE_VARIETIES = {"C3": 4, "C4": 4, "D2": 4, "D3": 3, "L": 3, "M": 3}
_SMALL_MONOIDS = ("P1", "B21", "K5")
_ISOTERM_MONOIDS = ("S(x)", "S(xx)", "S(xy)", "S(xyx)", "S(xxy)")
SIGMA1 = "xyzxty = yxzxty"


class OracleDecide(Workload):
    name = "oracle_decide"
    op = ("decide in C3, C4, D2, D3, L, M or a dual, find_violation in P1, "
          "B21 or K5, isoterm_search, or semi_decide_d; every round also "
          "decides sigma1 three times in L or L~ and runs "
          "semi_decide_d(sigma1, k=3)")
    # One slot per operation of a round: kind, then what the seed may not
    # change (variety or monoid, number of letters).  Seeded identities use
    # at most 3 letters in the 15- and 21-element quotients, so every
    # seeded operation stays cheap and the fixed sigma1 operations carry
    # the 4-letter work and set the tail.
    SLOTS = ([("decide", v, n) for v, top in _ORACLE_VARIETIES.items()
              for n in range(2, top + 1)] * 2
             + [("check", m, n) for m in _SMALL_MONOIDS for n in (2, 3, 4)]
             + [("isoterm", 1), ("isoterm", 2), ("semi", 2), ("semi", 2)]) * 6
    FIXED = [("decide", "L", SIGMA1), ("decide", "L~", SIGMA1),
             ("decide", "L", SIGMA1), ("semi", SIGMA1, "3")]

    def rounds(self, lib, seed, tr=NULL):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            ops = list(self.FIXED)
            for kind, *fixed in self.SLOTS:
                ops.append(getattr(self, f"_{kind}")(rng, *fixed))
            yield ops

    def _identity(self, rng, letters: int) -> str:
        alphabet = ["x", "y", "z", "t"][:letters]
        while True:
            u = _word(rng, alphabet, rng.randint(letters + 1, 8))
            if len(set(u)) == letters:
                break
        kind = rng.choices(_CLAIM_EDITS, _CLAIM_WEIGHTS)[0]
        return _identity_text(u, _edit(rng, u, kind))

    def _decide(self, rng, variety, letters):
        text = self._identity(rng, letters)
        if rng.random() < 0.3:
            variety += "~"
        return ("decide", variety, text)

    def _check(self, rng, monoid, letters):
        return ("check", monoid, self._identity(rng, letters))

    def _isoterm(self, rng, letters):
        w = _word(rng, ["x", "y"][:letters], rng.randint(letters, 4))
        bound = max(w.count(l) for l in w) + 1
        return ("isoterm", "".join(w), rng.choice(_ISOTERM_MONOIDS), str(bound))

    def _semi(self, rng, letters):
        return ("semi", self._identity(rng, letters), "5")

    def parse_check(self, lib, ops):
        for op in ops:
            if op[0] == "isoterm":
                lib.words.parse_word(op[1])
                lib.monoids.named_monoid(op[2])
            elif op[0] == "semi":
                lib.words.parse_identity(op[1])
            else:
                lib.words.parse_identity(op[2])
                if op[0] == "decide":
                    lib.deciders.parse_variety(op[1])
                else:
                    lib.monoids.named_monoid(op[1])

    def run(self, lib, op, tr):
        kind = op[0]
        if kind == "decide":
            v = lib.deciders.parse_variety(op[1])
            with tr.span("words.parse"):
                ident = lib.words.parse_identity(op[2])
            with tr.span("deciders.decide"):
                verdict = lib.deciders.decide(v, ident)
            return Outcome(str(verdict), "holds" if verdict.holds else "fails")
        if kind == "check":
            monoid = lib.monoids.named_monoid(op[1])
            with tr.span("words.parse"):
                ident = lib.words.parse_identity(op[2])
            with tr.span("monoids.find_violation"):
                hit = monoid.find_violation(ident)
            if hit is None:
                return Outcome(f"holds in {monoid.name}", "holds")
            return Outcome(f"fails in {monoid.name} under "
                           f"{monoid.describe_assignment(hit)}", "fails")
        if kind == "isoterm":
            w = lib.words.parse_word(op[1])
            monoid = lib.monoids.named_monoid(op[2])
            with tr.span("monoids.isoterm"):
                hit = lib.monoids.isoterm_search(w, monoid, bound=int(op[3]))
            if hit is None:
                return Outcome("none within bound", "none")
            return Outcome(f"found: {w} = {hit}", "found")
        with tr.span("words.parse"):
            ident = lib.words.parse_identity(op[1])
        with tr.span("deciders.semi_decide_d"):
            answer = lib.deciders.semi_decide_d(ident, k=int(op[2]))
        return Outcome(answer, answer)

    def check(self, lib, op, out):
        d, m, parse = lib.deciders, lib.monoids, lib.words.parse_identity
        kind = op[0]
        if kind == "decide":
            v = d.parse_variety(op[1])
            ident = parse(op[2])
            if v.family == "C" and d.structural_c(v.k, ident) != (
                    out.verdict == "holds"):
                return f"{v} disagrees with structural_c({v.k})"
            if v.dual:
                base = d.decide(v.base, ident.reverse())
                if str(base) != out.text:
                    return f"{v.base} on the reversed identity says {base}"
        elif kind == "check" and out.verdict == "fails":
            monoid = m.named_monoid(op[1])
            ident = parse(op[2])
            hit = monoid.find_violation(ident)
            if monoid.evaluate(ident.lhs, hit) == monoid.evaluate(ident.rhs, hit):
                return "the reported assignment does not separate the sides"
        elif kind == "isoterm" and out.verdict == "found":
            w = lib.words.parse_word(op[1])
            other = lib.words.parse_word(out.text.split(" = ")[1])
            ident = lib.words.Identity(w, other)
            if not m.named_monoid(op[2]).satisfies(ident, max_letters=4):
                return f"{op[2]} does not satisfy {ident}"
        elif kind == "semi" and out.verdict == "holds":
            ident = parse(op[1])
            for j in range(1, 6):
                oracle = m.rees_quotient(lib.catalog.d_oracle_word(j))
                if oracle.find_violation(ident) is not None:
                    return f"holds, but {oracle.name} refutes it"
        return None

    @staticmethod
    def _oracle_words(cat) -> dict:
        return {"C3": cat.c_oracle_word(3), "C4": cat.c_oracle_word(4),
                "D2": cat.d_oracle_word(2), "D3": cat.d_oracle_word(3),
                "L": cat.ORACLE_WORD_L, "M": cat.ORACLE_WORD_M}

    def assignments_bound(self, lib, ops) -> int:
        """Sum of |S|^n over the round's brute-force checks, n the number
        of letters; semi_decide_d counts B21 and each D_j oracle it may try.
        isoterm_search is left out: its candidate count depends on the
        prescreen."""
        cat, m = lib.catalog, lib.monoids
        oracle = self._oracle_words(cat)
        total = 0
        for op in ops:
            if op[0] == "decide":
                n = len(lib.words.parse_identity(op[2]).content())
                total += len(m.rees_quotient(oracle[op[1].rstrip("~")])) ** n
            elif op[0] == "check":
                n = len(lib.words.parse_identity(op[2]).content())
                total += len(m.named_monoid(op[1])) ** n
            elif op[0] == "semi":
                n = len(lib.words.parse_identity(op[1]).content())
                sizes = [len(m.b21())] + [
                    len(m.rees_quotient(cat.d_oracle_word(j)))
                    for j in range(1, int(op[2]) + 1)]
                total += sum(s ** n for s in sizes)
        return total

    def probe(self, lib, ops, tr):
        """Cold construction of every quotient the workload evaluates in."""
        cat = lib.catalog
        words = list(self._oracle_words(cat).values())
        words += [cat.d_oracle_word(j) for j in range(1, 6)]
        words += [lib.words.parse_word(name[2:-1]) for name in _ISOTERM_MONOIDS]
        lib.monoids.rees_quotient.cache_clear()
        elements = 0
        for w in dict.fromkeys(words):
            with tr.span("monoids.build"):
                elements += len(lib.monoids.rees_quotient(w))
        return {"monoids.elements": elements,
                "monoids.assignments_bound": self.assignments_bound(lib, ops)}


# ----------------------------------------------------------------- derive

_SYSTEMS = ("phi", "phi+", "sigma")


class Derive(Workload):
    name = "derive"
    op = ("bounded_derive over phi, phi+ or sigma, or a check_deduction "
          "replay of jkk_deduction(k) with a format/parse round trip")
    FOUND, EXHAUSTED = 4, 2   # goals of each kind per system and round
    MAX_FOUND_LEN = 8

    def rounds(self, lib, seed, tr=NULL):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            ops = [("replay", str(rng.randint(2, 9)))]
            for system in _SYSTEMS:
                ops += [self._found(lib, rng, system, tr)
                        for _ in range(self.FOUND)]
                ops += [self._exhausted(rng, system)
                        for _ in range(self.EXHAUSTED)]
            yield ops

    def _found(self, lib, rng, system, tr):
        """One application of a system identity: derivable in one step."""
        with tr.span("catalog.build"):
            idents = lib.catalog.identity_system(system)
        alphabet = ["x", "y", "z"][:rng.randint(2, 3)]
        while True:
            ident = rng.choice(idents)
            s, t = (ident.lhs, ident.rhs)
            if rng.random() < 0.5:
                s, t = t, s
            xi = {str(l): _word(rng, alphabet, rng.choice((1, 1, 1, 2)))
                  for l in sorted(ident.content(), key=str)}
            a = _word(rng, alphabet, rng.randint(0, 1))
            b = _word(rng, alphabet, rng.randint(0, 1))
            u = a + [x for l in s for x in xi[str(l)]] + b
            v = a + [x for l in t for x in xi[str(l)]] + b
            if u != v and max(len(u), len(v)) <= self.MAX_FOUND_LEN:
                break
        max_len = max(len(u), len(v)) + 1
        return ("derive", system, _identity_text(u, v), str(max_len), "2",
                "found")

    def _exhausted(self, rng, system):
        """Change one letter's class between simple and repeated.  Every
        system here preserves each letter's occurrence count capped at 2,
        so no derivation exists and the search must exhaust its bounds."""
        alphabet = ["x", "y", "z"][:rng.randint(2, 3)]
        u = _word(rng, alphabet, 5)
        v = _edit(rng, u, "reclass")
        max_len = max(len(u), len(v)) + 1
        return ("derive", system, _identity_text(u, v), str(max_len), "2",
                "exhausted")

    def parse_check(self, lib, ops):
        for op in ops:
            if op[0] == "derive":
                lib.catalog.identity_system(op[1])
                lib.words.parse_identity(op[2])

    def run(self, lib, op, tr):
        ded = lib.deduction
        if op[0] == "replay":
            chain = ded.jkk_deduction(int(op[1]))
            with tr.span("deduction.check"):
                report = ded.check_deduction(chain)
            with tr.span("deduction.roundtrip"):
                same = ded.parse_deduction(ded.format_deduction(chain)) == chain
            text = (f"replay {'ok' if report.ok else 'fail'}: {len(chain)} "
                    f"steps; round trip {'equal' if same else 'differs'}")
            return Outcome(text, "pass" if report.ok and same else "fail")
        _, system, goal, max_len, max_steps, expect = op
        idents = lib.catalog.identity_system(system)
        with tr.span("words.parse"):
            ident = lib.words.parse_identity(goal)
        with tr.span(f"deduction.derive_{expect}"):
            found = ded.bounded_derive(idents, ident, int(max_len),
                                       int(max_steps))
        if found is None:
            return Outcome("inconclusive", "exhausted")
        return Outcome(ded.format_deduction(found), "found")

    def check(self, lib, op, out):
        if op[0] == "replay":
            return None if out.verdict == "pass" else out.text
        if out.verdict != op[-1]:
            return f"expected {op[-1]}, got {out.verdict}"
        if out.verdict == "found":
            ded = lib.deduction
            chain = ded.parse_deduction(out.text)
            goal = lib.words.parse_identity(op[2])
            if not ded.check_deduction(chain).ok:
                return "the derivation does not replay"
            if (chain.start, chain.end) != (goal.lhs, goal.rhs):
                return "the derivation has other endpoints than the goal"
        return None


WORKLOADS = {w.name: w for w in (ChainSweep(), ClaimDecide(), OracleDecide(),
                                 Derive())}
