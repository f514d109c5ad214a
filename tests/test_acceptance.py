"""Acceptance gate: one test per numbered criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. Each
test prints its verdict before asserting, so failures still carry the
criterion line and the witness.
"""

import math
import random
import time

from test_catalog import (
    expected_alpha,
    expected_beta,
    expected_delta,
    expected_gamma,
)

from monovar.catalog import alpha, beta, delta, gamma, jkk_basis
from monovar.cli import main
from monovar.deciders import decide, parse_variety, structural_c, verify_chain
from monovar.decomposition import decompose, profile, render_depths
from monovar.deduction import check_deduction, jkk_deduction
from monovar.monoids import isoterm_search, k5, p1, rees_quotient
from monovar.words import Identity, Letter, Word, iter_words, parse_word

V = parse_variety
RUNNING_EXAMPLE = parse_word("xyxzytszxs")

# h_i^k values for the running example; rows (letter, i), columns k=0..3
RESTRICTOR_GRID = {
    ("x", 1): ("λ", "λ", "λ", "λ"),
    ("x", 2): ("λ", "λ", "y", "y"),
    ("x", 3): ("t", "t", "t", "t"),
    ("y", 1): ("λ", "λ", "λ", "x"),
    ("y", 2): ("λ", "z", "z", "z"),
    ("z", 1): ("λ", "λ", "y", "y"),
    ("z", 2): ("t", "t", "t", "t"),
    ("t", 1): ("λ", "z", "z", "z"),
    ("s", 1): ("t", "t", "t", "t"),
    ("s", 2): ("t", "t", "t", "t"),
}


def verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    line = f"criterion {number:>2}: {status} {label}{tail}"
    print(line)
    assert ok, line


def test_criterion_01_restrictor_table(capsys):
    started = time.perf_counter()
    code = main(["restrictors", str(RUNNING_EXAMPLE)])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    grid = {}
    for row in out.splitlines()[3:]:
        cells = row.split()
        grid[(cells[0], int(cells[1]))] = tuple(cells[2:])
    mismatches = [key for key, want in RESTRICTOR_GRID.items()
                  if grid.get(key) != want]
    with capsys.disabled():
        verdict(1, "restrictor grid matches the reference table",
                code == 0 and not mismatches and elapsed < 1.0,
                f"{len(RESTRICTOR_GRID) * 4} cells, {elapsed:.3f}s"
                + (f", wrong: {mismatches}" if mismatches else ""))


def test_criterion_02_example_decompositions():
    expected = {
        0: "λ·[xyxzy]·t·[szxs]",
        1: "λ·[xyx]·z·[y]·t·[szxs]",
        2: "λ·[x]·y·[x]·z·[y]·t·[szxs]",
        3: "λ·[λ]·x·[λ]·y·[x]·z·[y]·t·[szxs]",
    }
    got = {k: decompose(RUNNING_EXAMPLE, k).render() for k in expected}
    verdict(2, "running-example decompositions at k=0..3 match",
            got == expected,
            "; ".join(f"k={k}" for k in expected))


def test_criterion_03_example_depths():
    got = render_depths(RUNNING_EXAMPLE)
    verdict(3, "running-example depth profile matches",
            got == "x:3 y:2 z:1 s:inf t:0", got)


def test_criterion_04_identity_side_decompositions():
    started = time.perf_counter()
    mismatches = []
    for k in (2, 3):
        for side in ("lhs", "rhs"):
            pairs = [
                (alpha(k), expected_alpha(k, side)),
                (beta(k), expected_beta(k, side)),
                (gamma(k), expected_gamma(k, side)),
            ]
            for ident, want in pairs:
                if decompose(getattr(ident, side), k).render() != want:
                    mismatches.append((str(ident), side))
            for m in range(1, k + 1):
                ident = delta(k, m)
                want = expected_delta(k, m, side)
                if decompose(getattr(ident, side), k).render() != want:
                    mismatches.append((str(ident), side))
    elapsed = time.perf_counter() - started
    verdict(4, "identity-side decompositions match for k=2,3",
            not mismatches and elapsed < 1.0,
            f"{elapsed:.3f}s" + (f", wrong: {mismatches}" if mismatches else ""))


def test_criterion_05_depth_index_law():
    bad = []
    for k in range(1, 5):
        sides = []
        for ident in [alpha(k), beta(k), gamma(k), jkk_basis(k)]:
            sides.extend([ident.lhs, ident.rhs])
        for m in range(1, k + 1):
            sides.extend([delta(k, m).lhs, delta(k, m).rhs])
        for w in sides:
            prof = profile(w)
            for letter in w.content():
                if letter.index is not None and prof.depth(letter) != letter.index:
                    bad.append((str(w), str(letter)))
        if profile(beta(k).lhs).depth(Letter("x")) != k + 1:
            bad.append((f"beta({k}).lhs", "x"))
        if profile(beta(k).rhs).depth(Letter("x")) != math.inf:
            bad.append((f"beta({k}).rhs", "x"))
    verdict(5, "depth equals index on every constructed side for k<=4",
            not bad, f"violations: {bad}" if bad else "k=1..4")


def test_criterion_06_strict_chain():
    started = time.perf_counter()
    report = verify_chain(kmax=3, letters=3, max_len=6, cross_check=2000)
    elapsed = time.perf_counter() - started
    verdict(6, "chain monotonicity and separating witnesses for kmax=3",
            report.ok and elapsed < 60.0,
            f"{report.words} words, {report.compared} pairs compared, "
            f"{len(report.violations)} violations, "
            f"{len(report.witness_failures)} witness failures, {elapsed:.1f}s")


def test_criterion_07_oracle_cross_validation():
    two = (Letter("x"), Letter("y"))
    words2 = list(iter_words(two, 6))
    disagreements = 0
    for n in (1, 2, 3):
        monoid = rees_quotient(Word([Letter("x")] * n))
        assigns = [dict(zip(two, pair))
                   for pair in __import__("itertools").product(
                       range(len(monoid)), repeat=2)]
        vec = {w: tuple(monoid.evaluate(w, a) for a in assigns)
               for w in words2}
        sig = {w: tuple(min(w.occ(x), n + 1) for x in two) for w in words2}
        disagreements += sum(
            (vec[u] == vec[w]) != (sig[u] == sig[w])
            for u in words2 for w in words2)

    three = (Letter("x"), Letter("y"), Letter("z"))
    words3 = list(iter_words(three, 5))
    monoid = rees_quotient(parse_word("xy"))
    assigns = [dict(zip(three, triple))
               for triple in __import__("itertools").product(
                   range(len(monoid)), repeat=3)]
    vec = {w: tuple(monoid.evaluate(w, a) for a in assigns) for w in words3}
    sig = {w: (frozenset(w.simple()), frozenset(w.multiple()),
               w.delete(w.multiple())) for w in words3}
    disagreements += sum(
        (vec[u] == vec[w]) != (sig[u] == sig[w])
        for u in words3 for w in words3)
    verdict(7, "structural deciders agree with monoid brute force",
            disagreements == 0,
            f"{len(words2)}^2 pairs x3 series + {len(words3)}^2 pairs, "
            f"{disagreements} disagreements")


def _sample_identity(rng, letters):
    n = rng.randint(1, 3)
    length = rng.randint(0, 8)
    u = [rng.choice(letters[:n]) for _ in range(length)]
    if rng.random() < 0.5:
        v = u[:]
        rng.shuffle(v)
    else:
        v = [rng.choice(letters[:n]) for _ in range(rng.randint(0, 8))]
    return Identity(Word(u), Word(v))


def test_criterion_08_member_monoid_soundness():
    # P1 is a member of E, so every identity E accepts must hold in P1. K5 is
    # not a member of K: K accepts x^2y^2 = y^2x^2 and K5 refutes it. So K is
    # checked against K5 the other way round: every identity that holds in K5
    # must be accepted by K, as it would be if var K5 contains K. That is
    # evidence for the inclusion, not a proof. K accepts every pair of words
    # on x, y, z of length <= 6 that K5 equates, but the repo's documents do
    # not settle the general claim. K's own soundness stays covered by the E
    # clause: K's checks include E's, so every identity K accepts E accepts.
    rng = random.Random(20260815)
    letters = [Letter("x"), Letter("y"), Letter("z")]
    e_variety, k_variety = V("E"), V("K")
    p1_monoid, k5_monoid = p1(), k5()
    e_accepted = k5_holds = 0
    e_violations = []
    k_rejections = []
    for _ in range(10_000):
        ident = _sample_identity(rng, letters)
        if decide(e_variety, ident).holds:
            e_accepted += 1
            if not p1_monoid.satisfies(ident, max_letters=3):
                e_violations.append(ident)
        if k5_monoid.satisfies(ident, max_letters=3):
            k5_holds += 1
            if not decide(k_variety, ident).holds:
                k_rejections.append(ident)
    squares = Identity(parse_word("x^2y^2"), parse_word("y^2x^2"))
    refutation = k5_monoid.find_violation(squares)
    k5_outside_k = decide(k_variety, squares).holds and refutation is not None
    detail = (f"E: {e_accepted} accepted, {len(e_violations)} violations; "
              f"K5: {k5_holds} hold, {len(k_rejections)} rejected by K")
    if k_rejections:
        detail += f"; first rejected: {k_rejections[0]}"
    if k5_outside_k:
        detail += (f"; K5 not in K: K accepts {squares}, K5 refutes it at "
                   f"{k5_monoid.describe_assignment(refutation)}")
    verdict(8, "identities accepted by E hold in P1, identities holding in "
               "K5 are accepted by K, and K5 is not in K",
            not e_violations and not k_rejections and k5_outside_k, detail)


def test_criterion_09_doubled_letters_always_accepted():
    rng = random.Random(20260815)
    k_variety = V("K")
    rejected = []
    for _ in range(1000):
        letters = [Letter(b) for b in ("x", "y", "z")[:rng.randint(1, 3)]]
        bag = [l for l in letters for _ in range(rng.randint(2, 4))]
        u, w = bag[:], bag[:]
        rng.shuffle(u)
        rng.shuffle(w)
        ident = Identity(Word(u), Word(w))
        if not decide(k_variety, ident).holds:
            rejected.append(ident)
    verdict(9, "equal-content identities with all letters doubled pass K",
            not rejected,
            "1000 samples" + (f", first rejected: {rejected[0]}"
                              if rejected else ""))


def test_criterion_10_divider_depth_duality():
    letters = (Letter("x"), Letter("y"), Letter("z"))
    words = duality_bad = monotone_bad = 0
    for w in iter_words(letters, 6):
        words += 1
        prof = profile(w)
        for k in range(prof.stab + 1):
            if not set(prof.dividers(k)) <= set(prof.dividers(k + 1)):
                monotone_bad += 1
            for x in w.content():
                if (prof.positions[x][0] in prof.dividers(k)) != (prof.depth(x) <= k):
                    duality_bad += 1
    verdict(10, "divider/depth duality and divider monotonicity",
            duality_bad == 0 and monotone_bad == 0,
            f"{words} words, {duality_bad} duality and "
            f"{monotone_bad} monotonicity violations")


def test_criterion_11_deduction_replay():
    # The endpoint is delta(2,2), the J2.2/F3 separating witness. The chain
    # applies jkk_basis(2), which J2.2 accepts and F3 rejects, so J2.2 must
    # accept the endpoint and F3, one band up, must reject it.
    chain = jkk_deduction(2)
    replay = check_deduction(chain)
    endpoint = Identity(chain.start, chain.end)
    j22 = decide(V("J2.2"), endpoint)
    f3 = decide(V("F3"), endpoint)
    verdict(11, "band-endpoint chain replays, J2.2 accepts it and F3 rejects it",
            replay.ok and j22.holds and not f3.holds,
            f"replay={'ok' if replay.ok else 'fail'}, "
            f"J2.2={'holds' if j22.holds else 'fails'}, "
            f"F3={f3}")


def test_criterion_12_isoterm_evidence():
    generator = parse_word("xzxyty")
    none_hit = isoterm_search(generator, rees_quotient(generator), bound=2)
    square = parse_word("x^2")
    cube_hit = isoterm_search(square, rees_quotient(parse_word("x")), bound=3)
    verdict(12, "isoterm searches return none and the cube respectively",
            none_hit is None and cube_hit == parse_word("x^3"),
            f"first={none_hit}, second={cube_hit}")
