import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import monovar
from monovar import deciders
from monovar.catalog import delta
from monovar.cli import main
from monovar.decomposition import profile, render_depths
from monovar.deduction import (
    check_deduction,
    format_deduction,
    jkk_deduction,
    parse_deduction,
)
from monovar.words import identity

WORD = "xyxzytszxs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_at_a_level(capsys):
    code, out, err = run(capsys, "decompose", WORD, "--k", "2")
    assert code == 0
    assert out.splitlines() == ["# monovar 1", "λ·[x]·y·[x]·z·[y]·t·[szxs]"]
    assert "elapsed:" in err


def test_decompose_cascade(capsys):
    code, out, _ = run(capsys, "decompose", WORD)
    lines = out.splitlines()
    assert code == 0
    assert lines[1] == "k=0: λ·[xyxzy]·t·[szxs]"
    assert lines[2] == "k=1: λ·[xyx]·z·[y]·t·[szxs]"
    assert lines[3] == "k=2: λ·[x]·y·[x]·z·[y]·t·[szxs]"
    assert lines[4] == "k=3: λ·[λ]·x·[λ]·y·[x]·z·[y]·t·[szxs]"
    assert lines[5] == "stabilizes at k=3"


def test_depth_profile(capsys):
    code, out, _ = run(capsys, "depth", WORD)
    assert code == 0
    assert out.splitlines()[1] == "x:3 y:2 z:1 s:inf t:0"


def test_restrictor_grid(capsys):
    code, out, _ = run(capsys, "restrictors", WORD)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == f"restrictors of {WORD} (stabilizes at k=3)"
    grid = {tuple(row.split()[:2]): row.split()[2:] for row in lines[3:]}
    # ten rows: every occurrence of every letter up to its count
    assert len(grid) == 10
    assert grid[("x", "2")][2] == "y"   # second restrictor of x at level 2
    assert grid[("z", "2")][0] == "t"   # second restrictor of z at level 0
    assert grid[("s", "1")][3] == "t"   # first restrictor of s at level 3
    assert grid[("x", "1")] == ["λ", "λ", "λ", "λ"]


def test_decide_oracle_failure(capsys):
    code, out, _ = run(capsys, "decide", "--variety", "L",
                       "--identity", "xzxyty = xzyxty")
    assert code == 1
    assert "decide L: fails" in out
    assert "S(xzxyty)" in out


def test_decide_holds(capsys):
    code, out, _ = run(capsys, "decide", "--variety", "F1",
                       "--identity", "x1y1x0x1y1 = y1x1x0x1y1")
    assert code == 0
    assert "decide F1: holds" in out


def test_decide_limit_variety_is_one_sided(capsys):
    code, out, _ = run(capsys, "decide", "--variety", "D",
                       "--identity", "x^2 = x^3")
    assert code == 0 and "holds (one-sided check)" in out
    code, out, _ = run(capsys, "decide", "--variety", "D",
                       "--identity", "x = x^2")
    assert code == 1 and "fails (one-sided check)" in out
    code, out, _ = run(capsys, "decide", "--variety", "D",
                       "--identity", "xyzxty = yxzxty")
    assert code == 3 and "unknown (one-sided check)" in out


def test_decide_rejects_varieties_without_decider(capsys):
    code, _, err = run(capsys, "decide", "--variety", "N",
                       "--identity", "x = x")
    assert code == 2
    assert "error:" in err


def test_verify_chain_small(capsys):
    code, out, _ = run(capsys, "verify-chain", "--kmax", "1",
                       "--letters", "2", "--maxlen", "4")
    assert code == 0
    assert "words: 31" in out
    assert "violations: 0" in out
    assert out.splitlines()[-1] == "result: pass"


def test_verify_chain_output_is_reproducible(capsys):
    args = ("verify-chain", "--kmax", "1", "--letters", "2", "--maxlen", "4")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


SMALL_SWEEP = ("verify-chain", "--kmax", "1", "--letters", "2",
               "--maxlen", "4", "--cross-check", "50")


def test_verify_chain_reports_a_broken_chain(monkeypatch, capsys):
    """With H1's key replaced by the word itself, H1 rejects every pair of
    distinct words that I1 accepts: each one is a violation, reported in
    pair order, and the sweep fails."""
    keys = deciders._keys
    h1 = [v.name for v in deciders.chain_of(1)].index("H1")

    def broken(p, kmax):
        out = keys(p, kmax)
        out[h1] = p.word
        return out

    monkeypatch.setattr(deciders, "_keys", broken)
    code, out, _ = run(capsys, *SMALL_SWEEP)
    lines = out.splitlines()
    assert code == 1
    assert lines[:11] == [
        "# monovar 1", "verify-chain kmax=1 letters=2 maxlen=4", "words: 31",
        "pairs: 930", "compared: 179", "violations: 62",
        "witness-failures: 0",
        "violation: xx = xxx accepted by I1 but rejected by H1",
        "violation: xx = xxxx accepted by I1 but rejected by H1",
        "violation: xxx = xx accepted by I1 but rejected by H1",
        "violation: xxx = xxxx accepted by I1 but rejected by H1"]
    assert lines[19:21] == [
        "violation: xxy = xxxy accepted by I1 but rejected by H1",
        "violation: xxy = xxyx accepted by I1 but rejected by H1"]
    assert len(lines) == 7 + 62 + 1 and lines[-1] == "result: fail"
    assert all(line.endswith(" accepted by I1 but rejected by H1")
               for line in lines[7:-1])


def test_verify_chain_reports_a_failed_witness(monkeypatch, capsys):
    """A trivial identity in place of the witness separating H1 from I1
    holds in both, and the sweep reports that pair."""
    witness = deciders.separating_witness
    monkeypatch.setattr(deciders, "separating_witness", lambda a, b: (
        identity("x", "x") if (a.name, b.name) == ("H1", "I1")
        else witness(a, b)))
    code, out, _ = run(capsys, *SMALL_SWEEP)
    assert code == 1
    assert out.splitlines()[-4:] == [
        "violations: 0", "witness-failures: 1", "witness-failure: H1 vs I1",
        "result: fail"]


@pytest.mark.parametrize("flag, value", [
    ("--letters", "4"), ("--letters", "0"), ("--maxlen", "-1"),
    ("--cross-check", "-1"),
])
def test_verify_chain_rejects_an_alphabet_or_budget_it_cannot_sweep(
        capsys, flag, value):
    args = {"--kmax": "1", "--letters": "2", "--maxlen": "3",
            "--cross-check": "50", flag: value}
    code, out, err = run(capsys, "verify-chain",
                         *(x for pair in args.items() for x in pair))
    assert code == 2 and out == ""
    message = ("letters must be 1, 2 or 3" if flag == "--letters"
               else "max_len and cross_check must be >= 0")
    assert f"error: {message}" in err


@pytest.mark.parametrize("flag, value", [("--kmax", "100000"),
                                         ("--maxlen", "30")])
def test_verify_chain_refuses_a_sweep_past_its_work_bound(capsys, flag, value):
    # both sizes are refused by arithmetic, before any member or word is
    # built, so the refusal is quick
    started = time.perf_counter()
    code, out, err = run(capsys, "verify-chain", flag, value)
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert "units of work; the bound is" in err


def test_environment_does_not_reach_the_parser(monkeypatch, capsys):
    monkeypatch.setenv("MONOVAR_WORKERS", "abc")
    code, out, _ = run(capsys, "decompose", "xyx")
    assert code == 0 and "stabilizes at k=1" in out


def test_monoid_build_check_dump(capsys):
    code, out, _ = run(capsys, "monoid", "build", "--monoid", "S(xy)")
    assert code == 0
    assert "monoid S(xy): 5 elements" in out
    assert "table ok" in out

    code, out, _ = run(capsys, "monoid", "check", "--monoid", "S(xy)",
                       "--identity", "xyx = x^2y")
    assert code == 0 and "holds in S(xy)" in out

    code, out, _ = run(capsys, "monoid", "check", "--monoid", "S(xy)",
                       "--identity", "xy = yx")
    assert code == 1 and "fails in S(xy)" in out

    code, out, _ = run(capsys, "monoid", "dump", "--monoid", "P1")
    assert code == 0
    assert "1 e a 0" in out


def test_monoid_check_requires_identity(capsys):
    code, _, err = run(capsys, "monoid", "check", "--monoid", "P1")
    assert code == 2 and "needs --identity" in err


def test_isoterm_searches(capsys):
    code, out, _ = run(capsys, "isoterm", "--word", "xzxyty",
                       "--monoid", "S(xzxyty)", "--bound", "2")
    assert code == 0
    assert "none within bound" in out

    code, out, _ = run(capsys, "isoterm", "--word", "x^2",
                       "--monoid", "S(x)", "--bound", "3")
    assert code == 0
    assert "found: xx = xxx" in out


def test_isoterm_bound_beyond_the_cap_is_a_usage_error(capsys):
    for argv in (("--word", "xy", "--monoid", "S(xy)", "--bound", "1000000000"),
                 ("--word", "xzxyty", "--monoid", "S(xzxyty)")):
        started = time.perf_counter()
        code, out, err = run(capsys, "isoterm", *argv)
        assert code == 2 and "candidate words of more than" in err
        assert out == ""
        assert time.perf_counter() - started < 1.0


def test_depth_of_a_long_word_is_quick(capsys):
    """delta(500, 500) has 1,005 letters, far inside parse_word's cap."""
    word = delta(500, 500).lhs
    profile.cache_clear()
    started = time.perf_counter()
    want = render_depths(word)
    assert time.perf_counter() - started < 3.0
    profile.cache_clear()
    started = time.perf_counter()
    code, out, _ = run(capsys, "depth", str(word))
    assert time.perf_counter() - started < 3.0
    assert code == 0
    assert out.splitlines() == ["# monovar 1", want]


def test_deduce_search_finds_the_collapse_identity(capsys):
    code, out, _ = run(capsys, "deduce", "--system", "phi",
                       "--goal", "xyxzx = xyxz", "--max-steps", "6")
    assert code == 0
    assert "result: found (3 steps)" in out
    # the printed chain is itself a valid recorded deduction
    chain_text = out.split("steps)\n", 1)[1]
    assert check_deduction(parse_deduction(chain_text)).ok


def test_deduce_search_can_be_inconclusive(capsys):
    code, out, _ = run(capsys, "deduce", "--system", "sigma",
                       "--goal", "x = x^2", "--max-steps", "3")
    assert code == 3
    assert "result: inconclusive" in out


def test_deduce_search_past_its_word_bound_is_a_usage_error(capsys):
    # 3 letters up to length 14 give 7,174,453 words; refused by
    # arithmetic before the search starts
    started = time.perf_counter()
    code, out, err = run(capsys, "deduce", "--system", "phi+",
                         "--goal", "xyzxy = yxzxy", "--max-len", "14",
                         "--max-steps", "50")
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert "may visit more than 1e+06 words" in err


def test_deduce_replays_a_file(capsys, tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text(format_deduction(jkk_deduction(2)), encoding="utf-8")
    code, out, _ = run(capsys, "deduce", "--file", str(path))
    assert code == 0
    assert "steps=8" in out
    assert out.splitlines()[-1] == "result: ok"


def test_deduce_reports_a_corrupted_file(capsys, tmp_path):
    text = format_deduction(jkk_deduction(2))
    lines = text.splitlines()
    lines[4] = "x"  # clobber the third word
    path = tmp_path / "broken.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "deduce", "--file", str(path))
    assert code == 1
    assert "FAIL" in out
    assert out.splitlines()[-1] == "result: fail"


def test_deduce_requires_file_or_goal(capsys):
    code, _, err = run(capsys, "deduce")
    assert code == 2 and "either --file or" in err


def test_bad_word_is_a_usage_error(capsys):
    code, _, err = run(capsys, "decompose", "x0y!")
    assert code == 2 and "error:" in err


def test_huge_exponent_is_a_usage_error(capsys):
    started = time.perf_counter()
    code, _, err = run(capsys, "decide", "--variety", "E",
                       "--identity", "x^999999999 = x")
    assert code == 2 and "error: word longer than" in err
    assert time.perf_counter() - started < 1.0


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point_runs():
    # the child imports the same monovar as this suite, installed or not
    src = str(Path(monovar.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "monovar.cli", "depth", WORD],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "x:3 y:2 z:1 s:inf t:0" in proc.stdout
    assert "elapsed:" in proc.stderr


def readme_tour() -> list[tuple[str, str]]:
    """Each "$ monovar ..." command in the README's code blocks, with the
    stdout shown under it (up to the next blank line or block end)."""
    readme = Path(__file__).parents[1] / "README.md"
    tour = []
    for block in re.findall(r"^```\n(.*?)^```$", readme.read_text("utf-8"),
                            re.S | re.M):
        for chunk in re.split(r"\n\n(?=\$ monovar )", block.strip("\n")):
            if chunk.startswith("$ monovar "):
                command, _, shown = chunk.partition("\n")
                tour.append((command, shown + "\n"))
    return tour


def bench_tour() -> list[tuple[str, int, str]]:
    """Each command of bench/tour.txt, which the benchmark replays, with
    the exit code and the stdout recorded under it."""
    path = Path(__file__).parents[1] / "bench" / "tour.txt"
    tour = []
    for chunk in re.split(r"\n(?=\$ monovar )", path.read_text("utf-8")):
        command, code, *shown = chunk.strip("\n").split("\n")
        tour.append((command, int(code.removeprefix("# exit ")),
                     "\n".join(shown) + "\n"))
    return tour


def test_readme_tour_is_reproduced(capsys):
    """The README tour, the same commands and stdout as bench/tour.txt,
    reproduced byte for byte with the exit codes tour.txt records."""
    tour = bench_tour()
    assert len(tour) == 12
    assert [(command, shown) for command, _, shown in tour] == readme_tour()
    for command, code, shown in tour:
        assert run(capsys, *shlex.split(command)[2:])[:2] == (code, shown), \
            command
