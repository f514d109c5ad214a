"""Replay of the README CLI tour through monovar.cli.main, in process.

tour.txt holds each command of the tour as "$ monovar <args>", then
"# exit <code>", then the stdout the README shows for it.  Stdout must
match byte for byte and the exit code must match; stderr only carries
timing and is ignored.  The replay is a correctness gate and is not timed.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

TOUR = Path(__file__).with_name("tour.txt")


def cases() -> list[tuple[list[str], int, str]]:
    out = []
    for chunk in re.split(r"\n(?=\$ monovar )", TOUR.read_text("utf-8")):
        command, exit_line, *body = chunk.strip("\n").split("\n")
        argv = shlex.split(command)[2:]
        code = int(exit_line.removeprefix("# exit "))
        out.append((argv, code, "\n".join(body) + "\n"))
    return out


def replay(lib) -> tuple[int, list[str]]:
    """Number of commands replayed and a message for each mismatch."""
    todo = cases()
    failures = []
    for argv, code, expected in todo:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            got = lib.cli.main(argv)
        if got != code or out.getvalue() != expected:
            failures.append(f"monovar {shlex.join(argv)}: exit {got}, "
                            f"stdout {out.getvalue()!r}")
    return len(todo), failures
