"""monovar benchmark: time the library's public functions from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from src/.  The
last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it is a JSON record of provenance, the
workload's definition, latency detail, verdict shares and check results.

--trace 0 measures the end-to-end metrics.  --trace 1 runs rounds untraced
for S/2 seconds of operation time, then the same rounds again on a freshly
imported library with a span around every call the benchmark makes into a
layer; it reports the per-layer metrics and the tracing overhead, and
writes the spans to bench/out/.  Both modes check the outputs (recorded
references, reference-free checks and the README CLI tour) and count every
mismatch or exception as a failed operation.

Single process, no threads, pinned to one CPU.  Each workload is meant to
run in a fresh interpreter, so that peak memory and the library's caches
are its own.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import tour  # noqa: E402
from tracing import NULL, Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

MODULES = ("words", "decomposition", "catalog", "deciders", "monoids",
           "deduction", "cli")
SETUP_REPS = 31
KEEP = 10000         # operations whose inputs and outputs a pass keeps
CHECK_SHARE = 0.1   # reference-free checks may take this share of --seconds
SEGMENT_S = 0.2     # operation time between two readings of the host's speed

# Per-layer metrics: name -> (unit, how it is computed).  "mean" is the
# mean duration of the spans named by the second word, "total" their summed
# duration, "count" their number; the others are computed by the run
# itself.
PER_LAYER = {
    "cli.import_s": ("s", "median import of monovar.cli over the set-ups"),
    "catalog.build_s": ("s", "total catalog.build"),
    "words.parse_s": ("s", "mean words.parse"),
    "words.class_key_s": ("s", "total words.class_key over both class keys "
                          "of every ordered pair of one sweep size"),
    "decomposition.profile_s": ("s", "total decomposition.profile"),
    "decomposition.profiles": ("count", "count decomposition.profile"),
    "decomposition.deep_profile_s": ("s", "mean decomposition.deep_profile"),
    "decomposition.profile_hit_ratio": (
        "ratio", "profile.cache_info() hits / calls after the traced pass"),
    "deciders.decide_warm_s": ("s", "mean deciders.decide_warm"),
    "deciders.chain_bits_s": ("s", "total deciders.chain_bits"),
    "deciders.chain_bits_calls": ("count", "count deciders.chain_bits"),
    "deciders.semi_decide_d_s": ("s", "mean deciders.semi_decide_d"),
    "monoids.build_s": ("s", "total monoids.build"),
    "monoids.elements": ("count", "elements of the monoids built"),
    "monoids.find_violation_s": ("s", "mean monoids.find_violation"),
    "monoids.assignments_bound": ("count", "sum of |S|^n over one round"),
    "monoids.isoterm_s": ("s", "mean monoids.isoterm"),
    "deduction.derive_found_s": ("s", "mean deduction.derive_found"),
    "deduction.derive_exhausted_s": ("s", "mean deduction.derive_exhausted"),
    "deduction.check_s": ("s", "mean deduction.check"),
    "deduction.roundtrip_s": ("s", "mean deduction.roundtrip"),
    "trace.overhead": ("ratio", "traced op time / untraced op time - 1"),
}


def imported() -> dict:
    """The monovar modules in sys.modules."""
    return {name: module for name, module in sys.modules.items()
            if name == "monovar" or name.startswith("monovar.")}


def load_library() -> types.SimpleNamespace:
    """Import monovar afresh.  Every module is executed again, so each
    lru_cache in the library starts empty, as in a new process."""
    for name in imported():
        del sys.modules[name]
    importlib.import_module("monovar.cli")
    return types.SimpleNamespace(
        **{m: sys.modules[f"monovar.{m}"] for m in MODULES})


def digest(ops) -> str:
    return hashlib.sha256(json.dumps(ops).encode()).hexdigest()


def _yardstick() -> int:
    """A fixed piece of pure-Python work that does not touch the library:
    tuple hashing, dict and set updates, sorting and string joins, the
    operations the library's own code is made of."""
    counts: dict = {}
    for i in range(1500):
        key = (i % 89, i % 7, "xyz"[i % 3])
        counts[key] = counts.get(key, 0) + 1
    rows = sorted(tuple((i * 7 + j) % 5 for j in range(8)) for i in range(300))
    seen = {row[1:6] for row in rows}
    text = "".join(str(i) for i in range(300))
    return len(counts) + len(seen) + len(text)


class Speed:
    """The shared machine's current speed, read as the median time of
    REPS runs of _yardstick.  The machine runs the same code up to 1.7
    times slower in phases that last from seconds to tens of minutes, and
    a run's plain timings move with it.  Every time the benchmark reports
    is therefore scaled to a machine on which a reading takes REFERENCE_S:
    a timing t taken while readings r0 before and r1 after it is reported
    as t * REFERENCE_S / mean(r0, r1).  A change to the library moves the
    scaled time as it moves the plain one, since the yardstick does not
    call the library; the plain figures are kept in the record line.
    Readings run with the garbage collector off, so that the size of the
    library's heap does not slow them.  A thread left running by the
    library would slow the readings and the operations alike and so hide
    its cost; threads counts the most seen at a reading, and a run with
    more than one fails its self-test."""

    REPS = 7
    REFERENCE_S = 0.9e-3   # about a reading on an idle 2-vCPU Xeon VM,
                           # Python 3.11

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.threads = 1

    def read(self) -> float:
        self.threads = max(self.threads, threading.active_count())
        times = []
        gc.disable()
        try:
            for _ in range(self.REPS):
                start = time.perf_counter()
                _yardstick()
                times.append(time.perf_counter() - start)
        finally:
            gc.enable()
        self.readings.append(statistics.median(times))
        return self.readings[-1]

    def factor(self, before: float, after: float) -> float:
        return self.REFERENCE_S / ((before + after) / 2)


class SetUp:
    """Set-up: import the library, then generate and parse-check the first
    round.  The first set-up gives the run its library and inputs.  The
    other SETUP_REPS - 1 are spread over the measured pass, between rounds,
    so that their median samples the same stretch of the shared machine's
    time as the operations do, not the one second before them."""

    def __init__(self, wl, seed: int):
        self.wl, self.seed = wl, seed
        self.speed = Speed()
        self.totals: list[float] = []
        self.plain: list[float] = []
        self.imports: list[float] = []
        self.hashes: list[str] = []
        self.lib, rounds, first = self.once()
        self.rounds = itertools.chain([first], rounds)

    def once(self):
        before = self.speed.read()
        start = time.perf_counter()
        lib = load_library()
        imported = time.perf_counter()
        rounds = self.wl.rounds(lib, self.seed)
        first = next(rounds)
        self.wl.parse_check(lib, first)
        end = time.perf_counter()
        factor = self.speed.factor(before, self.speed.read())
        self.plain.append(end - start)
        self.totals.append(factor * (end - start))
        self.imports.append(factor * (imported - start))
        self.hashes.append(digest(first))
        return lib, rounds, first

    def pace(self, share: float) -> None:
        """Set up again until share of the repetitions are done.  The run's
        own modules are put back afterwards, so that what the library
        imports lazily still comes from the run's import."""
        while len(self.totals) < min(1.0, share) * SETUP_REPS:
            saved = imported()
            self.once()
            for name in imported():
                del sys.modules[name]
            sys.modules.update(saved)

    def info(self) -> dict:
        return {"setup_s": statistics.median(self.totals),
                "plain_setup_s": statistics.median(self.plain),
                "import_s": statistics.median(self.imports),
                "threads": self.speed.threads,
                "hashes": self.hashes}


class Run:
    """Operations of one measured pass, in order.  Inputs and outputs are
    kept for the first KEEP operations only, for the checks, so that the
    benchmark's own memory does not grow with the library's speed.
    latency and spent are plain times; scaled and scaled_spent are the
    same times scaled by the host's speed (see Speed)."""

    def __init__(self):
        self.ops: list = []
        self.outcomes: list[Outcome] = []
        self.verdicts: dict[str, int] = {}
        self.latency: list[float] = []
        self.scaled: list[float] = []
        self.errors: dict[int, str] = {}
        self.work = 0
        self.spent = 0.0
        self.scaled_spent = 0.0
        self.rounds = 0
        self.rss_mb = 0.0
        self.speed = Speed()
        self._before = self.speed.read()
        self.segment = 0.0

    def scale(self) -> None:
        """Read the host's speed and scale the operations timed since the
        previous reading by the mean of the two."""
        factor = self.speed.factor(self._before, self.speed.read())
        self._before = self.speed.readings[-1]
        pending = self.latency[len(self.scaled):]
        self.scaled.extend(factor * t for t in pending)
        self.scaled_spent += factor * sum(pending)
        self.segment = 0.0


def measure(wl, lib, rounds, seconds: float, tr=NULL, max_rounds=None,
            pace=None):
    """Run whole rounds until the operations' own time reaches seconds and
    at least wl.rss_rounds rounds are done (or until max_rounds), calling
    pace with the share of seconds spent after each round.  Returns the
    pass and the library it ended with."""
    run = Run()
    for ops in rounds:
        for op in ops:
            if wl.fresh_library:
                lib = load_library()
                gc.collect()   # free the previous import before timing
            tr.op = len(run.latency)
            start = time.perf_counter()
            try:
                with tr.span("op"):
                    out = wl.run(lib, op, tr)
            except Exception as err:  # counted as a failed operation
                out = Outcome(f"error: {type(err).__name__}: {err}", "error", 0)
                run.errors[len(run.latency)] = out.text
            elapsed = time.perf_counter() - start
            if len(run.ops) < KEEP:
                run.ops.append(op)
                run.outcomes.append(out)
            run.verdicts[out.verdict] = run.verdicts.get(out.verdict, 0) + 1
            run.latency.append(elapsed)
            run.work += out.work
            run.spent += elapsed
            run.segment += elapsed
            if run.segment >= SEGMENT_S:
                run.scale()
        run.rounds += 1
        if run.rounds == wl.rss_rounds:
            run.rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        if pace:
            pace(run.spent / seconds)
        if run.rounds == max_rounds or (
                max_rounds is None and run.spent >= seconds
                and run.rounds >= wl.rss_rounds):
            break
    if len(run.scaled) < len(run.latency):
        run.scale()
    return run, lib


def tail(latency: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its
    value; the maximum (percentile 100) when there are at most ten."""
    ordered = sorted(latency)
    rank = len(ordered) - 10
    if rank < 1:
        return 100.0, ordered[-1]
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def load_reference(wl, seed: int):
    path = BENCH / "reference" / f"{wl.name}.json.gz"
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        data = json.load(handle)
    return data["outputs"].get("*" if not wl.seeded else str(seed))


def verify(wl, lib, run: Run, seed: int, seconds: float) -> dict:
    """Compare with the recorded reference, run reference-free checks
    within a time budget and replay the README tour."""
    bad = dict(run.errors)
    reference = load_reference(wl, seed)
    if reference is not None:
        for i, (want, out) in enumerate(zip(reference, run.outcomes)):
            if out.text != want:
                bad.setdefault(i, f"differs from the reference: {out.text!r}")
    checked = 0
    seen = set()   # each distinct input and output is checked once
    deadline = time.perf_counter() + CHECK_SHARE * seconds
    for i, (op, out) in enumerate(zip(run.ops, run.outcomes)):
        if time.perf_counter() > deadline:
            break
        if i in run.errors or (op, out.text) in seen:
            continue
        seen.add((op, out.text))
        checked += 1
        try:
            message = wl.check(lib, op, out)
        except Exception as err:
            message = f"check raised {type(err).__name__}: {err}"
        if message:
            bad.setdefault(i, message)
    tour_count, tour_failures = tour.replay(lib)
    return {
        "reference_ops": 0 if reference is None else min(len(reference),
                                                         len(run.ops)),
        "checked_ops": checked,
        "failed_ops": len(bad),
        "failures": [f"op {i}: {m}" for i, m in sorted(bad.items())[:10]],
        "tour_commands": tour_count,
        "tour_failures": tour_failures,
    }


def self_test(wl, seed: int, lib, info: dict, run: Run) -> list[str]:
    """Same seed, byte-identical inputs; another seed, different inputs;
    no thread beside the benchmark's own while the host's speed is read."""
    problems = []
    if len(set(info["hashes"])) != 1:
        problems.append("the same seed gave different inputs")
    other = digest(next(wl.rounds(lib, seed + 1)))
    if wl.seeded and other == info["hashes"][0]:
        problems.append("another seed gave the same inputs")
    if max(run.speed.threads, info["threads"]) > 1:
        problems.append("threads ran beside the benchmark")
    return problems


def shares(run: Run) -> dict:
    return {k: round(v / len(run.latency), 4)
            for k, v in sorted(run.verdicts.items())}


def provenance(wl, seed: int, input_hash: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": seed,
        "input_sha256": input_hash,
        "workload": wl.name,
        "op": wl.op,
        "why": why[wl.name],
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(wl, run: Run, info: dict) -> tuple[dict, dict]:
    pct, tail_s = tail(run.scaled)
    metrics = {
        "setup_s": (info["setup_s"], "s"),
        "ops_per_s": (run.work / run.scaled_spent, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(run.scaled), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (run.rss_mb, "MB"),
    }
    detail = {"ops": len(run.latency), "rounds": run.rounds,
              "op_time_s": run.spent, "tail_percentile": pct,
              "tail_samples": len(run.latency), "ops_per_s_counts": wl.unit,
              "setup_reps": len(info["hashes"]),
              "peak_rss_after_rounds": wl.rss_rounds,
              "peak_rss_at_end_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024,
              "speed": speed_detail(run, info)}
    return metrics, detail


def speed_detail(run: Run, info: dict) -> dict:
    """The host's speed readings and the plain, unscaled figures."""
    readings = run.speed.readings
    return {"reference_s": Speed.REFERENCE_S,
            "readings": len(readings),
            "reading_median_s": statistics.median(readings),
            "reading_quartiles_s": statistics.quantiles(readings, n=4),
            "plain_setup_s": info["plain_setup_s"],
            "plain_ops_per_s": run.work / run.spent,
            "plain_op_p50_ms": 1e3 * statistics.median(run.latency),
            "plain_op_tail_ms": 1e3 * tail(run.latency)[1]}


def per_layer(wl, seed: int, info: dict, untraced: Run):
    """The traced pass over the same rounds as the untraced one, then the
    per-layer probes on the first round, generated again under the tracer
    so that catalog calls are timed once."""
    tr = Tracer()
    lib = load_library()
    traced, lib = measure(wl, lib, wl.rounds(lib, seed), 0, tr,
                          max_rounds=untraced.rounds)
    hits = lib.decomposition.profile.cache_info()
    tr.op = None
    first = next(wl.rounds(lib, seed, tr))
    extra = wl.probe(lib, first, tr)
    values = {}
    for name, (unit, how) in PER_LAYER.items():
        stat, span, *_ = how.split()
        durations = tr.durations(span)
        if name in extra:
            value = extra[name]
        elif stat == "mean":
            value = statistics.fmean(durations) if durations else 0.0
        elif stat == "total":
            value = sum(durations)
        elif stat == "count":
            value = len(durations)
        else:
            value = {
                "cli.import_s": info["import_s"],
                "decomposition.profile_hit_ratio":
                    hits.hits / max(1, hits.hits + hits.misses),
                "trace.overhead": traced.scaled_spent
                / untraced.scaled_spent - 1,
                "monoids.elements": 0,
                "monoids.assignments_bound": 0,
            }[name]
        values[name] = (value, unit)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"trace-{wl.name}-seed{seed}.jsonl"
    tr.write(spans_file)
    detail = {
        "traced_ops": len(traced.latency),
        "untraced_op_time_s": untraced.spent,
        "traced_op_time_s": traced.spent,
        "spans": len(tr.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "self_time_s": {k: round(v, 6) for k, v in
                        sorted(tr.self_times().items())},
        "definitions": {k: how for k, (_, how) in PER_LAYER.items()},
    }
    return values, detail, lib


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "monovar" / "cli.py").is_file():
        print(f"error: no monovar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    # Run on one CPU.  On a shared machine the CPUs carry different load,
    # and a process that migrates between them sees a two-humped latency
    # distribution whose median jumps from run to run.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    setup = SetUp(wl, args.seed)
    seconds = args.seconds / 2 if args.trace else args.seconds
    run, lib = measure(wl, setup.lib, setup.rounds, seconds, pace=setup.pace)
    info = setup.info()
    if args.trace:
        # checks must use the library imported last: the library loads
        # some modules lazily, and those come from the newest import
        metrics, detail, lib = per_layer(wl, args.seed, info, run)
    else:
        metrics, detail = end_to_end(wl, run, info)
    checks = verify(wl, lib, run, args.seed, args.seconds)
    checks["self_test"] = self_test(wl, args.seed, lib, info, run)
    failed = (checks["failed_ops"] + len(checks["tour_failures"])
              + len(checks["self_test"]))
    attempted = len(run.latency) + checks["tour_commands"] + 1
    record = {
        "provenance": dict(provenance(wl, args.seed, info["hashes"][0]),
                           cpu_pinned=cpu),
        "mode": "trace" if args.trace else "end_to_end",
        "seconds": args.seconds,
        "verdict_shares": shares(run),
        "failed_frac": failed / attempted,
        "detail": detail,
        "checks": checks,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    # skip freeing the library's caches one object at a time, which takes
    # seconds after claim_decide and measures nothing
    os._exit(code)
