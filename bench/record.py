"""Record the benchmark's reference outputs, or measure a baseline.

    python3 bench/record.py reference
    python3 bench/record.py baseline

reference: runs the first rounds of every workload for seeds 1 to 10 in
this process and writes the text of every outcome to
bench/reference/<workload>.json.gz.  Run it only on a commit whose outputs
are trusted: run.py compares later commits against these files.

baseline: runs bench/run.py twice for every workload and seeds 1 to 10,
each run in a fresh interpreter and one at a time, for the run_seconds of
BENCHMARK.json, then once traced per workload.  It writes every result
and record to bench/baseline.json, with each end-to-end metric's median
and quartile spread (the distance between the first and third quartile
as a share of the median) in both sets and how far the second set's
median is from the first's.
"""

from __future__ import annotations

import gzip
import json
import statistics
import subprocess
import sys

import run
from workloads import WORKLOADS

REFERENCE_SEEDS = range(1, 11)
REFERENCE_ROUNDS = {"chain_sweep": 1, "claim_decide": 2, "oracle_decide": 2,
                    "derive": 5}


def record_reference() -> None:
    sys.path.insert(0, str(run.SRC))
    out_dir = run.BENCH / "reference"
    out_dir.mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        seeds = REFERENCE_SEEDS if wl.seeded else ["*"]
        outputs = {}
        for seed in seeds:
            lib = run.load_library()
            rounds = wl.rounds(lib, 0 if seed == "*" else seed)
            done, _ = run.measure(wl, lib, rounds, 0,
                                  max_rounds=REFERENCE_ROUNDS[name])
            if done.errors:
                raise SystemExit(f"{name} seed {seed}: {done.errors}")
            outputs[str(seed)] = [out.text for out in done.outcomes]
        data = {"commit": run.git_commit(), "workload": name,
                "rounds": REFERENCE_ROUNDS[name], "outputs": outputs}
        with gzip.GzipFile(out_dir / f"{name}.json.gz", "wb", mtime=0) as fh:
            fh.write(json.dumps(data, indent=0, sort_keys=True).encode())
        print(name, {s: len(v) for s, v in outputs.items()}, flush=True)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=run.ROOT, capture_output=True, text=True,
        timeout=180, check=True)
    record, result = proc.stdout.strip().splitlines()[-2:]
    return {"result": json.loads(result), "record": json.loads(record)}


def summary(results: list[dict]) -> dict:
    out = {}
    for metric in results[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][metric]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric] = {"median": statistics.median(values),
                       "spread": (q3 - q1) / statistics.median(values),
                       "values": values}
    return out


def run_set(seconds: int) -> dict[str, list[dict]]:
    """One untraced run per workload and seed.  The workloads take turns,
    so that each one's runs are spread over the whole set and a slow
    stretch of a shared machine does not fall on one workload alone."""
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for seed in REFERENCE_SEEDS:
        for name in WORKLOADS:
            runs[name].append(bench(name, seed, seconds, 0))
            metrics = runs[name][-1]["result"]["metrics"]
            print(name, seed, {k: round(v["value"], 4)
                               for k, v in metrics.items()}, flush=True)
    return runs


def record_baseline() -> None:
    """Two sets of runs of the same code, then one traced run per
    workload.  For each end-to-end metric, repeat_worse_by is how much
    worse the second set's median is than the first's, as a share of the
    first: the two sets agree when it stays within the metric's bound."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = spec["run_seconds"]
    first, second = run_set(seconds), run_set(seconds)
    baseline = {}
    for name in WORKLOADS:
        end_to_end, repeat = summary(first[name]), summary(second[name])
        for metric in spec["end_to_end"]:
            s, again = end_to_end[metric["name"]], repeat[metric["name"]]
            change = (again["median"] - s["median"]) / s["median"]
            s.update(bound=metric["bound"], repeat_median=again["median"],
                     repeat_spread=again["spread"],
                     repeat_worse_by=change if metric["better"] == "lower"
                     else -change)
            print(f"{name} {metric['name']}: median {s['median']:.4g}, "
                  f"spread {s['spread']:.3f}, repeat spread "
                  f"{again['spread']:.3f}, repeat worse by "
                  f"{s['repeat_worse_by']:+.3f} (bound {s['bound']})",
                  flush=True)
        baseline[name] = {"end_to_end": end_to_end, "runs": first[name],
                          "repeat_runs": second[name],
                          "traced": bench(name, REFERENCE_SEEDS[0], seconds,
                                          1)}
    path = run.BENCH / "baseline.json"
    path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")


def main() -> None:
    what = sys.argv[1:]
    if what == ["reference"]:
        record_reference()
    elif what == ["baseline"]:
        record_baseline()
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main()
