"""Run one workload repeatedly and check each metric against its bound.

    python3 perfbench/stability.py --workload el-short --runs 10 \
        [--save summary.json] [--compare earlier.json]

Runs `run.py` once per seed (1, 2, ...), one after another, for
BENCHMARK.json's `run_seconds`, and prints for every end-to-end metric
its median, quartiles and spread (the distance between the quartiles as
a share of the median) next to its bound from BENCHMARK.json. A spread
must stay within a third of the bound, except that of `setup_s`: as in
the benchmark's acceptance rule, set-up time is held only to its median,
not to its spread. With `--compare`, each median is also checked
against an earlier summary: it may not be worse by more than the bound.
It also checks that every run was correct with no failures, that the
index and model hashes agree across all runs (the earlier summary's
included), and that runs of the same seed predicted the same bytes.
Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"seed {seed}: run.py exited with {done.returncode}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarize(bench: dict, results: list[dict]) -> dict:
    summary = {}
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[metric["name"]] = {
            "values": values,
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]

    details, results, problems = [], [], []
    for seed in range(1, args.runs + 1):
        detail, result = run_once(args.workload, seed, seconds)
        details.append(detail)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        if not result["correct"] or result["failed"]:
            problems.append(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
    summary = summarize(bench, results)
    summary["sha"] = [{"seed": d["seed"], **d["sha"]} for d in details]
    earlier = json.loads(args.compare.read_text()) if args.compare else None
    hashes = summary["sha"] + (earlier["sha"] if earlier else [])
    for key in ("index", "models", "probe"):
        if len({h.get(key) for h in hashes}) != 1:
            problems.append(f"{key} hash differs between runs")
    by_seed: dict[int, set] = {}
    for h in hashes:
        by_seed.setdefault(h["seed"], set()).add(h.get("predictions"))
    problems += [f"seed {s}: predictions differ between runs" for s, p in by_seed.items() if len(p) > 1]
    print(f"{'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        s = summary[name]
        print(f"{name:22s} {s['median']:12.4f} {s['q1']:12.4f} {s['q3']:12.4f} "
              f"{s['spread']:7.3f} {bound:6.3f}")
        if name != "setup_s" and s["spread"] > bound / 3:
            problems.append(f"{name}: spread {s['spread']:.3f} exceeds a third of bound {bound}")
        if earlier is not None:
            before = earlier[name]["median"]
            worse = (s["median"] - before) / before
            if metric["better"] == "higher":
                worse = -worse
            if worse > bound:
                problems.append(f"{name}: median worse than before by {worse:.3f} > {bound}")
    if args.save:
        args.save.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
