"""Run one linkrush benchmark workload and print its metrics.

    python3 perfbench/run.py --workload el-short --seed 1 --seconds 20 --trace 0

Every run is the whole life of a `linkrush` user, one step per process so
that each step's peak memory is its own:

1. generate the inputs (`synth.py`): a fixed 20k-article corpus with its
   training sentences, plus the sentences to tag, drawn from `--seed`;
2. build (`measure.py build`): ingest, index, save, train both models;
3. tag (`measure.py tag`): load everything, then tag as one closed-loop
   caller.

Steps 2 and 3 run in `ROUNDS` rounds that share `--seconds` of tagging.
Throughput and the median latency pool every sentence of every round;
the tail latency and the other figures are medians over rounds (peak
memory the maximum).
`--trace 1` runs one untraced and one traced round and prints the
per-layer metrics instead; the traced outputs must be byte-identical to
the untraced ones. The last line of standard output is the result:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

DEADLINE_S = 170.0  # every run must end within 180 s
# Untraced runs build, train and tag in this many rounds of fresh processes.
# The machine's speed drifts over seconds; rounds spread each figure's
# samples across the whole run instead of one stretch of it.
ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    stream: str  # "short" or "long" sentences
    route: str  # where the router must send every one of them
    count: int  # sentences generated; the tag loop cycles through them
    eval_count: int  # first sentences scored, hashed and traced


WORKLOADS = {
    "el-short": Workload(stream="short", route="el", count=2000, eval_count=360),
    "routed-long": Workload(stream="long", route="baseline", count=20000, eval_count=10000),
}


class StepFailed(Exception):
    pass


class Runner:
    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.deadline = time.monotonic() + DEADLINE_S
        # One caller, no threads: keep numerical libraries single-threaded.
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def call(self, script: str, *args: str) -> None:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise StepFailed(f"{script}: no time left")
        command = [sys.executable, str(HERE / script), *args]
        try:
            # Children write their logs to our stderr; stdout carries only the result.
            done = subprocess.run(
                command, cwd=ROOT, env=self.env, stdout=sys.stderr, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:  # the child has been killed and reaped
            raise StepFailed(f"{script} {args[0]}: timed out") from exc
        if done.returncode != 0:
            raise StepFailed(f"{script} {args[0]}: exit code {done.returncode}")

    def measure(self, step: str, phase: str, *extra: str) -> dict:
        out = self.run_dir / f"{step}-{phase}.json"
        self.call(
            "measure.py", step,
            "--work", str(self.run_dir / "inputs"),
            "--artifacts", str(self.run_dir / phase),
            "--out", str(out),
            *extra,
        )
        return json.loads(out.read_text(encoding="utf-8"))


def _round(
    runner: Runner, workload: Workload, seconds: float, phase: str, *options: str
) -> tuple[dict, dict]:
    """One build process, then one tag process on what it saved."""
    build = runner.measure("build", phase, *options)
    tag = runner.measure(
        "tag", phase,
        "--seconds", str(seconds),
        "--route", workload.route,
        "--eval-count", str(workload.eval_count),
        "--probe-sha", build["sha"].get("probe", ""),
        *options,
    )
    return build, tag


def _combine(rounds: list[tuple[dict, dict]]) -> tuple[dict, dict, dict, list]:
    """Figures, checks, hashes and tail detail of several rounds.

    Throughput is all sentences tagged over all tagging time, and the
    median latency is taken over every latency of the run. The tail is
    taken in each round, over all of that round's latencies, and the
    median over rounds is reported: pooled, the 11th largest of a run's
    latencies lands on whichever stretch of seconds the shared machine
    slowed, while a stall the program causes recurs in every round's
    process. Any other figure is the median over rounds, peak memory the
    maximum. A check holds when it holds in every round, and every round
    must have saved and predicted the same bytes.
    """
    figures = [{**b["metrics"], **t["metrics"]} for b, t in rounds]
    metrics = {}
    for name in set().union(*figures):
        values = [f.get(name) for f in figures]
        if None in values:
            metrics[name] = None
        else:
            metrics[name] = max(values) if name.endswith("rss_mb") else statistics.median(values)
    tags = [t for _, t in rounds]
    latencies = sorted(lat for t in tags for lat in t.get("latencies", ()))
    tails = [_tail(sorted(t.get("latencies", ()))) for t in tags]
    tail_detail = [detail for _, detail in tails]
    if any(value is None for value, _ in tails):
        tail = None
    else:
        tail = statistics.median(value for value, _ in tails)
    metrics.update(
        tag_sents_per_s=_ratio(
            sum(lat != math.inf for lat in latencies), sum(t.get("tag_s", 0.0) for t in tags)
        ),
        tag_latency_p50_ms=_ms(statistics.median(latencies)) if latencies else None,
        tag_latency_tail_ms=_ms(tail),
    )
    checks: dict[str, bool] = {}
    for b, t in rounds:
        for name, ok in {**b["checks"], **t["checks"]}.items():
            checks[name] = checks.get(name, True) and ok
    hashes = [{**b["sha"], **t["sha"]} for b, t in rounds]
    checks["rounds_identical"] = all(h == hashes[0] for h in hashes)
    return metrics, checks, hashes[0], tail_detail


def _tail(ordered: list[float]) -> tuple[float | None, dict]:
    """The highest percentile of the sorted latencies that still has 10
    samples above it, i.e. the 11th largest, with its percentile and base."""
    n = len(ordered)
    if n == 0:
        return None, {"samples": 0}
    k = max(n - 11, 0)
    return ordered[k], {"percentile": 100.0 * (k + 1) / n, "above": n - 1 - k, "samples": n}


def _ms(seconds: float | None) -> float | None:
    """Milliseconds; a failed sentence (infinite latency) gives no figure."""
    return None if seconds is None or seconds == math.inf else seconds * 1000.0


def _select(spec: list[dict], values: dict) -> dict:
    return {
        m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in spec
    }


def run(args, bench: dict) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    run_dir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir)
    try:
        runner.call(
            "synth.py",
            "--out", str(run_dir / "inputs"),
            "--seed", str(args.seed),
            "--stream", workload.stream,
            "--count", str(workload.count),
        )
        # A traced run needs the untraced figures only for its outputs and
        # its speed, so one untraced round is enough there.
        seconds = args.seconds / ROUNDS
        rounds = [
            _round(runner, workload, seconds, "plain") for _ in range(1 if args.trace else ROUNDS)
        ]
        metrics, checks, sha, tail = _combine(rounds)
        steps = [step for pair in rounds for step in pair]
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "sha": sha,
            "tail": tail,
            "rounds": [{**b["metrics"], **t["metrics"]} for b, t in rounds],
        }
        if args.trace:
            tbuild, ttag = _round(runner, workload, seconds, "traced", "--trace")
            steps += [tbuild, ttag]
            checks.update({f"traced_{k}": v for k, v in {**tbuild["checks"], **ttag["checks"]}.items()})
            checks["traced_outputs_identical"] = all(
                {**tbuild["sha"], **ttag["sha"]}.get(k) == sha.get(k)
                for k in ("index", "models", "predictions")
            )
            layers = {**ttag["layers"]}
            layers.update({f"build.{k}": v for k, v in tbuild["layers"].items()})
            routed = layers["ensemble.route.el" if workload.route == "el" else "ensemble.route.baseline"]
            checks["traced_routes_as_expected"] = routed == ttag.get("sentences")
            layers["trace.sentences"] = ttag.get("sentences")
            layers["trace.overhead_ratio"] = _ratio(
                ttag["metrics"].get("tag_sents_per_s"), metrics.get("tag_sents_per_s")
            )
            layers["build.trace.overhead_ratio"] = _ratio(
                tbuild["metrics"].get("build_s"), metrics.get("build_s")
            )
            detail["unpatched"] = sorted(set(tbuild["unpatched"] + ttag["unpatched"]))
            selected = _select(bench["per_layer"], layers)
            _keep_spans(run_dir, args.workload)
        else:
            selected = _select(bench["end_to_end"], metrics)
        detail["checks"] = checks
        detail["errors"] = [e for s in steps for e in s["errors"]]
        result = {
            "correct": all(checks.values())
            and all(m["value"] is not None for m in selected.values()),
            "attempted": sum(s["attempted"] for s in steps),
            "failed": sum(s["failed"] for s in steps),
            "metrics": selected,
        }
        return detail, result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _ratio(num, den):
    return num / den if num is not None and den else None


def _keep_spans(run_dir: Path, workload: str) -> None:
    """Keep the latest traced spans of each workload; the run dir goes away."""
    for step in ("build", "tag"):
        src = run_dir / "traced" / f"spans-{step}.json"
        if src.exists():
            shutil.copyfile(src, WORK_ROOT / f"spans-{workload}-{step}.json")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "linkrush").is_dir():
        print(f"error: no linkrush sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        detail, result = run(args, bench)
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
