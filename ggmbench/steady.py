"""Steadiness check and baseline record for the benchmark.

Runs ``run.py`` once per seed and workload, untraced, then traced on the
``--traced-seeds``, one process at a time.  For every end-to-end metric it
reports the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, the distance between the quartiles as a share of the
median, next to the metric's bound in ``BENCHMARK.json``.  Traced runs give
the per-layer table, the tracing overhead, and whether the traced outputs
are byte-identical to the untraced run of the same seed.

    python3 ggmbench/steady.py --seeds 1-10 --traced-seeds 1,2 --out ggmbench/baseline.json

With ``--out``, workloads already in the file and not run now are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark process; returns its saved record plus its wall time."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=common.ROOT, stdout=subprocess.PIPE, text=True)
    stdout, _ = proc.communicate(timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    tag = f"{workload}-s{seed}-t{trace}-p{proc.pid}"
    record = json.loads((common.OUT / "results" / f"{tag}.json").read_text())
    record["process_s"] = time.monotonic() - start
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} "
          f"process={record['process_s']:.1f}s "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                     if not trace or k.startswith("trace.")), flush=True)
    return record


def spread(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / median
    stats = {"median": median, "q1": q1, "q3": q3, "spread": share, "values": values}
    if bound is not None:
        stats.update(bound=bound, within_third_of_bound=share < bound / 3)
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, help="comma-separated (default all)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    layer_names = {m["name"] for m in bench["per_layer"]}
    seconds = bench["run_seconds"]

    doc = {"workloads": {}}
    if args.out and Path(args.out).is_file():
        doc = json.loads(Path(args.out).read_text())
    for name in names:
        untraced = {s: run_once(name, s, seconds, 0) for s in parse_seeds(args.seeds)}
        traced = {s: run_once(name, s, seconds, 1) for s in parse_seeds(args.traced_seeds)}
        records = list(untraced.values()) + list(traced.values())
        for record in untraced.values():
            assert set(record["metrics"]) == set(bounds), "end-to-end names differ"
        for record in traced.values():
            assert set(record["metrics"]) == layer_names, "per-layer names differ"
        entry = {
            "why": why[name],
            "runs": len(untraced),
            "seeds": sorted(untraced),
            "all_correct": all(r["correct"] for r in records),
            "error_rate": {
                "failed": sum(r["failed"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "base": "operations over all runs: one CLI call, surface, pure state or bound each",
            },
            "process_s_max": max(r["process_s"] for r in records),
            "end_to_end": {
                metric: spread([r["metrics"][metric]["value"] for r in untraced.values()],
                               bound)
                for metric, bound in bounds.items()} if untraced else {},
        }
        latencies = [r["latency"] for r in untraced.values() if "latency" in r]
        if latencies:
            entry["latency_not_gated"] = {
                key: spread([lat[key] for lat in latencies], None)
                for key in ("pure_call_p50_ms", "pure_call_p90_ms")}
            entry["latency_samples_per_run_min"] = min(lat["samples"] for lat in latencies)
        if traced:
            layers = {key: statistics.median(r["metrics"][key]["value"] for r in traced.values())
                      for key in sorted(layer_names)}
            entry["traced"] = {
                "runs": len(traced),
                "seeds": sorted(traced),
                "tracing_overhead_s": layers["trace.overhead_s"],
                "tracing_overhead_ratio": layers["trace.overhead_ratio"],
                "outputs_identical_within_runs": all(
                    r["outputs_identical"] for r in traced.values()),
                "outputs_identical_to_untraced": all(
                    traced[s]["output_digests"] == untraced[s]["output_digests"]
                    for s in traced if s in untraced),
                "per_layer_median": layers,
            }
        doc["workloads"][name] = entry
        doc["env"] = records[0]["env"]
        doc["run_seconds"] = seconds
        for metric, stats in {**entry["end_to_end"], **entry.get("latency_not_gated", {})}.items():
            bound = stats.get("bound")
            flag = "" if bound is None or stats["within_third_of_bound"] else \
                ("  EXCEEDS BOUND" if stats["spread"] > bound else "  above bound/3")
            print(f"{name:16s} {metric:18s} median={stats['median']:.5g} "
                  f"q1={stats['q1']:.5g} q3={stats['q3']:.5g} "
                  f"spread={stats['spread']:.4f} bound={bound}{flag}")
        if args.out:
            Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
