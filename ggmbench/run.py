"""ggm benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 ggmbench/run.py --workload surface_gghz3 --seed 1 --seconds 36 --trace 0

``--trace 0`` repeats the workload until ``--seconds`` would be exceeded and
reports the end-to-end metrics: the mean wall time of a repetition over
the run, set-up time (median over fresh processes) and peak RSS;
``generic_states`` also prints its ``ggm_pure`` call latency.

A shared host's speed drifts by tens of percent over tens of seconds.  So
repetitions take 1-2 s, a run holds a dozen or more of them, and the time
per repetition is averaged over the whole run, the first (warm-up) one left
out: across seeds the mean spread less than the median or the fastest
repetition did (README.md gives the figures).

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of :mod:`tracer` and the tracing overhead; the run is
correct only if the traced outputs are byte-identical to the untraced ones.

Every operation's output is checked (see :mod:`workloads`).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, environment
included, is also saved under ``.bench_out/results``.  Without a ggm source
tree under ``src/`` the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import common
import tracer

WORKLOAD_NAMES = ("surface_gghz3", "verify_large_n", "generic_states")
SETUP_PROBES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure_setup(workload: str, seed: int, workdir) -> list[float]:
    """Set-up time of fresh processes: interpreter start, imports, inputs."""
    times = []
    for k in range(SETUP_PROBES):
        start = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, str(common.BENCH_DIR / "probe.py"), workload, str(seed),
             str(workdir / f"probe{k}")],
            cwd=common.ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append((int(done.stdout.split()[-1]) - start) / 1e9)
    return times


def git_commit() -> str:
    """Commit of the checkout read from ``.git``, or "unknown" outside git."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {key: os.environ.get(key) for key in common.THREAD_ENV},
        "seed": seed,
        "commit": git_commit(),
    }


def untraced(workload, inputs, seconds, setup_times, record):
    """Repeat while the next repetition should still end within ``seconds``.

    At least two repetitions run, so that one remains after the warm-up.
    """
    reps, walls = [], []
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start + walls[-1] <= seconds:
        t0 = time.perf_counter()
        reps.append(workload.rep(inputs))
        walls.append(time.perf_counter() - t0)
    record["setup_times_s"] = setup_times
    latencies = [ms for rep in reps for ms in rep.latencies_ms]
    if latencies:
        record["latency"] = {
            "pure_call_p50_ms": statistics.median(latencies),
            "pure_call_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
            "samples": len(latencies)}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return reps, walls, {
        "wall_s": {"value": statistics.fmean(walls[1:]), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def traced(workload, inputs, seconds, spans_path):
    """Alternate untraced and traced repetitions; per-layer metrics of the latter.

    The overhead is the mean traced repetition minus the mean untraced one,
    the reading ``wall_s`` takes.  The first repetition is untraced and
    warms the process up, so it is left out when there are later untraced
    ones.
    """
    trace = tracer.Tracer()
    reps, walls = [], []
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start + max(walls[-2:]) <= seconds:
        tracing = len(walls) % 2 == 1
        trace.run_id = f"rep{len(walls) // 2}"
        t0 = time.perf_counter()
        if tracing:
            with trace:
                reps.append(workload.rep(inputs))
        else:
            reps.append(workload.rep(inputs))
        walls.append(time.perf_counter() - t0)
    plain, traced_walls = walls[0::2], walls[1::2]
    layers = tracer.median_metrics(
        [tracer.layer_metrics(trace.spans, f"rep{i}") for i in range(len(traced_walls))])
    untraced_s = statistics.fmean(plain[1:] or plain)
    layers["trace.overhead_s"] = statistics.fmean(traced_walls) - untraced_s
    layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / untraced_s
    units = tracer.metric_units()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    trace.write(spans_path)
    return reps, walls, {k: {"value": v, "unit": units[k]} for k, v in layers.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.prepare()
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    workdir = common.OUT / "work" / tag
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = [] if args.trace else measure_setup(args.workload, args.seed, workdir)
        import workloads

        workload = workloads.WORKLOADS[args.workload]
        inputs = workloads.setup(args.workload, args.seed, workdir / "main")
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": environment(args.seed)}
        if args.trace:
            reps, walls, metrics = traced(workload, inputs, args.seconds,
                                          common.OUT / "spans" / f"{tag}.csv.gz")
        else:
            reps, walls, metrics = untraced(workload, inputs, args.seconds, setup_times, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(rep.attempted for rep in reps)
    failures = [f for rep in reps for f in rep.failures]
    # Every repetition, traced or not, must reproduce the same output bytes.
    digests = sorted({rep.digest.hexdigest() for rep in reps})
    identical = len(digests) == 1
    correct = not failures and identical
    record.update({
        "correct": correct, "walls_s": walls, "metrics": metrics, "attempted": attempted,
        "failed": len(failures), "failures": failures[:20], "error_rate": len(failures) / attempted,
        "outputs_identical": identical, "output_digests": digests,
    })
    (common.OUT / "results").mkdir(parents=True, exist_ok=True)
    (common.OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))

    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    if not identical:
        print("FAILED repetitions produced different outputs", file=sys.stderr)
    print(f"environment: {json.dumps(record['env'], sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} repetitions={len(walls)} "
          f"error_rate={len(failures) / attempted:.6g} ratio "
          f"({len(failures)} failed of {attempted} operations)")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if "latency" in record:
        latency = record["latency"]
        print(f"  pure_call_p50_ms = {latency['pure_call_p50_ms']:.6g} ms, "
              f"pure_call_p90_ms = {latency['pure_call_p90_ms']:.6g} ms "
              f"(ggm_pure on 8-qubit states, {latency['samples']} calls; not gated)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
