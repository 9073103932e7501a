"""railswin benchmark: one workload per process, one JSON result line.

    python3 railbench/run.py --workload ablate-nano-block --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

# single-threaded BLAS; must be set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_round(wl, state):
    t0 = time.perf_counter()
    r = wl.run_round(state)
    r.wall = time.perf_counter() - t0
    return r


def measure(wl, state, seconds):
    """Whole rounds until the next one would end after ``seconds``."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(timed_round(wl, state))
        if time.perf_counter() - start + rounds[-1].wall > seconds:
            return rounds


def measure_traced(wl, state, seconds, trace_on, trace_off):
    """Pairs of an untraced and a traced round, until the next pair would end
    after ``seconds``.  Alternating cancels drift in machine speed from the
    overhead estimate."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(timed_round(wl, state))
        trace_on()
        traced.append(timed_round(wl, state))
        trace_off()
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return plain, traced


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "railswin", "__init__.py")):
        print(f"error: railswin sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        layers.install(tracer)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(args.seed, workdir)
        setup_s.append(time.perf_counter() - t0)

    if tracer:
        tracer.uninstall()
        setup_spans, _ = tracer.take()
        rounds = measure(wl, state, 0)  # warm-up, so that neither side of a pair runs cold
        plain, traced = measure_traced(wl, state, args.seconds,
                                       lambda: layers.install(tracer), tracer.uninstall)
        rounds += plain + traced
        round_spans, counts = tracer.take()
    else:
        rounds = measure(wl, state, args.seconds)

    ok = [r for r in rounds if not r.failed]
    for r in rounds:
        if r.failed:
            print(f"round failed: {r.out.get('error', 'command exit code')}", file=sys.stderr)
    correct = bool(ok)
    try:
        if ok:
            wl.check(state, ok)
    except checks.CheckFailed as e:
        correct = False
        print(f"check failed: {e}", file=sys.stderr)

    metrics = {}
    if not tracer and ok:
        metrics = wl.metrics(ok)
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    elif tracer and ok and not any(r.failed for r in traced):
        iter_s = sum(sum(r.out.get("iter_s", ())) for r in traced)
        metrics = layers.per_layer(round_spans, counts, len(traced), setup_spans,
                                   SETUP_REPEATS, wl.ITERATIONS * len(traced), iter_s)
        reference = statistics.median(r.wall for r in plain)
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(r.wall for r in traced) - reference) / reference, "%")
        stem = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}")
        round_spans.write_csv(stem + ".csv")
        with open(stem + ".json", "w") as fh:
            json.dump({"metrics": {k: v for k, (v, _) in metrics.items()},
                       "missing_targets": tracer.missing}, fh, indent=1, sort_keys=True)
        for target in tracer.missing:
            print(f"trace: {target} not found; its metrics read 0", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
