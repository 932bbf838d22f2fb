#!/usr/bin/env python3
"""Served-request benchmark of the ``repro`` max-flow service.

Run one workload from the repository root::

    python3 perfbench/run.py --workload serve-small --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.  On the
closed-loop workloads every end-to-end time is scaled to a reference host
speed by a reference task timed between requests (``hostspeed.py``); the
unscaled figures are printed too.
``--trace 1`` splits the run into two halves: an untraced arm (its p50 is
the base of ``trace.overhead_frac``), then, with the public function of
every layer wrapped, the same inputs again, for the per-layer ledger; the span
tree is written to ``perfbench/out/trace-<workload>-seed<n>.json`` for
``tools/trace_dump.py``.  Every line but the last names a metric with its
unit; the last line is one JSON object.  The exit code is 1 when any
served answer disagrees with its own request's reference, and 2 when the
library cannot be imported from ``src/``.
"""

import os
import sys
import time

# Process hygiene, before NumPy is imported: no behaviour-changing switches,
# and one BLAS/OpenMP thread so two server workers fit two cores.
for _var in ("REPRO_FLOW_KERNEL", "REPRO_FAULT_PLAN", "REPRO_OBS",
             "REPRO_OBS_BUCKETS", "REPRO_BENCH_SCALE"):
    os.environ.pop(_var, None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("serve-small", "serve-large", "serve-analog", "stream-edit")
#: Seed for everyday runs, and one kept back for confirming a claimed gain.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_SAMPLES = 4  # this process plus three fresh ones

E2E_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_library() -> float:
    """Import the library under test from ``src/``; returns the import time."""
    start = time.monotonic()
    sys.path.insert(0, SRC)
    try:
        import numpy  # noqa: F401
        import repro
        import workloads  # noqa: F401 - imports every repro module it drives
    except ImportError as exc:
        print(f"cannot import the library from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"repro was imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return time.monotonic() - start


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up ---------------------------------------------------------------


async def timed_server(workload: str):
    from workloads import start_server, warm_requests
    from tracer import clock

    warm = warm_requests(workload)
    start = clock()
    server = await start_server(warm)
    return server, clock() - start


def timed_session():
    from workloads import open_session, stream_base
    from tracer import clock

    base = stream_base()
    start = clock()
    session = open_session(base)
    return session, clock() - start


def setup_only(workload: str, seed: int, import_s: float) -> float:
    """One set-up sample: import, construction and warm-up, host-scaled."""
    from hostspeed import HostMeter

    meter = HostMeter(workload)
    meter.sample()
    if workload == "stream-edit":
        seconds = timed_session()[1]
    else:
        async def once() -> float:
            server, seconds = await timed_server(workload)
            await server.aclose()
            return seconds

        seconds = asyncio.run(once())
    meter.sample()
    return (import_s + seconds) * meter.scale_at(meter.samples[0][1])


def setup_samples(args) -> list:
    """Set-up times of fresh processes (lazy module state is paid anew)."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# -- measurement ---------------------------------------------------------


def summarise(latencies, ok: int, wall: float, workload: str, seconds: float) -> dict:
    from ledger import percentile, tail_level
    from workloads import SLOW_RATE

    level = tail_level(SLOW_RATE[workload] * seconds)
    ms = [1e3 * x for x in latencies]
    tail = percentile(ms, level)
    return {
        "throughput_rps": ok / wall if wall > 0 else 0.0,
        "latency_p50_ms": percentile(ms, 50),
        "latency_tail_ms": tail,
        "tail_level": level,
        "tail_beyond": sum(1 for x in ms if x > tail),
        "samples": len(ms),
    }


def check_served(requests, oracle) -> dict:
    """Status counts and oracle verdicts for one serving arm."""
    wrong, rel_errs, bad = 0, [], 0
    for request in requests:
        if request.status != 200:
            bad += 1
            print(f"status {request.status}: {request.detail}", file=sys.stderr)
            continue
        try:
            err = oracle.check(request)
        except AssertionError as exc:
            wrong += 1
            print(f"wrong answer: {exc}", file=sys.stderr)
            continue
        if err is not None:
            rel_errs.append(err)
    return {"non_ok": bad, "wrong": wrong, "rel_errs": rel_errs}


def scaled_figures(meter, intervals, ok: int, wall: tuple, workload: str,
                   seconds: float) -> dict:
    """Figures at the reference host speed, with the raw ones beside them.

    ``intervals`` are the ``(start, end)`` of the answered requests and
    ``wall`` the intervals whose scaled sum is the run's measured time.
    """
    figures = summarise([meter.normalise(a, b) for a, b in intervals], ok,
                        sum(meter.normalise(a, b) for a, b in wall), workload, seconds)
    raw = summarise([b - a for a, b in intervals], ok,
                    sum(b - a for a, b in wall), workload, seconds)
    figures["raw"] = {k: raw[k] for k in ("throughput_rps", "latency_p50_ms",
                                          "latency_tail_ms")}
    figures["host"] = meter.describe()
    return figures


async def serve_arm(args, oracle, meter, tracer=None):
    """One serving arm on a fresh, warmed server; returns its figures."""
    from workloads import serve_workload

    load = serve_workload(args.workload, args.seed, args.seconds)
    load.prepare(oracle)
    gc.collect()
    meter.sample()
    server, setup_s = await timed_server(args.workload)
    setup_at = meter.samples[-1][1]
    await load.prime(server)
    gc.collect()  # the window starts without the set-up's garbage
    requests = await load.drive(server, meter, tracer)
    stats = server.stats()
    await server.aclose()
    if tracer is not None:
        tracer.stop()
    ok = [r for r in requests if r.status == 200]
    start, end = min(r.due for r in requests), max(r.done for r in requests)
    figures = scaled_figures(meter, [(r.due, r.done) for r in ok], len(ok),
                             [(start, end)], args.workload, args.seconds)
    verdict = check_served(requests, oracle)
    lags = [1e3 * (r.sent - r.due) for r in requests]
    return {
        **figures, **verdict, "setup_s": setup_s * meter.scale_at(setup_at),
        "requests": requests,
        "stats": stats, "wall": end - start, "attempted": len(requests), "lags": lags,
    }


def stream_arm(args, meter, tracer=None):
    from workloads import StreamEdit

    gc.collect()
    meter.sample()
    session, setup_s = timed_session()
    setup_at = meter.samples[-1][1]
    gc.collect()
    out = StreamEdit(args.seed, args.seconds).run(session, meter, tracer)
    if tracer is not None:
        tracer.stop()
    pushes = out["pushes"]
    figures = scaled_figures(meter, pushes, len(pushes) - out["errors"], pushes,
                             args.workload, args.seconds)
    print(f"stream-edit: {out['checked']} revisions cross-checked against a cold "
          f"reference solve, {out['wrong']} disagreed")
    return {
        **figures, "setup_s": setup_s * meter.scale_at(setup_at),
        "attempted": len(pushes), "wrong": out["wrong"],
        "non_ok": out["errors"], "rel_errs": [], "warm": out["warm"], "lags": [],
    }


def run_arm(args, oracle, tracer=None) -> dict:
    from hostspeed import HostMeter

    meter = HostMeter(args.workload)
    if args.workload == "stream-edit":
        return stream_arm(args, meter, tracer)
    return asyncio.run(serve_arm(args, oracle, meter, tracer))


def traced_ledger(args, oracle, untraced: dict):
    """Second arm with every probe installed; per-layer metrics + trace file."""
    from ledger import add_server_spans, layer_metrics, percentile, stream_metrics
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    arm = run_arm(args, oracle, tracer)
    tracer.check_liveness(args.workload)
    if args.workload == "stream-edit":
        layers = stream_metrics(tracer.roots, arm["warm"], arm["attempted"])
        roots = tracer.roots
    else:
        requests = arm["requests"]
        add_server_spans(requests)
        layers = layer_metrics(requests, arm["stats"], arm["wall"])
        roots = [r.root for r in requests if not r.coalesced]
    layers["loadgen.lag_p99_ms"] = percentile(arm["lags"], 99)
    layers["trace.overhead_frac"] = (
        arm["latency_p50_ms"] / untraced["latency_p50_ms"] - 1.0
    )
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.document(roots, workload=args.workload, seed=args.seed,
                                  environment=environment()), fh)
    print(f"trace document: {os.path.relpath(path, ROOT)} ({len(roots)} roots)")
    return arm, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "stream-edit":
        # One thread does all of this workload's work.  Pinned to one core,
        # it runs on the core the host meter times.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import_s = load_library()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_only(args.workload, args.seed, import_s)}))
        return 0

    from ledger import complete, percentile
    from workloads import Oracle

    samples = setup_samples(args)
    if args.trace:
        # Two arms share the run length, so a traced run takes as long as
        # an untraced one.
        args.seconds /= 2
    oracle = Oracle()
    arm = run_arm(args, oracle)
    samples.append(import_s + arm["setup_s"])
    arms = [arm]
    if args.trace:
        traced, layers = traced_ledger(args, oracle, arm)
        arms.append(traced)

    attempted = sum(a["attempted"] for a in arms)
    wrong = sum(a["wrong"] for a in arms)
    failed = wrong + sum(a["non_ok"] for a in arms)
    rel_err = percentile(arm["rel_errs"], 50)
    e2e = {
        "setup_s": statistics.median(samples),
        "throughput_rps": arm["throughput_rps"],
        "latency_p50_ms": arm["latency_p50_ms"],
        "latency_tail_ms": arm["latency_tail_ms"],
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}"
          f"{' per arm' if args.trace else ''}  trace: {args.trace}  (default seed "
          f"{DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})")
    print("environment: " + json.dumps(environment()))
    for name, unit in E2E_UNITS.items():
        print(f"{name}: {e2e[name]:.6g} {unit}")
    print(f"failed_frac: {failed / attempted:.6g} frac")
    print(f"rel_err_p50: {rel_err:.6g} frac")
    print(f"latency tail = p{arm['tail_level']:g} over {arm['samples']} samples, "
          f"{arm['tail_beyond']} beyond it; setup samples "
          + ", ".join(f"{s:.3f}" for s in samples) + " s")
    raw = arm["raw"]
    print(f"host speed: {arm['host']}; unscaled throughput "
          f"{raw['throughput_rps']:.6g} 1/s, p50 {raw['latency_p50_ms']:.6g} ms, "
          f"tail {raw['latency_tail_ms']:.6g} ms")
    if arm["lags"]:
        print(f"load generator lag p99: {percentile(arm['lags'], 99):.3f} ms")

    if args.trace:
        layers["failed_frac"] = failed / attempted
        layers["rel_err_p50"] = rel_err
        metrics = complete(layers)
        for name, (value, unit) in metrics.items():
            print(f"{name}: {value:.6g} {unit}")
    else:
        metrics = {name: (e2e[name], unit) for name, unit in E2E_UNITS.items()}
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
