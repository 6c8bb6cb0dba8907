#!/usr/bin/env python3
"""Benchmark of hybridprec: design time and design quality on three workloads.

    python3 bench/run.py --workload reference-sd --seed 1 --seconds 45 --trace 0

Runs whole rounds of the workload until `--seconds` have passed, checks every
design, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics of a traced run with `--trace 1`. The environment line,
the result and (when traced) every span are also written to `.bench_out/`.
"""

import time

_START = time.perf_counter()

import envpin  # noqa: E402  (before numpy: BLAS reads its thread count at load)

envpin.pin()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("reference-sd", "reference-ep", "desk-sweep")
SETUP_PROBES = 2  # fresh processes, on top of this one, timed for setup_s


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in envpin.THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def setup_probe(workload: str) -> float:
    """Seconds a fresh process takes to import the package and warm up."""
    out = subprocess.run([sys.executable, str(BENCH / "probe.py"), workload],
                         capture_output=True, text=True, timeout=150, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"setup probe failed: {out.stderr.strip()}")
    return float(out.stdout.split()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import hybridprec from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import tracing

    OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, OUT)
    workload.warm_up()
    setup = [time.perf_counter() - _START]
    setup += [setup_probe(args.workload) for _ in range(SETUP_PROBES)]

    rng = np.random.default_rng(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    seconds = []
    with tracing.patched(workload.replacements()):
        with tracing.patched(tracer.replacements(workloads.MODULES) if tracer else []):
            t0 = time.perf_counter()
            while True:
                seconds += workload.round(rng)
                elapsed = time.perf_counter() - t0 - workload.check_s  # checks paused
                if elapsed >= args.seconds:
                    break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    quality, failures = workload.verify()
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    trials_per_s = len(seconds) / elapsed
    if tracer:
        metrics = tracing.per_layer_metrics(tracer, max(len(seconds), 1), trials_per_s,
                                            quality["ep_analog_gap"])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "trials_per_s": {"value": trials_per_s, "unit": "1/s"},
            "trial_s_p50": {"value": statistics.median(seconds) if seconds else elapsed,
                            "unit": "s"},
            "sum_rate_bps_hz": {"value": quality["sum_rate_bps_hz"], "unit": "bit/s/Hz"},
            "nmse": {"value": quality["nmse"], "unit": "ratio"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    ok = not failures and workload.failed == 0
    result = {"correct": ok, "attempted": workload.attempted,
              "failed": workload.failed, "metrics": metrics}
    env = environment()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "env": env, "setup_samples_s": setup, "trial_seconds": seconds,
              "failures": failures, "result": result}
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(tracer.records()) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
