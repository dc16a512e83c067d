"""Run one workload in this (fresh) interpreter and print one JSON line.

    python3 benchmarks/worker.py --workload exchange --seed 3 --seconds 40 --trace 0

The clock for set-up time starts before ``import idstat``.  ``--setup-only``
stops once the inputs are built.  Otherwise the worker runs passes over the
workload's fixed op list, one op at a time, until another pass would not
fit in ``--seconds`` (at least one pass; with ``--trace 1`` at least one
untraced and one traced pass, alternating).  Each op is timed alone, its
output checked afterwards outside the timed region, and a failed op (it
raised, exited non-zero, or missed its oracle) still counts in every
timing.  After each op a reference loop gauges the host's speed (see
GAUGE_SHARE).  ``run.py`` starts this script; run it directly only to debug.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import idstat  # noqa: E402

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import asdict  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = BENCH / "out"

# On a shared host, neighbours can slow this process by up to 1.6x for a
# minute or more (seen on a 2-core x86_64 VM), and raw wall times of
# identical passes then spread by 0.2 to 0.4 between runs.  After each op,
# outside its timed region, the worker runs a fixed reference loop for this
# share of the op's time; wall_ref is the pass's op time in units of that
# loop's duration, measured alongside it.
GAUGE_SHARE = 0.15


def reference_unit():
    """Fixed Python and small-numpy work, independent of idstat."""
    terms = {}
    for i in range(400):
        key = (i % 5, i % 7, i % 3, 0, 1, 2)
        terms[key] = terms.get(key, 0j) + complex(i, -i) / 7.0
    v = np.arange(8.0)
    total = 0.0
    for i in range(40):
        total += float(np.prod(v + i))
    return sorted(terms.items()), total


def gauge(budget: float) -> tuple[int, float]:
    """Run reference units for at least budget seconds; (units, seconds)."""
    units = 0
    start = time.perf_counter()
    while True:
        reference_unit()
        units += 1
        spent = time.perf_counter() - start
        if spent >= budget:
            return units, spent


def execute(op: workloads.Op) -> tuple[float, str | None]:
    """Time one op; return (seconds, None) or (seconds, why it failed)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            output = op.call()
        except Exception as exc:  # an op that raises is a failed op
            return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    try:
        miss = op.check(output)
    except Exception as exc:  # unparsable output misses its oracle
        miss = f"output unreadable: {type(exc).__name__}: {exc}"
    if miss and err.getvalue():
        miss += f" [stderr: {err.getvalue().strip().splitlines()[-1]}]"
    return elapsed, miss


def run_pass(ops, tracer=None, pass_no=0) -> dict:
    """One pass over the op list; op times summed into wall_s and groups."""
    times = []
    failures = []
    units = spent = 0
    for i, op in enumerate(ops):
        gc.collect()
        if tracer is not None:
            tracer.op = (pass_no, i)
        elapsed, miss = execute(op)
        times.append(elapsed)
        if miss:
            failures.append(f"{op.name}: {miss}")
        more_units, more_spent = gauge(GAUGE_SHARE * elapsed)
        units += more_units
        spent += more_spent
    groups = {}
    for op, elapsed in zip(ops, times):
        if op.group:
            groups[op.group] = groups.get(op.group, 0.0) + elapsed
    return {"traced": tracer is not None, "wall_s": sum(times),
            "unit_s": spent / units, "groups": groups, "ops": len(ops),
            "failures": failures}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def measure(ops, seconds: float, trace: bool, label: str) -> dict:
    tracer = tracing.Tracer() if trace else None
    passes, layers, spans_out = [], [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.perf_counter()
        if traced:
            with tracer.installed():
                passes.append(run_pass(ops, tracer, len(passes)))
            spans = tracer.take()
            layers.append(tracing.layer_metrics(spans))
            spans_out += spans
        else:
            passes.append(run_pass(ops))
        now = time.perf_counter()
        if len(passes) >= (2 if trace else 1) and now - start + (now - began) > seconds:
            break

    untraced = [p for p in passes if not p["traced"]]
    metrics = {"wall_s": statistics.median(p["wall_s"] for p in untraced),
               "wall_ref": statistics.median(p["wall_s"] / p["unit_s"] for p in untraced)}
    for group in sorted({g for p in untraced for g in p["groups"]}):
        metrics[group] = statistics.median(p["groups"][group] for p in untraced)
    attempted = sum(p["ops"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    metrics["fail_frac"] = len(failures) / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        for name in tracing.LAYER_METRICS:
            metrics[name] = statistics.median(layer[name] for layer in layers)
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        metrics["trace.overhead_s"] = traced_wall - metrics["wall_s"]
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{label}.jsonl", "w") as fh:
            for span in spans_out:
                fh.write(json.dumps(asdict(span)) + "\n")
    return {"passes": len(passes), "untraced_walls": [p["wall_s"] for p in untraced],
            "unit_s": statistics.median(p["unit_s"] for p in passes),
            "attempted": attempted, "failed": len(failures),
            "failures": sorted(set(failures)), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    source = Path(idstat.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"error: idstat imported from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        ops = workloads.build(args.workload, args.seed, args.size == "smoke", Path(workdir))
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            label = f"{args.workload}-seed{args.seed}"
            result = measure(ops, args.seconds, bool(args.trace), label)
            result.update(setup_s=setup_s, env=environment(),
                          ops=[op.name for op in ops])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
