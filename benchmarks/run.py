"""idstat benchmark: seeded, oracle-checked workloads, end to end and per layer.

    python3 benchmarks/run.py --workload {kinetics,exchange,spectra,all} \\
        --seed N --seconds S --trace {0,1} [--size {full,smoke}]

Run from anywhere; the program under test is ``src/idstat`` of the checkout
that holds this directory.  Each workload runs in fresh interpreters
started one at a time, with BLAS pinned to one thread: first set-up probes
(``setup_s`` is the median over them and the measuring run, scaled by
the speed gauge), then one
process that runs the workload as a closed loop, one op at a time, for
``--seconds``.  With ``--trace 0`` the report gives the end-to-end
metrics; with ``--trace 1`` it gives the per-layer metrics of a traced run
and the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the ``metrics`` listed
in BENCHMARK.json.  Failed ops are counted, not hidden; the exit code is
non-zero only when the benchmark itself cannot run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import LAYER_METRICS  # stdlib only: run.py never loads numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("kinetics", "exchange", "spectra")

# Fresh interpreters that only set up, in addition to the measuring one.  Half
# run before the measuring interpreter and half after it, so that the median
# spans the run rather than the few seconds a burst of probes would take.
SETUP_PROBES = 4

# setup_s is the clock reading scaled by NOMINAL_UNIT_S / the run's measured
# reference-loop time (see GAUGE_SHARE in worker.py), so that a host running
# slow for the whole run does not read as slower set-up.  One loop iteration
# takes about 0.4 ms on an idle x86_64 core under Python 3.11, so on such a
# core setup_s and the clock reading agree.
NOMINAL_UNIT_S = 4e-4

LAYER_UNITS = {**LAYER_METRICS, "trace.overhead_s": "s"}

# Units of every end-to-end metric; a workload reports the op-group sums
# (balance_s, ...) only when it runs such ops.
END_TO_END_UNITS = {
    "setup_s": "s", "setup_clock_s": "s", "wall_s": "s", "wall_ref": "ref",
    "fail_frac": "ratio", "peak_rss_mb": "MB",
    "balance_s": "s", "distribute_maxent_s": "s", "symmetrize_s": "s",
    "selftest_s": "s",
}

# The metrics of the final JSON line, as listed in BENCHMARK.json: those
# that every listed workload reports, times that are never zero there, and
# counts.
REPORTED_END_TO_END = ("setup_s", "wall_ref", "peak_rss_mb")
REPORTED_PER_LAYER = (
    "symmetry.permanent.self_s", "cli.run.self_s", "trace.overhead_s",
    "symmetry.permanent.calls", "symmetry.symmetrize.terms_out",
    "symmetry.symmetrize.kept_frac", "symmetry.antisymmetrize.terms_out",
    "symmetry.antisymmetrize.kept_frac", "symmetry.scalar_product.term_pairs",
    "distributions.max_entropy_on_levels.iterations",
    "distributions.solve_mu_on_levels.calls", "spinstat.exchange_phase.calls",
    "cli.run.out_bytes",
)


class BenchError(Exception):
    pass


def _worker(argv: list[str], env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py")] + argv
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(argv)} ran past {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, env: dict) -> dict:
    common = ["--workload", name, "--seed", str(args.seed), "--size", args.size]
    timeout = args.seconds + 120.0
    probes = 0 if args.trace else SETUP_PROBES

    def probe():
        return _worker(common + ["--setup-only"], env, timeout)["setup_s"]

    setups = [probe() for _ in range(probes // 2)]
    result = _worker(common + ["--seconds", str(args.seconds),
                               "--trace", str(args.trace)], env, timeout)
    setups += [result["setup_s"]] + [probe() for _ in range(probes - probes // 2)]
    result["setup_samples"] = setups
    clock = statistics.median(setups)
    result["metrics"].update(setup_clock_s=clock,
                             setup_s=clock * NOMINAL_UNIT_S / result["unit_s"])
    return result


def report(name: str, args, result: dict) -> None:
    m = result["metrics"]
    print(f"== {name}  seed {args.seed}  size {args.size}  trace {args.trace}: "
          f"{result['passes']} passes, {result['attempted']} ops, "
          f"{result['failed']} failed")
    print("env " + json.dumps(result["env"], sort_keys=True))
    walls = ", ".join(f"{w:.4f}" for w in result["untraced_walls"])
    notes = {"setup_s": "setup_clock_s at the nominal reference-loop speed",
             "setup_clock_s": f"median of {len(result['setup_samples'])} fresh interpreters",
             "wall_s": f"median over untraced passes [{walls}]",
             "wall_ref": "wall_s in reference-loop units, median over passes"}
    for key, unit in END_TO_END_UNITS.items():
        if key in m:
            print(f"  {key:<48} {m[key]:>14.6g} {unit:<6} {notes.get(key, '')}")
    if args.trace:
        for key, unit in LAYER_UNITS.items():
            print(f"  {key:<48} {m[key]:>14.6g} {unit}")
    for failure in result["failures"][:8]:
        print(f"  FAILED {failure}")


def final_line(results: dict, trace: bool) -> dict:
    names = REPORTED_PER_LAYER if trace else REPORTED_END_TO_END
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    prefix = len(results) > 1
    metrics = {}
    for workload, result in results.items():
        for key in names:
            label = f"{workload}.{key}" if prefix else key
            metrics[label] = {"value": result["metrics"][key], "unit": units[key]}
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every op, for checking the harness")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "idstat" / "__init__.py").is_file():
        print(f"error: no idstat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "IDSTAT_SEED"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, env)
            report(name, args, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = final_line(results, bool(args.trace))
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "results": results, "line": line}, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
