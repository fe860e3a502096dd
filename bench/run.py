#!/usr/bin/env python3
"""Benchmark of the henon_morse pipeline: end-to-end and per-layer metrics.

    python3 bench/run.py --workload headline_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Results, the environment block and (traced) spans are also written to
``.bench_out/results/``.  See ``bench/README.md`` for the definitions.
"""

import os
import sys
import time

T_START = time.perf_counter()
# pin the BLAS / OpenMP pools before numpy is imported anywhere
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("headline_sweep", "branch_mix", "certify")
SETUP_REPS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    from tracer import COUNTERS, ERROR_COUNTERS, SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    units.update({c: "count" for c in COUNTERS + ERROR_COUNTERS + ["errors.other"]})
    units.update({
        "radial_bvp.ivp_useful_ratio": "ratio",
        "nonlinearity.grad.points_per_call": "points/call",
        "cli.self_s": "s",
        "process.cpu_s": "s",
        "machine.calib_s": "s",
        "trace.wall_s": "s",
    })
    return units


def calibrate():
    """A fixed pure-Python, numpy and scipy kernel; its time tracks the machine's speed.

    The scipy part integrates u'' = -u^3 with RK45 and a Python right-hand
    side, the same kind of work that dominates shooting.
    """
    import numpy as np
    from scipy.integrate import solve_ivp

    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    a = np.random.default_rng(0).standard_normal((200, 200))
    for _ in range(10):
        a = np.tanh(a @ a / 200.0)
    solve_ivp(lambda t, y: (y[1], -y[0] ** 3), (0.0, 20.0), (0.0, 1.0), rtol=1e-10, atol=1e-10)
    return time.perf_counter() - t0


def environment():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def import_seconds():
    """Import time of the package in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import henon_morse.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def setup(runner, cases, reps, first_import_s):
    """Median over ``reps`` set-ups of import + input generation (+ profile solves)."""
    samples, problems = [], []
    for rep in range(reps):
        imp = first_import_s if rep == 0 else import_seconds()
        samples.append(imp + runner.prepare(cases, f"setup{rep}"))
        problems += runner.check_setup(cases, f"setup{rep}")
    return statistics.median(samples), samples, problems


def op_count(case):
    return len(case["alphas"]) if case["kind"] == "sweep" else 1


def run_pass(runner, cases):
    """One closed-loop pass over the cases; returns [(op id, seconds, problems)]."""
    ops = []
    for case in cases:
        try:
            ops += runner.run_case(case, "setup0")
        except Exception:  # an unexpected error fails the case's operations
            err = traceback.format_exc(limit=3).strip().splitlines()[-1]
            ops += [(case["id"], 0.0, [f"raised {err}"])] * op_count(case)
    return ops


def measure(runner, cases, seconds, tracer):
    """Passes while another one is expected to end within ``seconds`` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        mark = tracer.mark() if tracer else None
        cpu0, t0 = runner.cpu_s, time.perf_counter()
        ops = run_pass(runner, cases)
        rec = {"seconds": sum(s for _, s, _ in ops), "cpu_s": runner.cpu_s - cpu0,
               "ops": ops}
        if tracer:
            rec["spans"], rec["roots"], rec["counts"] = tracer.summary(mark)
        passes.append(rec)
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            return passes


def layer_metrics(passes, calib):
    """Per-layer metrics: work counts of the first pass, medians of the times."""
    from tracer import COUNTERS, ERROR_COUNTERS

    med = statistics.median
    first = passes[0]
    out = {}
    for key, val in first["spans"].items():
        if key.endswith(".calls"):
            out[key] = val
        else:
            out[key] = med(p["spans"][key] for p in passes)
    counts = first["counts"]
    for key in COUNTERS + ERROR_COUNTERS:
        out[key] = counts.get(key, 0)
    out["errors.other"] = sum(v for k, v in counts.items()
                              if ".errors." in k and k not in ERROR_COUNTERS)
    ivp = out["radial_bvp.ivp.calls"]
    out["radial_bvp.ivp_useful_ratio"] = out["radial_bvp.shoot.calls"] / ivp if ivp else 0.0
    calls = out["nonlinearity.grad.calls"]
    points = out["nonlinearity.grad.points"]
    out["nonlinearity.grad.points_per_call"] = points / calls if calls else 0.0
    out["cli.self_s"] = med(p["seconds"] - p["roots"] for p in passes)
    out["process.cpu_s"] = med(p["cpu_s"] for p in passes)
    out["machine.calib_s"] = med(calib)
    out["trace.wall_s"] = med(p["seconds"] for p in passes)
    return out


def counters_repeat(passes):
    """Problems if a later pass did different work than the first."""
    def work(p):
        return ({k: v for k, v in p["spans"].items() if k.endswith(".calls")}, p["counts"])

    return [f"pass {i}: work counters differ from pass 0"
            for i, p in enumerate(passes[1:], 1) if work(p) != work(passes[0])]


def run_workload(workload, cases, seconds, trace, reference, workdir, reps, import_s):
    """Set up, measure and check one workload; returns the result record."""
    from tracer import Tracer
    from workloads import Runner

    runner = Runner(workdir, reference)
    setup_s, setup_samples, problems = setup(runner, cases, reps, import_s)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
    calib = [calibrate() for _ in range(3)]
    try:
        passes = measure(runner, cases, seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    calib += [calibrate() for _ in range(3)]

    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for _, _, bad in ops if bad)
    problems += [f"{oid}: {msg}" for oid, _, bad in ops for msg in bad]
    record = {}
    if trace:
        metrics = layer_metrics(passes, calib)
        problems += counters_repeat(passes)
        record["errors"] = {k: v for k, v in passes[0]["counts"].items() if ".errors." in k}
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p["seconds"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    record.update({
        "workload": workload,
        "cases": [c["id"] for c in cases],
        "passes": [{"seconds": p["seconds"], "ops": [(o, s) for o, s, _ in p["ops"]]}
                   for p in passes],
        "setup_samples": setup_samples,
        "calib_s": calib,
        "attempted": len(ops),
        "failed": failed,
        "fail_ratio": failed / len(ops),
        "problems": problems,
        "metrics": metrics,
    })
    return record, tracer


def emit(record, units, env):
    """Human-readable lines, then the one-line JSON result."""
    print("env " + json.dumps(env, sort_keys=True))
    for msg in record["problems"][:20]:
        print(f"problem: {msg}")
    for name, val in record["metrics"].items():
        print(f"{record['workload']:>15} {name:<40} {val:>14.6g} {units[name]}")
    print(f"{record['workload']:>15} {'fail_ratio':<40} {record['fail_ratio']:>14.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }))


def smoke(reference, workdir, import_s):
    """One small item per workload, traced and untraced; checks names, units and the gate."""
    import copy

    from workloads import Runner, smoke_cases

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    want = {"e2e": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    have = {"e2e": END_TO_END_UNITS, "layer": per_layer_units()}
    errors = [f"{kind}: declared {want[kind]} != reported {have[kind]}"
              for kind in want if want[kind] != have[kind]]
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        errors.append("workload names differ from BENCHMARK.json")
    for workload in WORKLOADS:
        for trace in (0, 1):
            cases = smoke_cases(workload)
            rec, _ = run_workload(workload, cases, 0, trace, reference,
                                  workdir / f"{workload}-{trace}", 1, import_s)
            kind = "layer" if trace else "e2e"
            if set(rec["metrics"]) != set(want[kind]):
                errors.append(f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
            if rec["problems"]:
                errors.append(f"{workload} trace={trace}: {rec['problems']}")
            print(f"smoke {workload} trace={trace}: {rec['attempted']} ops, "
                  f"{rec['failed']} failed, wall {sum(p['seconds'] for p in rec['passes']):.2f} s")
        # the gate must trip when an expected value is corrupted
        bad = copy.deepcopy(reference)
        corrupt(bad, cases)
        runner = Runner(workdir / f"{workload}-gate", bad)
        runner.prepare(cases, "setup0")
        ops = run_pass(runner, cases)
        if not all(problems for _, _, problems in ops):
            errors.append(f"{workload}: a corrupted expected value was not detected")
        else:
            print(f"smoke {workload}: corrupted reference detected")
    for msg in errors:
        print(f"smoke error: {msg}")
    print(json.dumps({"smoke_ok": not errors, "errors": len(errors)}))
    return 0 if not errors else 1


def corrupt(ref, cases):
    """Perturb one expected value of each case beyond the tolerance."""
    for case in cases:
        if case["kind"] == "sweep":
            for a in case["alphas"]:
                ref["headline_sweep"]["rows"][f"{a:g}"]["total_morse_index"] += 2
        elif case["kind"] == "row":
            ref["branch_mix"][case["id"]]["amplitude"][0] *= 1.001
        elif case["kind"] == "profile":
            entry = ref["certify"][case["id"]]
            entry["mu_min"] += 1e-3 + 1e-3 * abs(entry["mu_min"])
        else:
            ref["liouville"][f"{case['energy']:g}"]["q_min"][0] *= 1.001


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="harness self-check: one small item per workload")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "henon_morse" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import henon_morse.cli  # noqa: F401
    import_s = time.perf_counter() - T_START

    from workloads import draw_cases, load_reference

    reference = load_reference()
    env = environment()
    tag = "smoke" if args.smoke else f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            return smoke(reference, workdir, import_s)
        cases = draw_cases(args.workload, random.Random(args.seed))
        record, tracer = run_workload(args.workload, cases, args.seconds, args.trace,
                                      reference, workdir, SETUP_REPS, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(seed=args.seed, trace=args.trace, env=env)
    with open(results / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.dump(results / f"{tag}-spans.jsonl")
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    emit(record, units, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
