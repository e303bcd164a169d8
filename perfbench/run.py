"""pressure-lab pipeline benchmark.

Runs one workload in a closed loop with one client for a fixed time, checks
the output of every op, and prints the end-to-end metrics (``--trace 0``) or
the per-layer metrics of a traced run (``--trace 1``).  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run it from the root of a source checkout:

    python3 perfbench/run.py --workload ensemble-64 --seed 3 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35       # every workload
    python3 perfbench/run.py --regenerate-reference            # rewrite reference.json

Details of each run (machine facts, tail percentile, set-up samples, failed
checks) go to .perfbench_out/results/, spans of traced runs to
.perfbench_out/spans/.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import layers
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = ".perfbench_out"
REFERENCE = os.path.join(HERE, "reference.json")
NAMES = ("ensemble-64", "smooth-128", "study-cli")
# BLAS / OpenMP pools: one thread each, so that `--jobs 2` means two busy
# threads on a 2-core machine; children and pool workers inherit these
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set-up is measured in this process and in this many fresh interpreters
SETUP_PROBES = 4
END_TO_END = [("setup_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB")]


def timed_setup(name, tiny=False, tracer=None):
    """Import pressure_lab and build what the first op needs; returns the
    elapsed seconds and the ready workload."""
    start = time.perf_counter()
    import pressure_lab
    if not os.path.abspath(pressure_lab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported pressure_lab from "
                         f"{pressure_lab.__file__}, not from {SRC}")
    import workloads
    if tracer is not None:
        layers.install(tracer)
        tracer.op_id = "setup"
    wl = workloads.make(name, tiny)
    wl.setup()
    return time.perf_counter() - start, wl


def probe_setup(name, tiny):
    """Set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", name]
    out = subprocess.run(cmd + (["--tiny"] if tiny else []), check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1])


def tail(latencies):
    """Highest percentile with at least ten samples above it, as (value,
    percentile), but never below the median sample: with 21 samples or
    fewer no sample above the median has ten beyond it."""
    xs = sorted(latencies)
    k = max(len(xs) - 11, (len(xs) - 1) // 2)
    return xs[k], 100.0 * (k + 1) / len(xs)


def run_phase(wl, seed, seconds, min_ops, tracer=None, log=None):
    """One warm-up op, checked but neither timed nor traced, then a closed
    loop over the workload's ops until the next op would end past `seconds`,
    with at least `min_ops` ops.  With a tracer, the even ops are traced and
    the odd ones not, so that both halves see the same machine."""
    latencies, op_ids, traced, problems = [], [], [], []

    def run_one(op, timed):
        tracing_op = timed and tracer is not None and op.index % 2 == 0
        if tracing_op:
            layers.install(tracer)
            tracer.op_id = op.index
        t0 = time.perf_counter()
        try:
            result = wl.run(op)
        except Exception as exc:          # an op that raises is a failed op
            op_problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            op_problems = None
        finally:
            latency = time.perf_counter() - t0
            if tracing_op:
                tracer.uninstall()
                tracer.op_id = None
        if op_problems is None:
            op_problems = wl.check(op, result)
        if timed:
            latencies.append(latency)
            op_ids.append(op.index)
            traced.append(tracing_op)
        if op_problems:
            problems.append({"op": op.index, "params": list(op.params),
                             "problems": op_problems})
            if log:
                log(f"op {op.index} {op.params} failed: {op_problems}")

    ops = wl.ops(seed)
    run_one(next(ops), timed=False)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (len(latencies) >= min_ops
                and elapsed + statistics.median(latencies) > seconds):
            break
        run_one(next(ops), timed=True)
    return {"latencies": latencies, "op_ids": op_ids, "traced": traced,
            "attempted": len(latencies) + 1, "failed": len(problems),
            "problems": problems, "wall_s": time.perf_counter() - start}


def machine_facts():
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"][
                "blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_openblas": blas(numpy), "scipy_openblas": blas(scipy),
            "numba_present": importlib.util.find_spec("numba") is not None,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def load_reference(wl):
    if not wl.needs_reference:
        return
    try:
        with open(REFERENCE) as fh:
            wl.reference = json.load(fh)[wl.name]
    except (OSError, KeyError) as exc:
        raise SystemExit(f"perfbench: no reference for {wl.name} in "
                         f"{REFERENCE} ({exc}); run --regenerate-reference")


def code_digest():
    """Digest of the package and benchmark sources."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "pressure_lab"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for fname in sorted(f for f in filenames if f.endswith(".py")):
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    digest.update(fname.encode() + fh.read())
    return digest.hexdigest()[:16]


def check_counts(name, seed, counts):
    """Counts of a traced run must repeat exactly for the same workload,
    seed and sources; the first such run records them."""
    path = os.path.join(OUT, "counts", f"{name}-seed{seed}-{code_digest()}.json")
    if os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
        return [] if previous == counts else [
            f"counts differ from an earlier run: {previous} != {counts}"]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
    return []


def run_untraced(args, log):
    own, wl = timed_setup(args.workload, args.tiny)
    load_reference(wl)
    setup = [own] + [probe_setup(args.workload, args.tiny)
                     for _ in range(SETUP_PROBES)]
    phase = run_phase(wl, args.seed, args.seconds, wl.count_window, log=log)
    lat = phase["latencies"]
    tail_value, tail_pct = tail(lat)
    # the warm-up op is not timed, so a failed one is not taken off
    completed = len(lat) - sum(p["op"] in phase["op_ids"]
                               for p in phase["problems"])
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        "ops_per_s": completed / phase["wall_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    details = {"setup_samples_s": setup, "latencies_s": lat,
               "op_tail_percentile": tail_pct, "op_samples": len(lat),
               "failed_frac": phase["failed"] / phase["attempted"]}
    return wl, phase, metrics, details, []


def run_traced(args, log):
    tracer = tracing.Tracer()
    _, wl = timed_setup(args.workload, args.tiny, tracer)
    tracer.uninstall()
    load_reference(wl)
    phase = run_phase(wl, args.seed, args.seconds, 2 * wl.count_window,
                      tracer=tracer, log=log)
    tracer.write(os.path.join(OUT, "spans",
                              f"{wl.name}-seed{args.seed}.jsonl"))
    traced_ids = [i for i, t in zip(phase["op_ids"], phase["traced"]) if t]
    window = traced_ids[:wl.count_window]
    values = layers.layer_metrics(tracer, traced_ids, window)
    p50_traced = statistics.median(
        x for x, t in zip(phase["latencies"], phase["traced"]) if t)
    p50_plain = statistics.median(
        x for x, t in zip(phase["latencies"], phase["traced"]) if not t)
    values["trace.op_p50_s"] = (p50_traced, "s")
    values["trace.untraced_op_p50_s"] = (p50_plain, "s")
    values["trace.overhead_s"] = (p50_traced - p50_plain, "s")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    counts = {k: v for k, (v, u) in values.items() if u == "count"}
    count_problems = check_counts(wl.name, args.seed, counts)
    details = {"count_window_ops": window, "traced_ops": len(traced_ids),
               "untraced_ops": len(phase["op_ids"]) - len(traced_ids)}
    return wl, phase, metrics, details, count_problems


def run_workload(args):
    log = lambda msg: print(msg, file=sys.stderr)
    runner = run_traced if args.trace else run_untraced
    wl, phase, metrics, details, extra_problems = runner(args, log)
    for p in extra_problems:
        log(p)
    attempted = phase["attempted"]
    result = {"correct": phase["failed"] == 0 and not extra_problems,
              "attempted": attempted, "failed": phase["failed"],
              "metrics": metrics}
    record = dict(result, workload=wl.name, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  facts=machine_facts(), details=details,
                  problems=phase["problems"][:20] + extra_problems)
    path = os.path.join(OUT, "results",
                        f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {phase['failed']} "
          f"(failed_frac {phase['failed'] / attempted:.4g})")
    if "op_tail_percentile" in details:
        print(f"op_tail_s is p{details['op_tail_percentile']:.1f} of "
              f"{details['op_samples']} ops")
    for k, m in metrics.items():
        print(f"  {k:<45} {m['value']:>14.6g} {m['unit']}")
    print("facts " + json.dumps(record["facts"], sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in turn, each in its own process; exits 1 if any
    result is not correct."""
    ok = True
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        out = subprocess.run(cmd, check=True, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def regenerate_reference():
    import workloads
    sections = {}
    for tiny in (False, True):
        for name in NAMES:
            wl = workloads.make(name, tiny)
            if wl.needs_reference:
                print(f"reference for {wl.name}", file=sys.stderr)
                sections[wl.name] = wl.make_reference()
    with open(REFERENCE, "w") as fh:
        json.dump(sections, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for smoke tests")
    parser.add_argument("--setup-probe", choices=NAMES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--regenerate-reference", action="store_true",
                        help="rewrite reference.json from this checkout")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    os.chdir(ROOT)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "pressure_lab", "__init__.py")):
        print(f"perfbench: no pressure_lab sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        print(repr(timed_setup(args.setup_probe, args.tiny)[0]))
        return 0
    if args.regenerate_reference:
        return regenerate_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
