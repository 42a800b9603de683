"""Benchmark of the mhessian library: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run sets BLAS and OpenMP threads to 1, imports the library from the
checkout's ``src/``, builds the workload's inputs from the seed (timed as
set-up, taken as the median of this process and four set-up-only child
processes), then runs ops for about ``--seconds`` seconds and checks every
op's output.  A new op starts only while the median op so far still fits in
the time left; there is always at least one.

Every time is rescaled to the reference speed of ``reference.py``: a
fixed probe runs every 50 ms during each op (and a few dozen times right
after each set-up), and an op's seconds are its wall time, less the
probes' time, times ``reference.NOMINAL_S`` over the mean probe time, that
ratio raised to the workload's ``speed_exponent``.  Raw wall times are
printed and written to the results file as well.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced ops; traced ops run with benchmark-side
wrappers at every module boundary (see ``spans.py``) and give the per-layer
metrics, each the median over traced ops, plus the tracing overhead and the
share of op wall time the spans account for.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results,
the environment record and (traced runs) the last traced op's spans are
written to ``.perfbench_out/`` at the checkout root.  ``--smoke`` shrinks
every input for the benchmark's own tests.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported anywhere

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_CHILDREN = 4
SETUP_PROBE_RUNS = 3
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
RECONCILE_TOL = 0.10

# name -> unit
END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}

# name -> (unit, better, end-to-end metric it should move, on which workloads)
PER_LAYER = {
    "solver.busy_s": ("s", "lower", "op_s_p50", "torus_c2_global, ball_c2_dirichlet"),
    "solver.self_s": ("s", "lower", "op_s_p50", "torus_c2_global, ball_c2_dirichlet"),
    "solver.newton_iters": ("count", "lower", "op_s_p50", "torus_c2_global, ball_c2_dirichlet"),
    "solver.eig_calls": ("count", "lower", "op_s_p50", "torus_c2_global"),
    "solver.eig_s": ("s", "lower", "op_s_p50", "torus_c2_global"),
    "solver.eig_matrices": ("count", "lower", "op_s_p50", "torus_c2_global"),
    "solver.evals_per_iter": ("calls/iter", "lower", "op_s_p50", "torus_c2_global"),
    "solver.linear_s": ("s", "lower", "op_s_p50", "ball_c2_dirichlet, ball_c1_cli"),
    "solver.direct_calls": ("count", "lower", "op_s_p50", "ball_c2_dirichlet, ball_c1_cli"),
    "solver.krylov_calls": ("count", "lower", "op_s_p50", "ball_c2_dirichlet, ball_c1_cli"),
    "solver.ilu_calls": ("count", "lower", "op_s_p50", "ball_c2_dirichlet, ball_c1_cli"),
    "grids.field_calls": ("count", "lower", "op_s_p50", "torus_c2_global, ball_c1_cli"),
    "grids.field_s": ("s", "lower", "op_s_p50", "torus_c2_global, ball_c1_cli"),
    "grids.eig_matrices": ("count", "lower", "op_s_p50", "torus_c2_global, ball_c1_cli"),
    "regularize.busy_s": ("s", "lower", "op_s_p50", "torus_c2_global, ball_c1_cli"),
    "regularize.self_s": ("s", "lower", "op_s_p50", "torus_c2_global, ball_c1_cli"),
    "regularize.index_solves": ("count", "lower", "op_s_p50", "torus_c2_global, ball_c1_cli"),
    "regularize.field_repeat_ratio": ("ratio", "lower", "op_s_p50", "torus_c2_global, ball_c1_cli"),
    "hermitian.calls": ("count", "lower", "op_s_p50", "pointwise_suite"),
    "hermitian.us_per_call": ("us", "lower", "op_s_p50", "pointwise_suite"),
    "cones.calls": ("count", "lower", "op_s_p50", "pointwise_suite"),
    "cones.us_per_call": ("us", "lower", "op_s_p50", "pointwise_suite"),
    "fm.calls": ("count", "lower", "op_s_p50", "pointwise_suite"),
    "fm.us_per_call": ("us", "lower", "op_s_p50", "pointwise_suite"),
    "curvature.calls": ("count", "lower", "op_s_p50", "pointwise_suite"),
    "curvature.us_per_call": ("us", "lower", "op_s_p50", "pointwise_suite"),
    "serialize.calls": ("count", "lower", "op_s_p50", "ball_c1_cli"),
    "serialize.s": ("s", "lower", "op_s_p50", "ball_c1_cli"),
    "serialize.bytes": ("B", "lower", "op_s_p50", "ball_c1_cli"),
    "cli.self_s": ("s", "lower", "op_s_p50", "ball_c1_cli"),
    "trace.overhead": ("ratio", "lower", "none (cost of tracing)", "all"),
    "trace.attributed_ratio": ("ratio", "higher", "none (reconciliation)", "all"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink every input (for the benchmark's own tests)")
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up, print it as JSON and exit")
    return p.parse_args(argv)


def git_commit():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    h = hashlib.sha256()
    for p in sorted((SRC / "mhessian").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(args):
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def child_setup_seconds(args):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples):
    """Highest order statistic with TAIL_BEYOND samples above it.

    Returns (value, percentile, beyond).  Below 2 * TAIL_BEYOND samples no
    percentile at or above the median has that many beyond it; then the
    maximum is returned, with percentile 100 and 0 beyond.
    """
    s = sorted(samples)
    n = len(s)
    if n >= 2 * TAIL_BEYOND:
        return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return s[-1], 100.0, 0


# ``reference`` imports numpy, so it is imported only after the set-up has
# been timed (numpy's import belongs to set-up) and after THREAD_VARS are set.

def rescaled(wall, ref, exponent=1.0):
    """``wall`` seconds at the reference speed, ``ref`` the probe's time.

    ``exponent`` is how strongly the timed work follows the probe: 1 when
    it slows down as much as the probe on a busy host, 0.5 when half as
    much and 1.5 when more (in log terms).
    """
    import reference
    return wall * (reference.NOMINAL_S / ref) ** exponent


def setup_record(wall):
    """Set-up wall seconds and the same rescaled by the median of a few
    probe measurements right after."""
    import reference
    ref = statistics.median(reference.measure()
                            for _ in range(SETUP_PROBE_RUNS))
    return {"wall": wall, "ref": ref, "setup_s": rescaled(wall, ref)}


def run_ops(workload, state, seconds, trace, tracer=None):
    """Run ops until the next one would not fit in ``seconds``.

    With ``trace`` ops alternate untraced, traced, untraced, ...; at least
    one of each runs.  The probe samples the machine's speed during each
    op.  Returns one record per op, with its raw ``wall`` time (probes
    excluded), the mean probe time ``ref`` and the op's time ``op_s``
    rescaled to the reference speed.
    """
    import reference
    exponent = workload.speed_exponent
    records = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            root = tracer.open(spans.ROOT, spans.ROOT)
        error = None
        with reference.Sampler() as sampler:
            t = time.perf_counter()
            try:
                output = workload.op(state)
            except Exception:  # an op that raises counts as failed
                output = None
                error = traceback.format_exc(limit=-3).strip().splitlines()[-1]
            wall = time.perf_counter() - t - sampler.spent
        if traced:
            tracer.close(root)
            tracer.uninstall()
        rec = {"wall": wall, "traced": traced}
        try:
            rec["problems"] = [error] if error else workload.check(state, output)
        except Exception:
            rec["problems"] = ["check raised: " + traceback.format_exc(
                limit=-3).strip().splitlines()[-1]]
        if traced:
            # the spans also cover the probes that ran inside them
            rec["layers"] = spans.layer_metrics(tracer, wall + sampler.spent)
        rec["ref"] = sampler.speed()
        rec["probes"] = len(sampler.samples)
        rec["op_s"] = rescaled(wall, rec["ref"], exponent)
        records.append(rec)
        kinds = {r["traced"] for r in records}
        if trace and len(kinds) < 2:
            continue
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(r["wall"] for r in records) > seconds:
            return records


def end_to_end_metrics(setups, records):
    times = [r["op_s"] for r in records]
    walls = [r["wall"] for r in records]
    value, pct, beyond = tail(times)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "op_s_p50": statistics.median(times),
        "op_s_tail": value,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: "
                   + ", ".join(f"{s['setup_s']:.4f}" for s in setups)
                   + "; raw wall "
                   + ", ".join(f"{s['wall']:.4f}" for s in setups),
        "op_s_p50": f"median of {len(times)} ops; raw wall median "
                    f"{statistics.median(walls):.4f} s",
        "op_s_tail": (f"p{pct:.1f} of {len(walls)} ops, {beyond} beyond"
                      if beyond else
                      f"maximum of {len(walls)} ops (fewer than "
                      f"{2 * TAIL_BEYOND}, so no percentile from p50 up "
                      f"has {TAIL_BEYOND} beyond)"),
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return metrics, notes


def layer_report(records):
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        metrics[name] = statistics.median(r["layers"][name] for r in traced)
    metrics["trace.overhead"] = (
        statistics.median(r["op_s"] for r in traced)
        / statistics.median(r["op_s"] for r in untraced) - 1.0)
    absent = spans.absent_metrics(PER_LAYER)
    for name in absent:
        metrics.pop(name, None)
    ratios = [r["layers"]["trace.attributed_ratio"] for r in traced]
    reconciled = all(abs(1.0 - x) <= RECONCILE_TOL for x in ratios)
    return metrics, absent, ratios, reconciled


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mhessian" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC / 'mhessian'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work):
    t0 = time.perf_counter()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    state = workload.setup(args.seed, args.smoke, work)
    setup = setup_record(time.perf_counter() - t0)
    import mhessian
    if Path(mhessian.__file__).resolve().parent != SRC / "mhessian":
        print(f"perfbench: imported mhessian from {mhessian.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    env = environment(args)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    setups = [setup] + [child_setup_seconds(args)
                        for _ in range(SETUP_CHILDREN)]
    tracer = spans.Tracer() if args.trace else None
    records = run_ops(workload, state, args.seconds, args.trace, tracer)
    for k, r in enumerate(records, 1):
        status = "ok" if not r["problems"] else "FAILED " + "; ".join(
            r["problems"])
        print(f"op {k}{' traced' if r['traced'] else ''}: "
              f"{r['op_s']:.4f} s (wall {r['wall']:.4f} s, probe "
              f"{1e3 * r['ref']:.3f} ms x {r['probes']}) {status}")

    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    correct = failed == 0
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4g} "
          f"(ops that raised or failed their check)")
    result = {"env": env, "setups": setups, "ops": records}
    if args.trace:
        metrics, absent, ratios, reconciled = layer_report(records)
        for name, value in metrics.items():
            unit, _, target, where = PER_LAYER[name]
            print(f"layer {name} = {value:.6g} {unit}  "
                  f"(moves {target} on {where})")
        if absent:
            print("absent (name no longer in the library): "
                  + ", ".join(absent))
        print("reconcile: spans account for "
              + ", ".join(f"{x:.4f}" for x in ratios)
              + f" of traced op wall time; "
              f"{'PASS' if reconciled else 'FAIL'} within {RECONCILE_TOL:.0%}")
        correct = correct and reconciled
        units = {k: v[0] for k, v in PER_LAYER.items()}
        result["absent"] = absent
        result["spans"] = tracer.export()  # those of the last traced op
    else:
        metrics, notes = end_to_end_metrics(setups, records)
        for name, value in metrics.items():
            print(f"metric {name} = {value:.6g} {END_TO_END[name]}  "
                  f"({notes[name]})")
        units = END_TO_END
    result["metrics"] = metrics
    out_file = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      f"{'-smoke' if args.smoke else ''}.json")
    out_file.write_text(json.dumps(result))
    print(f"results written to {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
