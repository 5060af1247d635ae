#!/usr/bin/env python3
"""Benchmark for hillscape: one workload, one seed, one run.

    python3 bench/run.py --workload cli-k56 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload search-k56 --seed 1 --seconds 20 --trace 1 \
        --out results.jsonl

Workloads (see ``workloads.py`` for why each was chosen): ``cli-k56``,
``search-k56`` and ``exhaustive-k58``.  A run repeats the workload's op list
for ``--seconds`` (at least two passes; every pass after the first must
reproduce the first) and checks every op's output.

``--trace 0`` measures end-to-end metrics with nothing wrapped.  Times are
reported in reference seconds (``workloads.REF_S``): each timed unit is
scaled by a fixed reference kernel timed right before and after it, which
cancels most of the host's speed drift; raw wall medians are printed too.
``setup_s`` times fresh interpreters importing hillscape and building the
inputs, a few before the first pass and one after every pass.
``--trace 1`` alternates untraced passes with passes in which every public
function of the six library modules is wrapped by ``tracing.Tracer``, and
reports per-layer metrics plus ``trace.overhead_frac``; ``cli-k56`` then
runs in process through ``hillscape.cli.main``.

The run measures the code in this checkout's ``src/``: it refuses to run
without it, and CLI children get ``PYTHONPATH`` pointed there.  BLAS and
OpenMP are pinned to ``BLAS_THREADS`` threads in this process and its
children.  Stdout is a readable report followed, on its last line, by
``{"correct", "attempted", "failed", "metrics"}`` as JSON; ``--out`` also
appends the full record (environment, every metric, failures) to a JSONL
file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

WORKLOADS = ("cli-k56", "search-k56", "exhaustive-k58")
SETUP_REPEATS = 3  # before the first pass; one more follows every pass
IMPORT_REPEATS = 3
MIN_PASSES = 2

# (name, unit, workload it applies to or None for all).  GATED ones carry a
# bound in BENCHMARK.json; the others are reported for reading and for
# compare.py, without a gate.  Times are in reference seconds (see
# ``workloads.REF_S``) except the ``*_wall_s`` pair, the raw wall medians,
# and ``reference_ms``, the workload's reference kernel itself.
END_TO_END = (
    ("setup_s", "s", None),
    ("pass_s", "s", None),
    ("peak_rss_mb", "MB", None),
    ("failed_frac", "ratio", None),
    ("gen_s", "s", "cli-k56"),
    ("analyze_s", "s", "cli-k56"),
    ("theory_s", "s", "cli-k56"),
    ("compare_s", "s", "cli-k56"),
    ("rwa_s", "s", "cli-k56"),
    ("fit_s", "s", "cli-k56"),
    ("search_s", "s", "cli-k56"),
    ("trials_per_s", "1/s", "search-k56"),
    ("nodes_per_s", "1/s", "exhaustive-k58"),
    ("setup_wall_s", "s", None),
    ("pass_wall_s", "s", None),
    ("reference_ms", "ms", None),
)
GATED = ("setup_s", "pass_s", "peak_rss_mb")
UNITS = {name: unit for name, unit, _ in END_TO_END}


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _use_checkout_src():
    if not os.path.isfile(os.path.join(SRC, "hillscape", "__init__.py")):
        _fail(f"no hillscape sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC  # children (CLI commands, import probes) too


# -- environment --------------------------------------------------------------


def _openblas_threads():
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def _git(*args):
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy
    import scipy

    import hillscape

    libc = ctypes.CDLL(None)
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hillscape": hillscape.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "l2_bytes": libc.sysconf(191),  # _SC_LEVEL2_CACHE_SIZE (glibc)
        "l3_bytes": libc.sysconf(194),  # _SC_LEVEL3_CACHE_SIZE
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "openblas_threads": _openblas_threads(),
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


# -- measuring ----------------------------------------------------------------


def _import_seconds(repeats):
    """Wall times of ``python -c "import hillscape"``, spawn to exit."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hillscape"], check=True, timeout=120)
        out.append(time.perf_counter() - t0)
    return out


def _setup_probe(args, scaled, wall):
    """Time one fresh interpreter importing hillscape and building the inputs.

    The child times itself; the wall time and its reference-scaled value are
    appended to ``wall`` and ``scaled``.  Import is interpreter-bound, so the
    pure-Python reference runs here before and after the child, whatever the
    workload.
    """
    from workloads import REF_S, python_reference_s

    ref = python_reference_s()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)]
        + (["--toy"] if args.toy else []),
        check=True, timeout=120, capture_output=True, text=True)
    wall.append(float(proc.stdout.strip().splitlines()[-1]))
    scaled.append(wall[-1] * 2 * REF_S / (ref + python_reference_s()))


def _release_memory():
    """Return what the last pass freed to the OS, so that every pass starts
    from the same heap (as a fresh process would) and peak RSS does not
    drift with heap fragmentation from earlier passes."""
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def _run_traced_pass(wl, tracer):
    tracer.install()
    tracer.begin_pass()
    tracer.on = True
    try:
        return wl.run_pass(tracer)
    finally:
        tracer.on = False
        tracer.uninstall()


def run_passes(wl, seconds, tracer=None, after_pass=None):
    """Passes until ``seconds`` have gone by (at least MIN_PASSES of each kind).

    With a tracer, untraced and traced passes alternate.  ``after_pass`` runs
    after each untraced pass.  Returns ``(untraced, traced)`` PassRecords.
    """
    from workloads import NullTracer

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        _release_memory()
        plain.append(wl.run_pass(NullTracer()))
        if after_pass is not None:
            after_pass()
        if tracer is not None:
            _release_memory()
            traced.append(_run_traced_pass(wl, tracer))
        if len(plain) >= MIN_PASSES and time.perf_counter() >= deadline:
            return plain, traced


def tally(records, labels):
    """(attempted, failed, problems), counting output drift from pass 1 as failure."""
    ref = records[0].fingerprints
    attempted = failed = 0
    problems = []
    for i, rec in enumerate(records):
        for label in labels:
            issues = list(rec.problems[label])
            if i and not issues and rec.fingerprints.get(label) != ref.get(label):
                issues.append("output differs from the first pass")
            attempted += 1
            if issues:
                failed += 1
                problems.append(f"pass {i + 1} {label}: {'; '.join(issues)}")
    return attempted, failed, problems


def end_to_end(wl, plain, setup):
    scaled, wall = setup
    values = {"setup_s": scaled, "pass_s": [p.scaled_seconds for p in plain]}
    values.update(wl.metrics(plain))
    values["setup_wall_s"] = wall
    values["pass_wall_s"] = [p.seconds for p in plain]
    values["reference_ms"] = [p.extra["reference_s"] * 1e3 for p in plain]
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-k56" else resource.RUSAGE_SELF
    values["peak_rss_mb"] = [resource.getrusage(who).ru_maxrss / 1024.0]
    return values


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full run record to this JSONL file")
    parser.add_argument("--toy", action="store_true",
                        help="(K_5)^4 inputs, few trials and one set-up probe, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _use_checkout_src()
    if args.setup_probe:
        t0 = time.perf_counter()
        import workloads

        workloads.make(args.workload, args.seed, toy=args.toy).setup()
        print(time.perf_counter() - t0)
        return 0

    import hillscape

    if not os.path.abspath(hillscape.__file__).startswith(SRC + os.sep):
        _fail(f"imported hillscape from {hillscape.__file__}, not from {SRC}")
    result = run(args)
    print(json.dumps(result))
    return 0


def run(args):
    import tracing
    import workloads

    env = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.make(args.workload, args.seed, toy=args.toy, workdir=workdir)
        if args.trace:
            wl.setup()
            wl.in_process = True
            tracer = tracing.Tracer()
            plain, traced = run_passes(wl, args.seconds, tracer)
            import_s = _import_seconds(1 if args.toy else IMPORT_REPEATS)
            values = tracing.per_layer(tracer, traced, plain, import_s)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}.npz")
            tracer.save(spans_path)
            records = plain + traced
        else:
            # set-up probes before the first pass and after every pass, so that
            # they sample the whole run as the passes do
            setup = [], []
            probe = functools.partial(_setup_probe, args, *setup)
            for _ in range(1 if args.toy else SETUP_REPEATS):
                probe()
            wl.setup()
            plain, _ = run_passes(wl, args.seconds, after_pass=None if args.toy else probe)
            values = end_to_end(wl, plain, setup)
            units = UNITS
            records = plain
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, problems = tally(records, wl.labels)
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if not args.trace:
        values["failed_frac"] = [failed / attempted]
    full = {name: {"value": _median(v), "unit": units[name], "samples": len(v)}
            for name, v in values.items()}
    print(f"hillscape bench  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(records)} ops={attempted} failed={failed}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in full.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']:<8} (median of {m['samples']})")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "toy": args.toy, "env": env, "metrics": full,
                "attempted": attempted, "failed": failed, "problems": problems[:50],
            }, sort_keys=True) + "\n")
    keep = GATED if not args.trace else [n for n, _, _ in tracing.PER_LAYER]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": full[n]["value"], "unit": full[n]["unit"]} for n in keep},
    }


if __name__ == "__main__":
    sys.exit(main())
