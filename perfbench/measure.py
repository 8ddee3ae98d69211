"""One workload run: set-up, timed rounds, checks and the JSON result.

Imported by ``run.py`` only after it has pinned BLAS to one thread, because
importing this module loads numpy.
"""

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy
import tracing
import workloads
from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set up at least this many times and for at least this long, so that a
# cheap set-up (the CLI's config) still reports a median of many.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0


def cpu_seconds():
    """CPU of this process and its waited-for children, so a pool cannot hide work."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def openblas_info():
    """Runtime thread count and kernel of the OpenBLAS numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()})
    except OSError:
        return None, None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                corename = getattr(lib, f"{prefix}get_corename{suffix}", None)
                if threads is not None and corename is not None:
                    threads.argtypes, threads.restype = [], ctypes.c_int
                    corename.argtypes, corename.restype = [], ctypes.c_char_p
                    return threads(), corename().decode()
    return None, None


def environment(seed):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, kernel = openblas_info()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_kernel": kernel,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def fresh_import_seconds():
    """Start a fresh interpreter that imports ``profit``, and time it to exit."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import profit"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        check=True,
    )
    return time.perf_counter() - t0


def attempt(label, fn, ops):
    """Run ``fn`` at a boundary that keeps the run going; a raise fails one operation."""
    try:
        return fn()
    except Exception:
        traceback.print_exc()
        ops.append(Op(label, ["raised; traceback on stderr"]))
        return None


def set_up(load, tracer, ops):
    """Set up repeatedly, each time after a fresh interpreter's import; median seconds."""
    times, digests = [], []
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_SECONDS:
        import_s = fresh_import_seconds()
        t0 = time.perf_counter()
        if tracer and not times:
            tracer.install()
            try:
                with tracer.span(tracing.SETUP):
                    digests.append(load.setup())
            finally:
                tracer.uninstall()
        else:
            digests.append(load.setup())
        times.append(import_s + time.perf_counter() - t0)
    ops.append(Op("set-up repeats bit for bit", [] if len(set(digests)) == 1 else digests))
    return statistics.median(times)


def run_rounds(load, tracer, seconds, ops):
    """Repeat rounds for ``seconds`` (at least two); with a tracer, every second one is traced.

    Returns the per-round timings and the first round's errors.
    """
    rounds, first = [], None
    deadline = time.perf_counter() + seconds
    while len(rounds) < 2 or time.perf_counter() < deadline:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            with tracer.span(tracing.ROUND) if traced else nullcontext():
                rnd = attempt(f"round {len(rounds) + 1}", load.round, ops)
        finally:
            if traced:
                tracer.uninstall()
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        if rnd is None:
            return rounds, first and first[0]
        rounds.append({"wall": wall, "cpu": cpu, "rate": rnd.updates / rnd.train_s, "traced": traced})
        ops += attempt(f"checks of round {len(rounds)}", lambda: load.check(rnd), ops) or []
        fingerprint = load.fingerprint(rnd)
        if first is None:
            first = rnd.errors, fingerprint
        else:
            problems = [] if fingerprint == first[1] else ["outputs differ"]
            ops.append(Op(f"round {len(rounds)} repeats round 1 bit for bit", problems))
    ops += attempt("library cross-check", load.verify, ops) or []
    return rounds, first[0]


def run(args, spec, work):
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    load = workloads.make(args.workload, args.seed, work)
    tracer = tracing.Tracer() if args.trace else None
    threads = env["blas_threads"]
    ops = [Op("BLAS runs one thread", [] if threads in (1, None) else [f"{threads} threads"])]

    setup_s = set_up(load, tracer, ops)
    rounds, errors = run_rounds(load, tracer, args.seconds, ops)
    untraced = [r for r in rounds if not r["traced"]]
    if not untraced:
        print("perfbench: no round completed", file=sys.stderr)
        return 1

    if tracer:
        OUT.mkdir(exist_ok=True)
        tracer.write_csv(OUT / f"spans_{args.workload}_seed{args.seed}.csv")
        ops.append(Op("patch-site self-check", tracing.self_check(tracer, args.workload)))
        values = tracing.layer_metrics(tracer, statistics.median(r["wall"] for r in untraced))
        for strategy in ("full", "head", "profit"):
            # 0 marks a strategy the workload does not run; a measured error is > 0
            values[f"toy.original_error.{strategy}"], values[f"toy.new_error.{strategy}"] = (
                errors.get(strategy, (0.0, 0.0))
            )
        section = "per_layer"
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["wall"] for r in untraced),
            "cpu_s": statistics.median(r["cpu"] for r in untraced),
            "updates_per_s": statistics.median(r["rate"] for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        section = "end_to_end"

    failed = [op for op in ops if op.problems]
    for op in failed:
        print(f"FAILED {op.label}: {'; '.join(map(str, op.problems))}", file=sys.stderr)
    for strategy, (original, new) in errors.items():
        print(f"  {strategy}: original_error={original!r} new_error={new!r}")
    walls = " ".join(f"{r['wall']:.3f}{'t' if r['traced'] else ''}" for r in rounds)
    print(f"  round wall seconds (t: traced): {walls}")
    metrics = {}
    for m in spec[section]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {values[m['name']]!r} {m['unit']}")
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(args, spec_path):
    spec = json.loads(spec_path.read_text())
    work = OUT / f"work_{args.workload}_{os.getpid()}"
    try:
        return run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
