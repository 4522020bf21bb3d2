"""phialg benchmark: one closed-loop client per workload, in a fresh interpreter.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` there.
``--trace 0`` times verified jobs for ``--seconds`` and reports the
end-to-end metrics; set-up is repeated in fresh interpreters and its median
reported.  ``--trace 1`` runs the same jobs untraced and then traced, half
the time each, and reports the per-layer metrics from the spans.
``--workload all`` runs every workload in turn and prints each summary.  For a
single workload the last line of standard output is one JSON object: correct,
attempted, failed, metrics.  A fuller record (environment, tail percentile,
failing job ids) is written under ``.perfbench_out/``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: 2x2 problems otherwise spin a second thread that burns CPU
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
from importlib import metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("search", "quadrature", "pointwise")
# fresh interpreters that repeat set-up, besides the measuring process itself
SETUP_PROBES = {"search": 2, "quadrature": 4, "pointwise": 4}
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def import_library():
    """Import phialg from this checkout's src/, refusing any other copy."""
    if not (SRC / "phialg" / "__init__.py").is_file():
        raise BenchError(f"no phialg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import phialg

    if SRC not in Path(phialg.__file__).resolve().parents:
        raise BenchError(f"imported phialg from {phialg.__file__}, not from {SRC}")


def set_up(name, seed, workdir):
    """Import, inputs, and one warm-up job of each kind, each timed."""
    t0 = time.perf_counter()
    import_library()
    import workloads  # also imports phialg.cli and phialg.paper_examples

    t_import = time.perf_counter()
    wl = workloads.workload(name)
    deck = wl.generate(seed)
    ctx = wl.context(deck, workdir)
    t_inputs = time.perf_counter()
    warm = [(spec, run_job(wl, ctx, spec)[1]) for spec in workloads.kinds(deck)]
    t_end = time.perf_counter()
    times = {"setup_s": t_end - t0, "import_phialg_s": t_import - t0,
             "inputs_s": t_inputs - t_import}
    return wl, deck, ctx, warm, times


def run_job(wl, ctx, spec, recorder=None, job_id=-1):
    """(seconds spent in the library, failure reason or None)."""
    start = time.perf_counter()
    try:
        if recorder is None:
            result = wl.call(spec, ctx)
        else:
            result = recorder.run_job(job_id, wl.call, spec, ctx)
    except Exception as exc:  # a raising job is a failed job, not a crashed run
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        reason = wl.check(spec, result)
    except Exception as exc:
        reason = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, reason


def closed_loop(wl, ctx, deck, seconds, recorder=None):
    """Send job i+1 when job i has been checked, until ``seconds`` have passed."""
    times, failures = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        spec = deck[i % len(deck)]
        elapsed, reason = run_job(wl, ctx, spec, recorder, i)
        times.append(elapsed)
        if reason:
            failures.append(f"{spec['id']}#{i}:{spec['kind']}: {reason}")
        i += 1
    return {"times": times, "failures": failures, "wall": time.perf_counter() - start}


def tail(times):
    """Time at the highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def environment():
    # versions from package metadata, so scipy is not imported just to report it
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def probe_setups(name, seed, count):
    """Set-up times from ``count`` fresh interpreters, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe",
                               "--workload", name, "--seed", str(seed)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def scipy_import_in_library():
    """Seconds of `import phialg` spent importing scipy.linalg (0 when it is not imported)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import phialg"],
                          capture_output=True, text=True, timeout=120, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr.strip()[-500:]}")
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "scipy.linalg":
            return int(parts[1]) * 1e-6
    return 0.0


def measure(args, workdir):
    wl, deck, ctx, warm, setup = set_up(args.workload, args.seed, workdir)
    # Full collections would otherwise walk everything set-up made (imports,
    # the deck) and land 25-35 ms pauses on single pointwise jobs, which a
    # one-shot CLI process never sees; jobs' own objects are still collected.
    gc.collect()
    gc.freeze()
    failures = [f"warm-up {spec['id']}:{spec['kind']}: {reason}" for spec, reason in warm if reason]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "setup": setup}
    if not args.trace:
        run = closed_loop(wl, ctx, deck, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup["setup_s"], *probe_setups(args.workload, args.seed,
                                                  SETUP_PROBES[args.workload])]
        times = run["times"]
        tail_s, tail_pct, beyond = tail(times)
        ok = len(times) - len(run["failures"])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "jobs_per_s": (ok / run["wall"], "1/s"),
            "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "job_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record.update(setup_samples=setups, jobs=len(times),
                      tail={"percentile": tail_pct, "samples": len(times), "beyond": beyond},
                      fail_ratio=len(run["failures"]) / len(times))
        failures += run["failures"]
        attempted = len(times)
    else:
        import spans

        half = args.seconds / 2.0
        plain = closed_loop(wl, ctx, deck, half)
        rec = spans.Recorder()
        rec.install()
        try:
            traced = closed_loop(wl, ctx, deck, half, recorder=rec)
        finally:
            rec.uninstall()
        OUT.mkdir(exist_ok=True)
        rec.save(OUT / f"spans-{args.workload}.npz")
        metrics = spans.layer_metrics(rec, len(traced["times"]))
        rate = [len(r["times"]) / r["wall"] for r in (plain, traced)]
        metrics.update({
            "setup.import_phialg_s": (setup["import_phialg_s"], "s"),
            "setup.import_scipy_linalg_s": (scipy_import_in_library(), "s"),
            "setup.inputs_s": (setup["inputs_s"], "s"),
            "trace.overhead_ratio": (rate[1] / rate[0], "ratio"),
        })
        record.update(jobs={"untraced": len(plain["times"]), "traced": len(traced["times"])},
                      spans=len(rec))
        failures += plain["failures"] + traced["failures"]
        attempted = len(plain["times"]) + len(traced["times"])
    record.update(attempted=attempted, failed=len(failures), failures=failures,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    return record


def summary(record):
    lines = [f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
             f"{record['attempted']} jobs attempted, {record['failed']} failed"]
    if "fail_ratio" in record:
        t = record["tail"]
        lines.append(f"  fail_ratio  {record['fail_ratio']:.6g} ratio")
        lines.append(f"  job_tail_ms is p{t['percentile']:.1f} of {t['samples']} samples "
                     f"({t['beyond']} beyond); setup_s is the median of "
                     f"{len(record['setup_samples'])} set-ups")
    for name, m in record["metrics"].items():
        lines.append(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    env = record["environment"]
    lines.append(f"  python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
                 f"nproc {env['nproc']} " + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
    lines += [f"  FAILED {f}" for f in record["failures"]]
    return "\n".join(lines)


def run_all(args):
    """Every workload in its own interpreter, each printing its summary."""
    correct = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        *lines, result = proc.stdout.strip().splitlines()
        print("\n".join(lines), flush=True)
        correct = correct and json.loads(result)["correct"]
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            *_, times = set_up(args.workload, args.seed, workdir)
            print(json.dumps(times))
            return 0
        record = measure(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True))
    print(summary(record))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
