"""Benchmark of l1kernels: one workload per run, one JSON result on the last line.

Run from the repository root:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 35 --trace 0

The library is imported from ``src/`` of the checkout the script sits in.
With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` each operation runs once untraced and once with every
public entry point wrapped in a span, and the result holds the per-layer
metrics.  Every operation's outputs are checked; a failed check exits 1
without a result.  The lines before the result give the workload's own
metrics by name and the exact counts, and a full record of the run
(environment, counts, latencies, paces, spans) is written to
``perfbench/out/``.  See perfbench/README.md.
"""

import os

# One client thread and one BLAS thread, fixed before numpy is loaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

from spans import Tracer, quantile  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import l1kernels; print(time.perf_counter() - start)"
)


def import_library():
    """Import l1kernels from this checkout's src/."""
    package = ROOT / "src" / "l1kernels"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no l1kernels sources under {package.parent}")
    sys.path.insert(0, str(package.parent))
    import l1kernels

    if Path(l1kernels.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported l1kernels from {l1kernels.__file__}, not {package}")
    return l1kernels


def import_times() -> list:
    """Seconds to import l1kernels (numpy and scipy with it) in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout))
    return times


class SolveCounter:
    """Clock-free count of lasso solves, read from each FitResult.

    The only wrapper an untraced run installs.
    """

    def __init__(self, solver_cls):
        self.solver_cls = solver_cls
        self.original = solver_cls.solve
        self.solves = self.iterations = self.unconverged = 0
        counter = self

        def solve(solver, *args, **kwargs):
            result = counter.original(solver, *args, **kwargs)
            counter.solves += 1
            counter.iterations += result.iterations
            counter.unconverged += not result.converged
            return result

        self.wrapper = solve
        self.install()

    def install(self) -> None:
        self.solver_cls.solve = self.wrapper

    def close(self) -> None:
        self.solver_cls.solve = self.original

    def snapshot(self) -> dict:
        return {
            "lasso_solves": self.solves,
            "lasso_iterations": self.iterations,
            "lasso_unconverged": self.unconverged,
        }


class Pace:
    """Wall time of a fixed block of numpy and LAPACK work: the machine's pace.

    The block mixes the kinds of work the library spends its time on:
    matrix-vector products with small vector operations (as in FISTA), an LU
    factorisation and solve, and exponentials over an evaluation grid.
    """

    def __init__(self):
        x = np.sort(np.random.default_rng(0).uniform(-1.0, 1.0, 200))
        self.x = x
        self.gram = np.exp(-np.abs(x[:, None] - x[None, :]))
        self.grid = np.linspace(-1.0, 1.0, 500)

    def block(self) -> float:
        gram, x = self.gram, self.x
        start = time.perf_counter()
        v = x.copy()
        for _ in range(50):
            u = gram @ v
            v = np.sign(u) * np.maximum(np.abs(u) - 1e-3, 0.0)
            v /= np.linalg.norm(v)
        scipy.linalg.lu_solve(scipy.linalg.lu_factor(gram), x)
        np.exp(-np.abs(x[:, None] - self.grid[None, :]))
        return time.perf_counter() - start


class Measurement:
    """Operations of a workload with their latencies and kept records."""

    def __init__(self, lk, workload, counter=None, tracer=None, pace=None):
        self.lk = lk
        self.workload = workload
        self.counter = counter
        self.tracer = tracer
        self.pace = pace
        self.paces = []
        self.latencies = []
        self.results = []
        self.errors = 0
        self.prefix_counts = None
        self.wall_s = 0.0

    def step(self, k) -> None:
        """Make inputs, run and check operation k."""
        workload, tracer = self.workload, self.tracer
        if self.pace is not None:
            self.paces.append(self.pace.block())
        start = time.perf_counter()
        inputs = workload.inputs(k)
        if tracer is not None:
            tracer.op = k
            span = tracer.open("operation", "bench")
        result = None
        t0 = time.perf_counter()
        try:
            result = workload.run(inputs)
        except self.lk.L1KernelsError as exc:
            self.errors += 1
            print(f"perfbench: operation {k} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            self.latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.close(span)
        if result is not None:
            self.results.append(workload.check(inputs, result))
        self.wall_s += time.perf_counter() - start
        if len(self.latencies) == workload.count_prefix:
            self.prefix_counts = self.exact_counts()

    def exact_counts(self) -> dict:
        counts = {"operations": len(self.latencies), "errors": self.errors}
        counts.update(self.counter.snapshot() if self.counter else {})
        counts.update(self.workload.counts(self.results))
        return counts


def repeat(step, seconds, at_least) -> None:
    """Call step(0), step(1), ... until `seconds` have passed and `at_least` calls are made."""
    deadline = time.perf_counter() + seconds
    k = 0
    while k < at_least or time.perf_counter() < deadline:
        step(k)
        k += 1


def report_metrics(workload, m: Measurement, setup_s: float, peak_rss_mb: float) -> dict:
    """Every end-to-end metric of the workload, named as in perfbench/README.md."""
    counts = m.exact_counts()
    failures = counts.get("lasso_unconverged", 0) + m.errors + counts.get("failed_reports", 0)
    base = counts.get("lasso_solves", 0) + counts.get("audit_reports", 0) + m.errors
    busy = sum(m.latencies)
    unit = workload.op_unit
    out = {
        "setup_s": setup_s,
        "operations": len(m.latencies),
        "wall_s": m.wall_s,
        workload.rate_metric: workload.work(m.results, counts) / busy,
        f"{unit}_s_p50": statistics.median(m.latencies),
        "pace_s_mean": statistics.fmean(m.paces),
        "failed_share": failures / base if base else 0.0,
        "failed_share_base": base,
        "peak_rss_mb": peak_rss_mb,
    }
    if len(m.latencies) >= 100:
        out[f"{unit}_s_p90"] = quantile(sorted(m.latencies), 0.9)
    out.update(workload.summary(m.results))
    return out


# ---------------------------------------------------------------------------
# environment


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS bundled with numpy and scipy."""
    found = {}
    for module in (np, scipy):
        libdir = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    found[lib.name] = int(fn())
                    break
    return found


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "l1kernels").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "process_threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    lk = import_library()
    make = WORKLOADS[args.workload]
    try:
        imports = import_times()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload = make(lk, args.seed)
            workload.inputs(0)
            workload.warm_up()
            setup_times.append(time.perf_counter() - start)
        setup_s = statistics.median(imports) + statistics.median(setup_times)

        counter = SolveCounter(lk.LassoSolver)
        measured = Measurement(lk, workload, counter, pace=Pace())
        traced = tracer = None
        try:
            if args.trace:
                # each operation runs untraced, then traced, so that both see
                # the same machine; the difference of the two is the overhead
                tracer = Tracer()
                traced = Measurement(lk, workload, tracer=tracer)

                def step(k):
                    measured.step(k)
                    counter.close()
                    tracer.install(lk)
                    try:
                        traced.step(k)
                    finally:
                        tracer.uninstall()
                        counter.install()

                repeat(step, args.seconds, workload.count_prefix)
            else:
                repeat(measured.step, args.seconds, workload.count_prefix)
        finally:
            counter.close()
        report = report_metrics(workload, measured, setup_s, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            layers = {
                **tracer.per_operation(len(traced.latencies)),
                **tracer.wall_metrics(traced.wall_s, measured.wall_s),
            }
            traced.prefix_counts.update(
                tracer.exact_counts(lambda span: span.op is not None and span.op < workload.count_prefix)
            )
    except CheckFailed as exc:
        print(f"perfbench: output check failed on {args.workload} (seed {args.seed}): {exc}", file=sys.stderr)
        return 1

    counts = (traced or measured).prefix_counts
    if args.trace:
        metrics = layers
    else:
        metrics = {
            "setup_s": setup_s,
            "op_ref_p50": report[f"{workload.op_unit}_s_p50"] / report["pace_s_mean"],
            "certified_share": 1.0 - report["failed_share"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(unit_of) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(unit_of))} disagree with BENCHMARK.json")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "report": report,
        "counts": counts,
        "metrics": metrics,
        "setup_times_s": setup_times,
        "import_times_s": imports,
        "latencies_s": measured.latencies,
        "paces_s": measured.paces,
    }
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json(), separators=(",", ":")))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed}: {len(measured.latencies)} {workload.op_unit}s "
          f"in {measured.wall_s:.2f} s; record in {OUT.relative_to(ROOT) / (stem + '.json')}")
    print("report " + json.dumps(report))
    print("counts " + json.dumps(counts))
    print(json.dumps({
        "correct": True,
        "attempted": len((traced or measured).latencies),
        "failed": (traced or measured).errors,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
