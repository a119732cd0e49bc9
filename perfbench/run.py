"""Benchmark for betabart: one workload per invocation, run in-process.

    python3 perfbench/run.py --workload food-test --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  Set-up (a fresh import of the package, input generation, the
README golden check and one warm-up op) is repeated and its median
reported as ``setup_s``.  Ops then run back to back (a closed loop with one
client) for ``--seconds``.  With ``--trace 0`` the end-to-end metrics are
reported.  With ``--trace 1`` every other op runs with span wrappers
installed; those ops give the per-layer metrics, the untraced ones the
tracing overhead.  The last stdout line is the result object; the line
before it records the environment.  Results and spans are also written to
``perfbench/out/``.  The workloads are described in perfbench/README.md.
"""

import os

# Pinned before numpy is imported: numpy links a threaded BLAS, and
# BETABART_THREADS=1 keeps `simulate` on its serial path (no process pool).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["BETABART_THREADS"] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed, golden_check, invoke  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
MODULES = ("cli", "inference", "fit", "cumulants", "simulate", "specfun", "model")
SETUP_REPEATS = 3
# Exact counters are averaged over this many traced ops from the start of
# the op sequence, so they do not depend on how many ops fit in the run.
COUNT_OPS = 10
PROBE_SECONDS = 0.5
# Reported times are wall times scaled to a machine on which reference_ms()
# takes this long (about its time on an idle 2-core Xeon VM).
REFERENCE_MS = 4.5
MAX_REPORTED_FAILURES = 3


def import_betabart() -> SimpleNamespace:
    """Import the checkout's package afresh, so every set-up pays for it."""
    if not (SRC / "betabart" / "__init__.py").is_file():
        raise SystemExit(f"no betabart package under {SRC}")
    for name in [m for m in sys.modules if m == "betabart" or m.startswith("betabart.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("betabart")
    if Path(package.__file__).resolve().parent != SRC / "betabart":
        raise SystemExit(f"betabart imported from {package.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"betabart.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **modules)


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def reference_ms() -> float:
    """Time one run of a fixed computation that does not use betabart.

    On a shared host the speed of this machine drifts by tens of percent
    over minutes, and CPU time drifts with wall time, so raw op times of
    two runs are not comparable.  The reference mixes what the workloads
    do (masked numpy updates, elementwise math, a small LAPACK solve and
    an interpreter loop) and slows down with them; it runs after every op.
    """
    start = time.perf_counter()
    block = _REFERENCE_ARRAY[:10, :10]
    for _ in range(32):
        z = _REFERENCE_ARRAY.copy()
        small = z < 6.0
        while small.any():
            z[small] += 1.0
            small = z < 6.0
        np.sum(np.log(z) - 1.0 / z)
        np.linalg.solve(block @ block.T + 1e3 * np.eye(10), np.ones(10))
    count = 0
    for k in range(32000):
        count += k % 7
    return 1e3 * (time.perf_counter() - start)


_REFERENCE_ARRAY = np.linspace(0.5, 40.0, 100 * 76).reshape(100, 76)


@dataclass
class Op:
    index: int
    wall: float  # seconds inside cli.main
    loop: float  # seconds for prepare + op + check
    reference_ms: float  # the reference, timed right after the op
    traced: bool
    ok: bool

    @property
    def scale(self) -> float:
        """Factor from this op's wall time to reference-calibrated time."""
        return REFERENCE_MS / self.reference_ms


@dataclass
class Run:
    """Outcome of the timed phase."""

    ops: list[Op] = field(default_factory=list)
    units: int = 0
    failed_units: int = 0
    failed_ops: int = 0

    def ok_ms(self, traced: bool | None = None) -> list[float]:
        """Calibrated times of the ops that passed their checks."""
        return [
            1e3 * op.wall * op.scale
            for op in self.ops
            if op.ok and (traced is None or op.traced == traced)
        ]


def set_up(cls, seed: int, workdir: Path):
    """Import, generate inputs, check the README block, run one warm-up op.

    Returns the workload and whether the golden check and warm-up passed.
    """
    bb = import_betabart()
    workload = cls(bb, seed, workdir)
    ok = True
    try:
        golden_check(bb.cli)
    except CheckFailed as exc:
        print(f"golden check failed: {exc}", file=sys.stderr)
        ok = False
    workload.setup()
    try:
        workload.check(invoke(bb.cli, workload.prepare(0)))
    except (CheckFailed, ValueError, KeyError) as exc:
        print(f"warm-up op failed: {exc}", file=sys.stderr)
        ok = False
    return workload, ok


def attempt(workload, i: int, tracer: Tracer | None):
    """Run and check op i.  Returns (wall seconds, failed units, error)."""
    argv = workload.prepare(i)
    if tracer is not None:
        tracer.install(i)
    start = time.perf_counter()
    try:
        stdout = invoke(workload.bb.cli, argv)
        wall = time.perf_counter() - start
    except Exception as exc:  # an op that raises is counted, the run goes on
        return time.perf_counter() - start, workload.units_per_op, exc
    finally:
        if tracer is not None:
            tracer.restore()
    try:
        _, failed_units = workload.check(stdout)
    except (CheckFailed, ValueError, KeyError) as exc:
        return wall, workload.units_per_op, exc
    return wall, failed_units, None


def run_ops(workload, seconds: float, tracer: Tracer | None) -> Run:
    """Run ops back to back for `seconds`; with a tracer, trace every other
    op and run at least 2 * COUNT_OPS ops, so COUNT_OPS of them are traced."""
    run = Run()
    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < seconds or (
        tracer is not None and i <= 2 * COUNT_OPS
    ):
        traced = tracer is not None and i % 2 == 0
        loop_start = time.perf_counter()
        wall, failed_units, error = attempt(workload, i, tracer if traced else None)
        loop = time.perf_counter() - loop_start
        run.ops.append(Op(i, wall, loop, reference_ms(), traced, error is None))
        run.units += workload.units_per_op
        run.failed_units += failed_units
        if error is not None:
            run.failed_ops += 1
            if run.failed_ops <= MAX_REPORTED_FAILURES:
                print(f"op {i} failed:", file=sys.stderr)
                traceback.print_exception(error, file=sys.stderr)
        i += 1
    return run


def specfun_pass_ms(specfun, array: np.ndarray) -> float:
    """Median calibrated time of log_gamma + digamma + trigamma on `array`."""
    times = []
    deadline = time.perf_counter() + PROBE_SECONDS
    while len(times) < 20 or time.perf_counter() < deadline:
        start = time.perf_counter()
        specfun.log_gamma(array)
        specfun.polygamma(0, array)
        specfun.polygamma(1, array)
        times.append(time.perf_counter() - start)
    reference = statistics.median(reference_ms() for _ in range(3))
    return 1e3 * statistics.median(times) * REFERENCE_MS / reference


def end_to_end(run: Run, setup_s: float) -> dict:
    ms = run.ok_ms()
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0]
    busy_s = sum(op.loop * op.scale for op in run.ops)
    return {
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "ops_per_s": (len(ms) / busy_s, "1/s"),
        "ok_share": (1.0 - run.failed_units / run.units, "ratio"),
        "setup_s": (setup_s, "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


_LAYER_UNITS = {"_ms": "ms", "_ratio": "ratio"}


def per_layer(workload, run: Run, tracer: Tracer) -> dict:
    traced = [op for op in run.ops if op.ok and op.traced]
    scales = {op.index: op.scale for op in traced}
    counted = [op.index for op in traced[:COUNT_OPS]]
    figures = layer_metrics(tracer.spans, scales, counted)
    figures["specfun.pass_ms"] = specfun_pass_ms(workload.bb.specfun, workload.probe_array())
    figures["trace.overhead_ms"] = statistics.median(run.ok_ms(True)) - statistics.median(
        run.ok_ms(False)
    )
    metrics = {}
    for name, value in figures.items():
        unit = next((u for suffix, u in _LAYER_UNITS.items() if name.endswith(suffix)), "count")
        metrics[name] = (value, unit)
    return metrics


def shares(metrics: dict, run: Run) -> dict:
    """Layer times as shares of the mean traced op, for the claims in
    perfbench/README.md."""
    op_ms = statistics.fmean(run.ok_ms(True))
    layers = (
        "inference.bootstrap_ms", "fit.fit_mle_ms", "fit.fit_restricted_ms",
        "cumulants.bartlett_factor_ms", "simulate.self_ms", "cli.self_ms",
    )
    return {"traced_op_mean_ms": op_ms, **{name: metrics[name][0] / op_ms for name in layers}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_wall, setup_reference, setup_ok = [], [], True
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload, ok = set_up(WORKLOADS[args.workload], args.seed, workdir)
            setup_wall.append(time.perf_counter() - start)
            setup_reference.append(reference_ms())
            setup_ok = setup_ok and ok
        tracer = Tracer(vars(workload.bb)) if args.trace else None
        run = run_ops(workload, args.seconds, tracer)
        correct = setup_ok and run.failed_ops == 0
        finish = getattr(workload, "finish", None)
        if finish is not None:
            try:
                finish()
            except CheckFailed as exc:
                print(f"final check failed: {exc}", file=sys.stderr)
                correct = False
        if not run.ok_ms():
            raise SystemExit("no op completed")
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if tracer is not None:
            metrics = per_layer(workload, run, tracer)
            tracer.write(OUT / f"{stem}-spans.json")
        else:
            setup_s = statistics.median(
                wall * REFERENCE_MS / ref for wall, ref in zip(setup_wall, setup_reference)
            )
            metrics = end_to_end(run, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "BETABART_THREADS")},
        "reference_ms_nominal": REFERENCE_MS,
        "reference_ms_median": statistics.median(op.reference_ms for op in run.ops),
        "ops": len(run.ops),
        "samples": len(run.ok_ms()),
        **workload.record,
    }
    result = {
        "correct": correct,
        "attempted": run.units,
        "failed": run.failed_units,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "env": env,
        "setup_wall_s": setup_wall,
        "setup_reference_ms": setup_reference,
        "op_wall_ms": [1e3 * op.wall for op in run.ops],
        "op_reference_ms": [op.reference_ms for op in run.ops],
    }
    if tracer is not None:
        details["shares"] = shares(metrics, run)
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({**details, "result": result}, handle, indent=1)
        handle.write("\n")
    print(json.dumps({"env": env, "shares": details.get("shares")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
