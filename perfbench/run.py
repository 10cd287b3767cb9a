"""crownlab benchmark: seeded sweep, pairing and corpus workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the same checkout; without it the
run exits with code 2 and prints no result.  One process, one BLAS thread.

Set-up (timed SETUP_ROUNDS times, median reported as ``setup_s``): a fresh
import of every crownlab module, the warm-up inputs' generation and the untimed
warm-up items themselves (one n = 2 sweep, one pairing item or 17 corpus
items).

``--trace 0`` runs items until their summed run time reaches ``--seconds``,
ending on an odd number of whole blocks (``pairing``: one shuffle of the
five j_max values), and reports the end-to-end metrics: verified items per
second, median item latency, peak resident memory and set-up time.  Each
item's inputs are drawn outside its timed region.

``--trace 1`` runs a fixed item count (so every count repeats exactly for a
seed), each item twice, plain and with spans around every traced library
function (see ``layers.py`` and ``spans.py``), and reports the per-layer
metrics plus ``trace.overhead_s``, the traced minus the untraced item time.
It exits with code 3, printing no result, when a metric that
``rationale.json`` predicts non-zero for the workload reads zero, since that
means a wrapper was missed, or when a function listed under
``predicted_nested`` has no call from inside another traced function (the
benchmark also calls those directly, so only a nested call proves the
importing module's binding was wrapped).  It exits with code 4 when a metric
predicted zero (a layer the workload should bypass) reads non-zero.

Every run prints a context record (cores, Python, numpy, BLAS vendor and
thread setting, seed) and writes it, and in traced runs the spans, under
``.bench_out/``.  The last line of standard output is the result object.
"""

import os

# One BLAS thread: the load is a single process with no more threads than
# cores, and small-matrix LAPACK calls gain nothing from more.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_ROUNDS = 9
WARMUP_SEED = 0

sys.path.insert(0, str(HERE))
from layers import TARGETS, layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WARMUP, WORKLOADS  # noqa: E402


class SetupError(RuntimeError):
    """The checkout does not hold the library this benchmark measures."""


def import_crownlab():
    """Import crownlab afresh from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "crownlab" or k.startswith("crownlab.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    try:
        cl = importlib.import_module("crownlab")
    except ImportError as exc:
        raise SetupError(f"cannot import crownlab from {SRC}: {exc}") from exc
    if Path(cl.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"crownlab imported from {cl.__file__}, not from {SRC}")
    return cl


def run_item(workload, cl, inp) -> bool:
    try:
        return bool(workload.run(cl, inp))
    except cl.CrownLabError:
        return False


def setup(workload):
    """Median set-up time over SETUP_ROUNDS rounds and the last round's import.

    The warm-up inputs do not depend on ``--seed``, so every run sets up the
    same work and ``setup_s`` moves only with the code and the machine.
    """
    times = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        cl = import_crownlab()
        for j in range(workload.warmup_items):
            run_item(workload, cl, workload.make(WARMUP_SEED, j, WARMUP))
        times.append(time.perf_counter() - start)
    return statistics.median(times), cl


def measure(workload, cl, seed: int, seconds: float):
    """Items until their summed time reaches ``seconds`` and an odd number of
    whole blocks has run.

    An odd count of whole blocks puts the median item inside the middle
    latency group (pairing: the middle j_max) rather than averaging two
    items from either side of a gap between groups.
    """
    durations, passed = [], 0
    busy = 0.0
    while busy < seconds or len(durations) % (2 * workload.block) != workload.block:
        inp = workload.make(seed, len(durations))
        start = time.perf_counter()
        ok = run_item(workload, cl, inp)
        durations.append(time.perf_counter() - start)
        busy += durations[-1]
        passed += ok
    return durations, passed


def run_paired(workload, cl, seed: int, tracer):
    """The workload's fixed traced item count, each item run plain and traced.

    Each item first runs once untimed, so both timed runs find the caches and
    the allocator as the item leaves them.  The two timed runs are back to
    back, plain first on even items and traced first on odd ones, so machine
    drift falls on both alike.  Returns the plain and traced item time and
    the passes of the timed runs.
    """
    times = {False: 0.0, True: 0.0}
    passed = 0
    for i in range(workload.trace_items):
        inp = workload.make(seed, i)
        run_item(workload, cl, inp)
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if not traced:
                start = time.perf_counter()
                passed += run_item(workload, cl, inp)
                times[False] += time.perf_counter() - start
                continue
            tracer.install(TARGETS)
            tracer.item = i
            try:
                start = time.perf_counter()
                with tracer.span("bench.item"):
                    passed += run_item(workload, cl, inp)
                times[True] += time.perf_counter() - start
            finally:
                tracer.uninstall()
    return times[False], times[True], passed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def context(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rationale = json.loads((HERE / "rationale.json").read_text())
    try:
        setup_s, cl = setup(workload)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    ctx = context(args)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        durations, passed = measure(workload, cl, args.seed, args.seconds)
        busy = sum(durations)
        values = {
            "setup_s": setup_s,
            "items_per_s": passed / busy,
            "item_s.p50": statistics.median(durations),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = spec["end_to_end"]
        attempted = len(durations)
        ctx["summary"] = {"items": attempted, "passed": passed, "item_time_s": busy}
    else:
        tracer = Tracer()
        plain_s, traced_s, passed = run_paired(workload, cl, args.seed, tracer)
        tracer.dump(OUT / f"spans-{tag}.json")
        metrics = spec["per_layer"]
        values = layer_metrics(
            tracer,
            [m["name"] for m in metrics],
            {"trace.overhead_s": traced_s - plain_s, "trace.traced_s": traced_s},
        )
        attempted = 2 * workload.trace_items
        ctx["summary"] = {"items": attempted, "passed": passed, "untraced_s": plain_s}
        nested = tracer.nested_calls()
        missed = [m for m in rationale["predicted_nonzero"][args.workload] if values[m] == 0]
        missed += [f"{f} (nested)" for f in rationale["predicted_nested"][args.workload] if nested[f] == 0]
        if missed:
            print(f"perfbench: predicted non-zero but zero (wrapper missed?): {missed}", file=sys.stderr)
            return 3
        bypassed = [m for m in rationale["predicted_zero"][args.workload] if values[m] != 0]
        if bypassed:
            print(f"perfbench: bypass prediction broken, non-zero: {bypassed}", file=sys.stderr)
            return 4

    (OUT / f"context-{tag}.json").write_text(json.dumps(ctx, indent=1))
    print("context " + json.dumps(ctx))
    result = {
        "correct": passed == attempted,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
