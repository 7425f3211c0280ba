"""Benchmark for the coverideals CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Everything runs in this one process and on
one thread: each workload item is a ``coverideals.cli.main(argv)`` call with
stdout captured.  Workloads and their correctness references live in
``workloads.py``.

With ``--trace 0`` the run repeats whole passes of the workload until the
next pass would end after ``--seconds`` (at least one pass) and reports the
end-to-end metrics.  Their times are nominal seconds (``pace.py``): each
timed interval minus the calibration probes inside it, scaled by how fast
the probe ran during it, so that the host's drifting speed cancels.  With
``--trace 1`` it makes one pass with every layer wrapped (``spans.py``)
between two untraced passes, checks that all three produce the same bytes
and that every layer expected on the workload fired, and reports the
per-layer metrics.  Either way the outputs are checked against the
workload's references outside the timed region, and the last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Exit status is 0 when the run completed (correct or not) and 2 when it could
not run at all, for example when the checkout has no ``src/coverideals``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from pace import Pace  # noqa: E402
from spans import Tracer, metric_unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 20091110
SETUP_REPEATS = 25  # per round; a timed run makes two rounds
PACKAGE = "coverideals"

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def import_package(src: Path):
    """Import coverideals from ``src`` afresh, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    package = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(package.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise ImportError(f"{PACKAGE} was imported from {package.__file__}, not {src}")
    return package


def set_up(workload, seed: int, src: Path, workdir: Path, pace: Pace):
    """Import the package and build the workload's inputs SETUP_REPEATS
    times; returns (package, items, nominal seconds of each repeat)."""
    repeats = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        package = import_package(src)
        items = workload.build(seed, workdir)
        repeats.append((start, time.perf_counter()))
    return package, items, [pace.nominal(*r) for r in repeats]


def run_item(main, argv: list[str]) -> tuple[int | str, str, float, float]:
    """(exit status or exception text, captured stdout, start, end)."""
    out = io.StringIO()
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    except Exception as exc:  # a crash is one failed item, not a failed run
        status = f"{type(exc).__name__}: {exc}"
    return status, out.getvalue(), start, time.perf_counter()


def run_pass(package, items, tracer: Tracer | None = None):
    """Run every item once; returns (statuses, outputs, (start, end) of each
    item, (start, end) of the pass).  The CLI entry point is looked up per
    call, so a traced pass goes through the wrapper."""
    statuses, outputs, spans = [], [], []
    start = time.perf_counter()
    for argv in items:
        status, out, item_start, item_end = run_item(package.cli.main, argv)
        statuses.append(status)
        outputs.append(out)
        spans.append((item_start, item_end))
        if tracer is not None:
            tracer.add("cli.main", "output_bytes", len(out.encode()))
    return statuses, outputs, spans, (start, time.perf_counter())


def pass_failures(workload, statuses, outputs, checked, gate) -> dict[int, str]:
    """{item index: message} for the items of one pass that crashed, returned
    the wrong status, differ from the checked pass, or failed its gate."""
    bad = {}
    for k, (status, out, ref) in enumerate(zip(statuses, outputs, checked)):
        if status != workload.exit_code:
            bad[k] = f"exit status {status!r}"
        elif out != ref:
            bad[k] = "output differs from the checked pass"
        elif k in gate:
            bad[k] = gate[k]
    return bad


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(workload, package, items, seconds: float, pace: Pace):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(package, items))
        pass_start, pass_end = passes[-1][3]
        if pass_end - start + pass_end - pass_start > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    item_ms = [pace.nominal(*item) * 1000 for p in passes for item in p[2]]
    metrics = {
        "pass_s": statistics.median(pace.nominal(*p[3]) for p in passes),
        "item_ms_p50": quantile(item_ms, 50),
        "item_ms_p90": quantile(item_ms, 90),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"passes {len(passes)}, items timed {len(item_ms)}, wall seconds "
          + " ".join(f"{p[3][1] - p[3][0]:.3f}" for p in passes)
          + ", nominal seconds per second "
          + " ".join(f"{pace.scale(*p[3]):.3f}" for p in passes))
    checked = passes[0][1]
    gate = workload.check(items, checked)
    failures = [pass_failures(workload, p[0], p[1], checked, gate) for p in passes]
    return metrics, len(passes) * len(items), failures, []


def traced_run(workload, package, items):
    # plain passes on both sides of the traced one, so that a drift in
    # machine speed does not land in the overhead ratio
    before = run_pass(package, items)
    tracer = Tracer()
    tracer.install(package)
    try:
        traced = run_pass(package, items, tracer)
    finally:
        tracer.uninstall()
    after = run_pass(package, items)
    metrics = tracer.layer_metrics()
    seconds = [p[3][1] - p[3][0] for p in (before, traced, after)]
    metrics["trace.overhead_ratio"] = 2 * seconds[1] / (seconds[0] + seconds[2])
    plain = before[1]
    gate = workload.check(items, plain)
    failures = [pass_failures(workload, p[0], p[1], plain, gate)
                for p in (before, traced, after)]
    fired = tracer.fired()
    problems = [f"traced layer {layer} never fired" for layer in sorted(workload.layers - fired)]
    problems += [f"traced layer {layer} fired but should be idle"
                 for layer in sorted(workload.idle & fired)]
    return metrics, 3 * len(items), failures, problems


def run(workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """One benchmark run; returns the result object printed last."""
    src = root / "src"
    workdir = HERE / "_work" / f"{workload.name}_{seed}_{int(time.time() * 1e6)}"
    pace = Pace()
    try:
        pace.start()
        package, items, setup_s = set_up(workload, seed, src, workdir, pace)
        # harness work whose time swings with the shared disk: not set-up time
        workload.write_inputs()
        print(f"workload {workload.name}, seed {seed}, {len(items)} items per pass, "
              f"inputs sha256 {workload.digest(items)}")
        if trace:
            pace.stop()  # its ticks would land in the traced layers' self time
            metrics, attempted, failures, problems = traced_run(workload, package, items)
        else:
            metrics, attempted, failures, problems = timed_run(
                workload, package, items, seconds, pace)
            # a second round after the passes, so that the median spans the run
            setup_s += set_up(workload, seed, src, workdir, pace)[2]
            metrics["setup_s"] = statistics.median(setup_s)
    finally:
        pace.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    for bad in failures:
        for item, message in sorted(bad.items()):
            print(f"FAIL {workload.name} item {item}: {message}", file=sys.stderr)
    for message in problems:
        print(f"FAIL {workload.name}: {message}", file=sys.stderr)
    failed = sum(len(bad) for bad in failures)
    print(f"error_rate {failed}/{attempted}")
    return {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value,
                   "unit": metric_unit(name) if trace else END_TO_END_UNITS[name]}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: no src/{PACKAGE} under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), root)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
