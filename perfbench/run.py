"""aquafuse benchmark: runs the pipeline from outside and checks its maps.

    python3 perfbench/run.py --workload bundled --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout.  The package is imported from the
checkout's `src/`, never from an installed copy.  Each workload is a closed
loop in this one process: passes run back to back, and a further pass starts
only if, judged by the one before it, it will end within `--seconds` of the
first pass's start.  So a run takes about `--seconds`, or one pass if that
is longer.  A pass is one `run-all`.  Every pass is checked (see check.py); a
pass that raises, exits non-zero or fails its check counts as failed.

OpenBLAS runs one thread.  On a 2-vCPU host its default of two threads gave
k-means no wall-time gain (5.72 against 5.69 s per bundled pass) but added
about 1.2 s of CPU per pass, spent by the second thread waiting for work.
That wait followed the host's scheduling rather than the program: across ten
runs of the same code, `pipeline_cpu_s` spread by 19% and 28% of its median.

`setup_s` is the median of three fresh interpreters that import aquafuse and
exit, each timed from this process, plus the median of three input
preparations (writing and parsing the scene).

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs pairs of an
untraced and a traced pass on the same inputs, then one tracemalloc pass, and
prints the per-layer metrics (see tracing.py).  Times are medians over the
traced passes.  Counts come from the first traced pass, which like the
tracemalloc pass uses the reference inputs of pass 0.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics, each metric with its unit from BENCHMARK.json;
the line before it records the environment.
Results and spans are also written under `.bench_out/<workload>/`.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
# run in a fresh interpreter, timed from outside: start, imports and exit
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import aquafuse.cli"

# before numpy is first imported (by check.py); the import probe inherits it
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(HERE))
import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402



def metric_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def import_cli():
    """Import aquafuse.cli from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    if not (src / "aquafuse" / "cli.py").is_file():
        sys.exit(f"perfbench: {src}/aquafuse not found; run from a source checkout")
    sys.path.insert(0, str(src))
    import aquafuse.cli as cli
    if Path(cli.__file__).resolve().parent != src / "aquafuse":
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's src/")
    return cli


def import_time() -> float:
    """Start, imports and exit of a fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"perfbench: import probe failed: {proc.stderr.strip()}")
    return elapsed


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _commit():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(), "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
    }


@dataclass
class PassResult:
    index: int
    mode: str               # "plain", "spans" or "alloc"
    pipeline_seed: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    oa_final: float | None = None
    oa_fused: float | None = None
    error: str | None = None
    note: str | None = None


class Bench:
    def __init__(self, cli, workload: str, seed: int):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = OUT / workload
        self.run_dir = self.work / "run"
        self.inputs = None
        self._readme = None

    # -- set-up ---------------------------------------------------------------

    def prepare(self) -> None:
        """Write and parse the inputs of pass 0."""
        self.inputs = workloads.write_inputs(ROOT, self.workload, self.seed, 0, self.work,
                                             self.cli.parse_scene)

    # -- passes ---------------------------------------------------------------

    def run_pass(self, index: int, inputs: int, mode: str, tracer=None) -> PassResult:
        """Run pass `index` on the inputs of pass `inputs` (see workloads.py)."""
        self.inputs = workloads.write_inputs(ROOT, self.workload, self.seed, inputs,
                                             self.work, self.cli.parse_scene)
        seed = self.inputs.pipeline_seed
        argv = ["run-all", "--config", str(self.inputs.config), "--seed", str(seed),
                "--out", str(self.run_dir)]
        result = PassResult(index, mode, seed)
        shutil.rmtree(self.run_dir, ignore_errors=True)
        if mode != "plain":
            tracer.install(index, mode)
        span = tracer.open_span("pass") if mode == "spans" else None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = self.cli.main(argv)
            if code != 0:
                result.error = f"run-all exited {code}"
        except Exception as exc:  # a crashing pass is counted, not fatal
            result.error = f"{type(exc).__name__}: {exc}"
        finally:
            result.wall_s = time.perf_counter() - wall0
            result.cpu_s = time.process_time() - cpu0
            if span is not None:
                tracer.close_span(span)
            if mode != "plain":
                tracer.uninstall()
        if result.error is None:
            self._check(result)
        if result.error is None and mode == "spans":
            tracer.counts[index]["shadow.truth_coverage"] = self._truth_coverage()
        if result.error is not None:
            print(f"perfbench: pass {index} failed: {result.error}", file=sys.stderr)
        return result

    def _check(self, result: PassResult) -> None:
        expected = None
        try:
            if self.inputs.scene_is_fixture and result.pipeline_seed == 0:
                if self._readme is None:
                    self._readme = check.readme_table(ROOT / "README.md")
                expected = self._readme
            reports, result.note = check.check_pass(self.run_dir, expected)
        except (check.CheckError, OSError, KeyError, ValueError) as exc:
            result.error = f"check: {exc}"
            return
        result.oa_final = reports[check.FINAL][2]
        result.oa_fused = reports[check.FUSED][2]

    def _truth_coverage(self) -> float:
        """Share of rendered-shadow pixels inside the potential shadow mask."""
        import numpy as np
        truth = np.fromfile(self.run_dir / "shadow_truth.bin", dtype="<f4") > 0.5
        mask = np.fromfile(self.run_dir / "potential_shadow.bin", dtype="<f4") > 0.5
        return float((truth & mask).sum() / max(int(truth.sum()), 1))


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(passes, setup_s: float) -> dict:
    ok = [p for p in passes if p.error is None]
    return {
        "pipeline_s": _median(p.wall_s for p in passes),
        "pipeline_cpu_s": _median(p.cpu_s for p in passes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "oa_final": _median(p.oa_final for p in ok),
        "oa_fused": _median(p.oa_fused for p in ok),
        "pass_rate": len(ok) / len(passes),
    }


def per_layer(passes, tracer) -> dict:
    traced = [p.index for p in passes if p.mode == "spans"]
    plain = [p.wall_s for p in passes if p.mode == "plain"]
    times = {p: tracing.self_times(tracer.spans, p) for p in traced}
    metrics = tracing.median_over(traced, times, tracing.span_metrics())
    first = tracer.counts[traced[0]]
    for name in tracing.count_metrics():
        metrics[name] = first.get(name, 0)
    alloc = [p.index for p in passes if p.mode == "alloc"]
    peaks = tracer.peaks[alloc[0]]
    for layer in tracing.ALLOC_LAYERS:
        metrics[f"{layer}.peak_alloc_mib"] = peaks.get(layer, 0) / tracing.MIB
    traced_s = _median(p.wall_s for p in passes if p.mode == "spans")
    metrics["trace.pipeline_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - _median(plain)
    metrics["trace.counter_errors"] = tracer.counter_errors
    return {name: metrics[name] for name in tracing.layer_metrics()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    cli = import_cli()
    units = metric_units()
    bench = Bench(cli, args.workload, args.seed)
    setup_s = statistics.median(import_time() for _ in range(SETUP_REPEATS))
    prep_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        bench.prepare()
        prep_times.append(time.perf_counter() - t0)
    setup_s += statistics.median(prep_times)
    env = environment()

    tracer = tracing.Tracer(cli) if args.trace else None
    passes = []
    start = time.perf_counter()
    step = 2 if args.trace else 1   # traced: an untraced and a traced pass on the same inputs
    while True:
        t0 = time.perf_counter()
        for _ in range(step):
            n = len(passes)
            mode = ("plain", "spans")[n % 2] if args.trace else "plain"
            passes.append(bench.run_pass(n, n // step, mode, tracer))
        now = time.perf_counter()
        if now + (now - t0) > start + args.seconds:
            break
    if args.trace:
        passes.append(bench.run_pass(len(passes), 0, "alloc", tracer))
        metrics = per_layer(passes, tracer)
    else:
        metrics = end_to_end(passes, setup_s)

    failed = sum(1 for p in passes if p.error is not None)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "passes": len(passes), "env": env,
            "pass_log": [vars(p) for p in passes]}
    tag = f"s{args.seed}-t{args.trace}"
    (bench.work / f"result-{tag}.json").write_text(json.dumps(
        {"info": info, "metrics": metrics}, indent=1) + "\n")
    if tracer is not None:
        (bench.work / f"spans-{tag}.json").write_text(
            json.dumps(tracer.spans_as_records()) + "\n")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "passes": len(passes),
                      "env": env}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(passes), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
