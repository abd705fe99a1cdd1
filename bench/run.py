"""cpdilate benchmark: one workload per run, closed loop, one client.

Run from the repository root:

    python3 bench/run.py --workload dilate_large --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60

A run imports the library from ``src/``, makes the workload's inputs from
``--seed`` (set-up, repeated ``SETUP_REPEATS`` times), runs one untimed
warm-up operation, then runs operations back to back for ``--seconds``.
Every operation's output is checked; a failing operation is counted, not
raised.  Stdout ends with two JSON lines: a detail record (environment,
exact work counts, error rate, tail percentile and sample count), then
the result ``{"correct", "attempted", "failed", "metrics"}``.  A summary
table goes to stderr.  ``--workload all`` runs every workload in its own
process and prints one table.

With ``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``.  With ``--trace 1`` traced and untraced operations
alternate: the traced ones give the per-layer metrics, the difference of
the two medians is the tracing overhead, and the spans are written to
``.bench_traces/<workload>-seed<seed>.jsonl`` when the run ends.

Scratch input files live under ``.bench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
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
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

# Per-layer count metrics: name -> key of the per-op counts.  Sizes come
# from the workload's instance and files; "gram_bytes" and "eig_flops" are
# counted at the hermitian_eig boundary of traced operations.
COUNT_METRICS = {
    "dilation.raw_dim": "raw_dim",
    "cpmaps.choi_dim_sum": "choi_dim_sum",
    "dilation.r1": "r1",
    "dilation.r2": "r2",
    "dilation.gram_rank_ratio": "gram_rank_ratio",
    "dilation.gram_bytes_computed": "gram_bytes",
    "linalg.eig_flops_computed": "eig_flops",
    "serialize.bytes_read": "bytes_read",
    "serialize.bytes_written": "bytes_written",
}


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest percentile that has at least ten samples beyond it.

    Returns ``(value, percentile)``: the eleventh-largest sample and the
    share of samples at or below its rank, in percent.  With ten samples
    or fewer no percentile qualifies; the maximum is returned at 100.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


@dataclass
class Run:
    """Raw measurements of one timed loop."""

    latencies: list[float] = field(default_factory=list)  # untraced ops, s
    traced_latencies: list[float] = field(default_factory=list)
    traced_ops: list[int] = field(default_factory=list)
    outcomes: list = field(default_factory=list)

    @property
    def failures(self) -> list:
        return [o for o in self.outcomes if not o.ok]


def attempt(workload, index: int, tracer=None):
    """Run and check one op; returns (outcome, seconds spent in the op).

    With a tracer, only the op itself runs traced, not the check.  A
    raised exception or an unreadable output is a failed op, not an
    error of the benchmark."""
    from workloads import Outcome

    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.op(index)
        else:
            result = tracer.run_op(index, lambda: workload.op(index))
    except Exception:  # noqa: BLE001 - counted as a failed op
        return Outcome(False, traceback.format_exc(limit=2)), time.perf_counter() - t0
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    try:
        return workload.check(index, result), elapsed
    except Exception:  # noqa: BLE001 - counted as a failed op
        return Outcome(False, traceback.format_exc(limit=2)), elapsed


def run_loop(workload, seconds: float, tracer=None) -> Run:
    """Closed loop for ``seconds``; with a tracer, every other op is traced."""
    run = Run()
    deadline = time.perf_counter() + seconds
    index = 0
    while index < 2 or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 1
        outcome, elapsed = attempt(workload, index, tracer if traced else None)
        if traced:
            run.traced_latencies.append(elapsed)
            run.traced_ops.append(index)
        else:
            run.latencies.append(elapsed)
        run.outcomes.append(outcome)
        index += 1
    return run


def _median_over(rows: list[dict], key: str) -> float:
    return float(statistics.median(row.get(key, 0.0) for row in rows)) if rows else 0.0


def _count_over(rows: list[dict], key: str) -> float:
    """Median per-op count, taken as one op's actual count (never the
    mean of two), so that a shape-determined count repeats exactly."""
    return float(statistics.median_low(row.get(key, 0) for row in rows)) if rows else 0.0


def end_to_end_metrics(run: Run, setup_s: float) -> dict[str, float]:
    passed = [o for o in run.outcomes if o.ok]
    tail, _ = tail_percentile(run.latencies)
    return {
        "setup_s": setup_s,
        "op_latency_p50_ms": 1e3 * statistics.median(run.latencies),
        "op_latency_tail_ms": 1e3 * tail,
        # per second spent inside ops; the untimed checks between ops are excluded
        "ops_per_s": len(passed) / sum(run.latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # with no passing op there is no residual; the run is marked incorrect
        "residual_headroom_decades": (
            statistics.median(o.headroom for o in passed) if passed else 0.0
        ),
    }


def per_layer_metrics(names: list[str], run: Run, tracer) -> dict[str, float]:
    """Per-layer metric values, each chosen by its name's form.

    ``<span>.ms`` is the median per-op time inside that function,
    ``<span>.self_ms`` the same minus its traced children,
    ``layer.<layer>.share`` the median share of the op's time spent in
    the layer's own code, ``layer.max_share`` the median of the largest
    share of a library layer (``bench`` is the benchmark's own code), ``trace.overhead_ms`` the traced minus the untraced
    median op latency, and the names in ``COUNT_METRICS`` are median
    per-op counts.
    """
    from spans import per_op_times

    times = per_op_times(tracer.spans)
    rows = [times.get(op, {}) for op in run.traced_ops]
    counts = [{**run.outcomes[op].counts, **tracer.counts.get(op, {})} for op in run.traced_ops]
    shares = [
        {key[: -len(".self")] + ".share": value / row["op.total"]
         for key, value in row.items() if key.startswith("layer.") and key.endswith(".self")}
        for row in rows
    ]
    out = {}
    for name in names:
        if name in COUNT_METRICS:
            out[name] = _count_over(counts, COUNT_METRICS[name])
        elif name == "trace.overhead_ms":
            out[name] = 1e3 * (statistics.median(run.traced_latencies)
                               - statistics.median(run.latencies))
        elif name == "layer.max_share":
            out[name] = float(statistics.median(
                max(v for k, v in s.items() if k != "layer.bench.share") for s in shares))
        elif name.startswith("layer.") and name.endswith(".share"):
            out[name] = _median_over(shares, name)
        elif name.endswith(".self_ms"):
            out[name] = 1e3 * _median_over(rows, name[: -len("_ms")])
        elif name.endswith(".ms"):
            out[name] = 1e3 * _median_over(rows, name[: -len("ms")] + "total")
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return out


def _openblas_runtime() -> dict:
    """Thread count and run-time configuration (with the selected core)
    reported by the OpenBLAS library numpy loaded, where it can be found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, threads.argtypes = ctypes.c_int, []
                    config.restype, config.argtypes = ctypes.c_char_p, []
                    return {"blas_threads": int(threads()),
                            "blas_runtime_config": config().decode()}
    return {}


def environment(seed: int) -> dict:
    import importlib.metadata

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    try:
        runtime = _openblas_runtime()
    except OSError:
        runtime = {}
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_build_config": blas.get("openblas configuration"),
        "blas_threads": runtime.get("blas_threads"),
        "blas_runtime_config": runtime.get("blas_runtime_config"),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
    }


def import_seconds(src: Path) -> float:
    """Time to import numpy and cpdilate in a fresh interpreter, the
    start-up cost every command-line invocation pays."""
    probe = (f"import sys, time; sys.path.insert(0, {str(src)!r}); t = time.perf_counter(); "
             "import numpy, cpdilate; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout)


def execute(workload_name: str, seed: int, seconds: float, trace: bool,
            root: Path = ROOT) -> tuple[dict, dict]:
    """Set up, warm up and measure one workload; returns (detail, result).

    ``setup_s`` is the median fresh-interpreter import time plus the
    median time to make the inputs, over ``SETUP_REPEATS`` repetitions."""
    import cpdilate
    from spans import Tracer
    from workloads import WORKLOADS

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[workload_name](seed)
    (root / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=root / ".bench_work"))
    try:
        import_runs, setup_runs = [], []
        for _ in range(SETUP_REPEATS):
            import_runs.append(import_seconds(Path(cpdilate.__file__).parent.parent))
            t0 = time.perf_counter()
            workload.setup(workdir)
            setup_runs.append(time.perf_counter() - t0)
        setup_s = statistics.median(import_runs) + statistics.median(setup_runs)

        attempt(workload, 0)  # warm-up: untimed, its outcome is not counted
        tracer = Tracer() if trace else None
        run = run_loop(workload, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(seed)
    if trace:
        values = per_layer_metrics([m["name"] for m in spec["per_layer"]], run, tracer)
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["per_layer"]}
        trace_dir = root / ".bench_traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(trace_dir / f"{workload_name}-seed{seed}.jsonl",
                           {"workload": workload_name, "env": env})
    else:
        values = end_to_end_metrics(run, setup_s)
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    attempted, failed = len(run.outcomes), len(run.failures)
    tail, pct = tail_percentile(run.latencies)
    passed = [o for o in run.outcomes if o.ok]
    counts = {key: _count_over([o.counts for o in passed], key)
              for key in ("raw_dim", "choi_dim_sum", "r1", "r2", "gram_rank_ratio",
                          "bytes_read", "bytes_written")}
    detail = {
        "workload": workload_name,
        "trace": trace,
        "env": env,
        "import_runs_s": import_runs,
        "setup_runs_s": setup_runs,
        "error_rate": failed / attempted,
        "failure_reasons": sorted({o.reason for o in run.failures})[:5],
        "samples": len(run.latencies),
        "tail_percentile": pct,
        "tail_ms": 1e3 * tail,
        "headroom_min_decades": min((o.headroom for o in passed), default=None),
        "counts": counts,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return detail, result


def _print_table(rows: list[tuple[str, dict, dict]], stream) -> None:
    for workload, detail, result in rows:
        print(f"{workload}: {result['attempted']} ops, error_rate {detail['error_rate']:.4g} "
              f"({result['failed']} failed), tail = p{detail['tail_percentile']:.1f} "
              f"of {detail['samples']} samples", file=stream)
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}", file=stream)


def _run_all(args) -> int:
    from workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
        rows.append((name, json.loads(detail_line), json.loads(result_line)))
    _print_table(rows, sys.stdout)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["dilate_large", "reverify_wide", "fuzz_small", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cpdilate" / "__init__.py").is_file():
        print(f"error: no cpdilate sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    if args.workload == "all":
        return _run_all(args)
    detail, result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_table([(args.workload, detail, result)], sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
