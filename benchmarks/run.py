"""switchdiag benchmark: one workload, closed loop, one process, one thread.

Usage, from the repository root:

    python3 benchmarks/run.py --workload sweep-n16 --seed 0 --seconds 36 --trace 0

Builds its inputs from ``--seed``, runs one warm-up op and then ops back to
back for about ``--seconds`` seconds, checks every op's output against
``benchmarks/references.json`` and prints, as its last stdout line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics instead.  The
line before it holds the run's metadata.  See ``benchmarks/README.md``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread per workload: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("sweep-n16", "enumerate-n4", "query-n64", "residual-sine")
SETUP_REPEATS = 5  # this process plus four fresh ones
MIN_OPS = 3
TAIL_BEYOND = 10  # samples a reported tail percentile must leave above it
LAYERS = ("structural", "switched", "bimmc", "pipeline", "modelio", "cli", "residuals")
#: Per-op span totals reported as ``<name>.s`` in the traced run.
SPAN_METRICS = (
    "structural.dm_decompose",
    "switched.instantiate",
    "switched.representative_configuration",
    "bimmc.generate",
    "bimmc.aggregate_report",
    "pipeline.compact",
    "pipeline.canonical_report",
    "pipeline.render",
    "modelio.decomposition_to_dot",
    "cli.analyze",
    "cli.dm",
    "residuals.simulate_plant",
    "residuals.applicable_residuals",
    "residuals.steady_state_gain",
)
SCALING_NS = (8, 16, 32, 64)
COUNT_UNITS = ("models", "equations", "unknowns", "edges", "over_equations", "fine_blocks")


def is_time(metric: str) -> bool:
    return metric.endswith(".s") or metric.endswith("_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up time and exit")
    return parser.parse_args(argv)


def calibrate() -> float:
    """Fixed pure-Python loop; shows host speed drift, never rescales a metric."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def probe_setup(args) -> float:
    """Set-up time of a fresh process: interpreter, imports and inputs."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(times: list[float]) -> tuple[float, str]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it.

    Short runs have too few samples for that; their tail is the maximum.
    """
    ordered = sorted(times)
    if len(ordered) < 2 * TAIL_BEYOND:
        return ordered[-1], f"max of {len(ordered)}"
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], f"p{100 * (rank + 1) / len(ordered):.1f} of {len(ordered)}"


class Runner:
    """Times ops of one workload and counts the ones that fail."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.last_outputs = None
        self.meta: dict = {}

    def attempt(self, index: int, call=None) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            if call is None:
                outputs = self.workload.op(index)
            else:
                outputs = call(lambda: self.workload.op(index))
            elapsed = time.perf_counter() - start
            self.workload.check(outputs)
            self.last_outputs = outputs
        except Exception as exc:  # a failed op is counted and the run goes on
            elapsed = time.perf_counter() - start
            self.failures.append(f"op {index}: {type(exc).__name__}: {exc}")
        return elapsed


def end_to_end(args, runner, workload, setup_samples) -> dict:
    runner.attempt(0)  # warm-up, not timed
    times = []
    begin = time.perf_counter()
    index = 1
    while len(times) < MIN_OPS or time.perf_counter() - begin + times[-1] <= args.seconds:
        times.append(runner.attempt(index))
        index += 1
    tail_s, tail_rule = tail(times)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    runner.meta.update(samples=len(times), warmup_ops=1, op_tail=tail_rule, op_times_s=times)
    return {
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "work_per_s": (workload.work_per_op * len(times) / sum(times), "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }


def breakdown(models) -> dict:
    """Split structural time on the op's models into matching, coarse and fine."""
    from switchdiag import structural

    values = {"structural.max_matching.s": 0.0, "structural.coarse_dm.s": 0.0}
    full = 0.0
    counts = dict.fromkeys(COUNT_UNITS, 0)
    for model in models:
        t0 = time.perf_counter()
        structural.max_matching(model)
        t1 = time.perf_counter()
        structural.plus_part(model)
        t2 = time.perf_counter()
        dm = structural.dm_decompose(model)
        t3 = time.perf_counter()
        values["structural.max_matching.s"] += t1 - t0
        values["structural.coarse_dm.s"] += t2 - t1
        full += t3 - t2
        counts["models"] += 1
        counts["equations"] += len(model.equations)
        counts["unknowns"] += len(model.unknowns)
        counts["edges"] += sum(len(model.incidence[e]) for e in model.equations)
        counts["over_equations"] += len(dm.over.equations)
        counts["fine_blocks"] += len(dm.fine_blocks)
    values["structural.fine_blocks.self_s"] = full - values["structural.coarse_dm.s"]
    values.update({f"structural.{k}": v for k, v in counts.items()})
    return values


def scaling_series() -> dict:
    """dm_decompose on the half-inserted setup-IV model at growing n."""
    from switchdiag import bimmc, structural, switched

    values = {}
    for n in SCALING_NS:
        model_switched, _ = bimmc.generate(n, "IV")
        modes = ("forward",) * (n // 2) + ("bypass1",) * (n - n // 2)
        model = switched.instantiate(model_switched, switched.Configuration(modes))
        start = time.perf_counter()
        dm = structural.dm_decompose(model)
        values[f"structural.dm_decompose.n{n}.s"] = time.perf_counter() - start
        values[f"structural.dm_decompose.n{n}.equations"] = len(model.equations)
        values[f"structural.dm_decompose.n{n}.fine_blocks"] = len(dm.fine_blocks)
    return values


def per_layer(args, runner, workload, reference_counts) -> dict:
    from spans import Tracer

    tracer = Tracer()
    runner.attempt(0)  # warm-up, not timed
    plain, traced, per_op = [], [], []
    models = counts = None
    begin = time.perf_counter()
    index = 1
    while len(traced) < MIN_OPS or time.perf_counter() - begin + plain[-1] + traced[-1] <= args.seconds:
        plain.append(runner.attempt(index))
        failed_before = len(runner.failures)
        traced.append(runner.attempt(index, tracer.run))
        index += 1
        totals, self_by_layer = tracer.summary()
        values = {f"{name}.s": totals.get(name, 0.0) for name in SPAN_METRICS}
        values["structural.isolability_partition.self_s"] = totals.get(
            "structural.isolability_partition.self", 0.0)
        values["modelio.load.s"] = (totals.get("modelio.load_any_model", 0.0)
                                    + totals.get("modelio.switched_model_from_dict", 0.0))
        values.update({f"{layer}.self_s": self_by_layer.get(layer, 0.0) for layer in LAYERS})
        values["trace.unaccounted_s"] = self_by_layer.get("op", 0.0)
        per_op.append(values)
        if models is None and len(runner.failures) == failed_before:
            models = list(tracer.models)
            counts = workload.counts(runner.last_outputs)

    metrics = {k: (statistics.median(v[k] for v in per_op), "s") for k in per_op[0]}
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain) - 1, "1")
    for key in ("modelio.bytes_read", "cli.bytes_written", "residuals.steps"):
        metrics[key] = ((counts or {}).get(key, 0), "count")
    for key, value in {**breakdown(models or []), **scaling_series()}.items():
        metrics[key] = (value, "s" if is_time(key) else "count")

    count_values = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    if counts is None:
        runner.failures.append("no traced op succeeded, so nothing was counted")
    elif metrics["structural.equations"][0] != workload.expected_equations:
        runner.failures.append(
            f"structural.equations {metrics['structural.equations'][0]} != {workload.expected_equations}")
    for key, want in reference_counts.items():
        if count_values.get(key) != want:
            runner.failures.append(f"count {key} = {count_values.get(key)}, reference {want}")
    runner.meta.update(samples=len(traced), untraced_samples=len(plain), warmup_ops=1)
    return metrics


def run(args) -> int:
    src = ROOT / "src" / "switchdiag"
    if not src.is_dir():
        print(f"error: package sources not found at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    references = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))

    import numpy
    import scipy
    import workloads

    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, references[args.workload])
        setup_s = time.perf_counter() - _START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        calib_start = calibrate()
        runner = Runner(workload)
        if args.trace:
            metrics = per_layer(args, runner, workload, references[args.workload].get("counts", {}))
        else:
            setup_samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
            runner.meta["setup_samples_s"] = setup_samples
            metrics = end_to_end(args, runner, workload, setup_samples)
        calib_end = calibrate()
        if args.trace:
            metrics["host.calib_s"] = ((calib_start + calib_end) / 2, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in runner.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "host.calib_s": {"start": calib_start, "end": calib_end},
        **runner.meta,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(run(parse_args(sys.argv[1:])))
