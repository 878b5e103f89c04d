"""Regenerate ``references.json`` from the current sources.

    python3 benchmarks/make_references.py

The references pin today's outputs: the sweep's rendered bytes, the
query's canonical report and DM, the raw-enumeration count and the
per-op structural counts of the traced run.  Run it only when an output is
meant to change, and say so in the change that does.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402  (pins the thread pools before numpy loads)
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from switchdiag import pipeline  # noqa: E402


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def query_reference(workdir: str) -> dict:
    """Digests of the representative arrangement: inserted submodules first."""
    query = workloads.QueryN64(0, workdir, {})
    half = query.n // 2
    modes = ("forward",) * half + ("bypass1",) * (query.n - half)
    query.configs = [modes]
    _, analyzed, dot = query.op(0)
    rename = workloads.renamer(modes)
    report, _ = workloads.parse_analyze(analyzed)
    return {
        "report_sha256": workloads.digest(workloads.canonical_report(report, rename)),
        "dm_sha256": workloads.digest(workloads.canonical_dm(workloads.parse_dot(dot), rename)),
    }


def traced_counts(cls, workdir: str, reference: dict) -> dict:
    """Per-op counts of one traced op, as the traced run reports them."""
    workload = cls(0, workdir, reference)
    tracer = Tracer()
    outputs = tracer.run(lambda: workload.op(0))
    workload.check(outputs)
    values = {**run.breakdown(tracer.models), **run.scaling_series(), **workload.counts(outputs)}
    # The query's output size depends on which submodules the seed inserts.
    values.pop("cli.bytes_written", None)
    return {k: v for k, v in values.items() if not run.is_time(k)}


def main() -> None:
    report = pipeline.sweep(workloads.SweepN16.n)
    with tempfile.TemporaryDirectory() as workdir:
        references = {
            "sweep-n16": {
                "md_sha256": sha256(pipeline.render(report, "md")),
                "json_sha256": sha256(pipeline.render(report, "json")),
            },
            "enumerate-n4": {"checked_per_setup": 4**workloads.EnumerateN4.n},
            "query-n64": query_reference(workdir),
            "residual-sine": {},
        }
        for cls in workloads.WORKLOADS.values():
            references[cls.name]["counts"] = traced_counts(cls, workdir, references[cls.name])
    (BENCH / "references.json").write_text(json.dumps(references, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
