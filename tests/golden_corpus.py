"""The golden output corpus: every rendered output, pinned byte for byte.

The corpus holds, under ``tests/golden/``:

* as bytes: ``render(sweep(n))`` in md, json and csv for n = 1..8 and 16,
  the ``full_enumeration_check`` counts for n <= 3 and setups I-IV, and the
  stdout of ``oracle-check --seed 7 --count 300``;
* as one sha256 per file in ``n64.sha256``: ``analyze --matrix`` (md, json,
  csv) and ``dm`` (json, dot) on four fixed n=64 configurations, one per
  setup I-IV, which are too large to keep.

``tests/test_golden.py`` rebuilds the corpus and compares it.  Rewrite it
only when a change means to alter an output, by hand, with::

    PYTHONPATH=src python -m tests.golden_corpus

and say so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import tempfile
from collections.abc import Iterator
from pathlib import Path

from switchdiag import bimmc, cli, pipeline

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "n64.sha256"

SWEEP_NS = (1, 2, 3, 4, 5, 6, 7, 8, 16)
ENUMERATION_NS = (1, 2, 3)
ORACLE_ARGV = ("oracle-check", "--seed", "7", "--count", "300")
LARGE_N = 64


def run_cli(*argv: str) -> str:
    """Stdout of one in-process ``switchdiag`` command, which must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != cli.EXIT_OK:
        raise RuntimeError(f"switchdiag {' '.join(argv)} exited {code}")
    return out.getvalue()


def large_configuration(index: int) -> str:
    """A fixed n=64 configuration using all four modes, drawn by a plain LCG."""
    state = index + 1
    modes = []
    for _ in range(LARGE_N):
        state = (1103515245 * state + 12345) % 2**31
        modes.append(bimmc.MODES[(state >> 16) % len(bimmc.MODES)])
    return ",".join(modes)


def byte_outputs() -> Iterator[tuple[str, str]]:
    """(file name, text) of every output kept as bytes."""
    for n in SWEEP_NS:
        report = pipeline.sweep(n)
        for fmt in pipeline.RENDER_FORMATS:
            yield f"sweep-n{n}.{fmt}", pipeline.render(report, fmt)
    yield "full-enumeration.txt", "".join(
        f"n={n} setup={setup}: {pipeline.full_enumeration_check(n, setup)}\n"
        for n in ENUMERATION_NS
        for setup in bimmc.SETUPS
    )
    yield "oracle-check-seed7.txt", run_cli(*ORACLE_ARGV)


def hashed_outputs(workdir: Path) -> Iterator[tuple[str, str, str]]:
    """(file name, configuration, text) of every output kept as a sha256."""
    for index, setup in enumerate(bimmc.SETUPS):
        model = str(workdir / f"model-{setup}.json")
        run_cli("generate", "--n", str(LARGE_N), "--setup", setup, "--out", model)
        config = large_configuration(index)
        query = ("--model", model, "--config", config)
        for fmt in pipeline.RENDER_FORMATS:
            yield f"analyze-matrix-{setup}.{fmt}", config, run_cli(
                "analyze", "--matrix", "--format", fmt, *query
            )
        for fmt in ("json", "dot"):
            yield f"dm-{setup}.{fmt}", config, run_cli("dm", "--format", fmt, *query)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_manifest() -> dict[str, str]:
    """File name -> sha256, as ``sha256sum`` writes it."""
    entries = {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        entries[name] = digest
    return entries


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, text in byte_outputs():
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
    with tempfile.TemporaryDirectory() as workdir:
        lines = [f"{sha256(text)}  {name}\n" for name, _, text in hashed_outputs(Path(workdir))]
    MANIFEST.write_bytes("".join(lines).encode("utf-8"))


if __name__ == "__main__":
    regenerate()
