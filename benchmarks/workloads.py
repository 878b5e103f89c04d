"""The benchmark's workloads: seeded inputs, one op each, and its reference check.

An op calls only switchdiag's public functions, looked up on their module
at call time so the tracer in ``spans.py`` can stand between the layers.
``op`` is what gets timed; ``check`` runs afterwards, outside the timing,
and raises :class:`Mismatch` when a result differs from the reference in
``references.json``.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re

from switchdiag import cli, pipeline, residuals

SETUPS = ("I", "II", "III", "IV")
INSERTION_MODES = ("forward", "backward")
BYPASS_MODES = ("bypass1", "bypass2")
#: Equations per model as a function of n, for setups I-IV.
EQUATIONS = {
    "I": lambda n: 10 * n + 2,
    "II": lambda n: 10 * n + 3,
    "III": lambda n: 11 * n + 2,
    "IV": lambda n: 11 * n + 3,
}


def equations_per_op(n: int, models_per_setup: int) -> int:
    return sum(models_per_setup * EQUATIONS[s](n) for s in SETUPS)


class Mismatch(Exception):
    """An op's output differs from the reference."""


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


class SweepN16:
    """``pipeline.sweep(16)`` over setups I-IV, rendered as md and json."""

    name = "sweep-n16"
    n = 16
    work_per_op = len(SETUPS) * (n + 1)  # reduced configurations analysed
    expected_equations = equations_per_op(n, n + 1)

    def __init__(self, seed: int, workdir: str, reference: dict):
        self.reference = reference  # exhaustive: the seed picks nothing

    def op(self, index: int):
        report = pipeline.sweep(self.n)
        return pipeline.render(report, "md"), pipeline.render(report, "json")

    def check(self, outputs) -> None:
        md, js = outputs
        _expect("md digest", hashlib.sha256(md.encode("utf-8")).hexdigest(), self.reference["md_sha256"])
        _expect("json digest", hashlib.sha256(js.encode("utf-8")).hexdigest(), self.reference["json_sha256"])

    def counts(self, outputs) -> dict:
        return {}


class EnumerateN4:
    """``pipeline.full_enumeration_check(4, s)`` for each setup: 4^4 raw configurations."""

    name = "enumerate-n4"
    n = 4
    work_per_op = len(SETUPS) * (4**n + n + 1)  # raw plus reduced configurations
    expected_equations = equations_per_op(n, 4**n + n + 1)

    def __init__(self, seed: int, workdir: str, reference: dict):
        self.reference = reference

    def op(self, index: int):
        return [pipeline.full_enumeration_check(self.n, s) for s in SETUPS]

    def check(self, outputs) -> None:
        _expect("raw configurations checked", outputs, [self.reference["checked_per_setup"]] * len(SETUPS))

    def counts(self, outputs) -> dict:
        return {}


def renamer(modes: tuple[str, ...]):
    """``pipeline.canonical_report``'s rule: inserted submodules first, then by index."""
    order = sorted(range(len(modes)), key=lambda i: (modes[i] not in INSERTION_MODES, i))
    new_index = {old + 1: new + 1 for new, old in enumerate(order)}

    def rename(name: str) -> str:
        base, sep, tail = name.rpartition(",")
        if sep and tail.isdigit() and int(tail) in new_index:
            return f"{base},{new_index[int(tail)]}"
        return name  # pack-level names and the ",0" global equations

    return rename


_DOT_NODE = re.compile(r'^"((?:[^"\\]|\\.)*)" \[shape=(box|ellipse)\];$')
_DOT_EDGE = re.compile(r'^"((?:[^"\\]|\\.)*)" -- "((?:[^"\\]|\\.)*)";$')


def parse_dot(text: str) -> dict:
    """DM parts, fine blocks and edges from ``switchdiag dm --format dot``."""
    parts = {p: {"equations": [], "unknowns": []} for p in ("under", "just", "over")}
    blocks: list[list[str]] = []
    edges: list[list[str]] = []
    clusters: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("subgraph cluster_"):
            clusters.append(line.split()[1][len("cluster_"):])
            if clusters[-1].startswith("block"):
                blocks.append([])
        elif line == "}":
            if clusters:
                clusters.pop()
        elif (node := _DOT_NODE.match(line)) and clusters:
            name, shape = node.group(1), node.group(2)
            part = clusters[0]
            if part not in parts:
                raise Mismatch(f"dm output has an unknown part {part!r}")
            parts[part]["equations" if shape == "box" else "unknowns"].append(name)
            if clusters[-1].startswith("block"):
                blocks[-1].append(name)
        elif edge := _DOT_EDGE.match(line):
            edges.append([edge.group(1), edge.group(2)])
    return {"parts": parts, "fine_blocks": blocks, "edges": edges}


def canonical_dm(dm: dict, rename) -> dict:
    return {
        "parts": {
            p: {k: sorted(rename(x) for x in names) for k, names in part.items()}
            for p, part in dm["parts"].items()
        },
        "fine_blocks": sorted(sorted(rename(e) for e in block) for block in dm["fine_blocks"]),
        "edges": sorted([rename(e), rename(x)] for e, x in dm["edges"]),
    }


def parse_analyze(text: str) -> tuple[dict, list[str]]:
    """The JSON report and the matrix rows of ``analyze --matrix --format json``."""
    report, end = json.JSONDecoder().raw_decode(text)
    lines = text[end:].strip("\n").split("\n")
    if not lines or not lines[0].startswith("Non-isolability matrix"):
        raise Mismatch("analyze output has no non-isolability matrix")
    return report, lines[2:]  # lines[1] is the column header


def canonical_report(report: dict, rename) -> dict:
    return {
        "detectable": sorted(rename(f) for f in report["detectable"]),
        "non_detectable": sorted(rename(f) for f in report["non_detectable"]),
        "partition": sorted(sorted(rename(f) for f in cell) for cell in report["partition"]),
    }


def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise Mismatch(f"switchdiag {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def query_arrangement(rng: random.Random, n: int) -> tuple[str, ...]:
    inserted = set(rng.sample(range(n), n // 2))
    return tuple(
        rng.choice(INSERTION_MODES if i in inserted else BYPASS_MODES) for i in range(n)
    )


class QueryN64:
    """``switchdiag analyze --matrix --format json`` then ``dm`` on one n=64 model."""

    name = "query-n64"
    n = 64
    setup = "IV"
    work_per_op = 1  # one configuration whose isolability is computed
    expected_equations = 2 * EQUATIONS[setup](n)  # analyze and dm each decompose it
    arrangements = 32

    def __init__(self, seed: int, workdir: str, reference: dict):
        self.reference = reference
        self.model_path = os.path.join(workdir, f"model-{self.setup}-{self.n}.json")
        run_cli(["generate", "--n", str(self.n), "--setup", self.setup, "--out", self.model_path])
        rng = random.Random(seed)
        self.configs = [query_arrangement(rng, self.n) for _ in range(self.arrangements)]

    def op(self, index: int):
        modes = self.configs[index % len(self.configs)]
        config = ",".join(modes)
        analyzed = run_cli(
            ["analyze", "--model", self.model_path, "--config", config, "--matrix", "--format", "json"]
        )
        dot = run_cli(["dm", "--model", self.model_path, "--config", config, "--format", "dot"])
        return modes, analyzed, dot

    def check(self, outputs) -> None:
        modes, analyzed, dot = outputs
        rename = renamer(modes)
        report, rows = parse_analyze(analyzed)
        _expect("report digest", digest(canonical_report(report, rename)), self.reference["report_sha256"])
        _expect("matrix rows", len(rows), len(report["detectable"]))
        _expect(
            "matrix non-isolable marks",
            sum(row.count("•") for row in rows),
            sum(len(cell) ** 2 for cell in report["partition"]),
        )
        _expect("dm digest", digest(canonical_dm(parse_dot(dot), rename)), self.reference["dm_sha256"])

    def counts(self, outputs) -> dict:
        _, analyzed, dot = outputs
        return {
            "modelio.bytes_read": 2 * os.path.getsize(self.model_path),
            "cli.bytes_written": len(analyzed.encode("utf-8")) + len(dot.encode("utf-8")),
        }


#: Cell parameters for plant and observer; the checks derive from these.
CELL = {"r_p": 692e-6, "c_p": 1.52, "r_o": 1.2e-3, "v_ocv": 4.07}


class ResidualSine:
    """Forward-mode plant run with a sine drive and an ``f_iout`` step at mid-run."""

    name = "residual-sine"
    steps = 200_000
    dt = 1e-5
    work_per_op = steps  # plant steps simulated
    expected_equations = 0
    scenarios = 8

    def __init__(self, seed: int, workdir: str, reference: dict):
        rng = random.Random(seed)
        duration = self.steps * self.dt
        self.runs = []
        for _ in range(self.scenarios):
            magnitude = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 5.0)
            data = {
                "mode": "insertion-forward",
                "dt": self.dt,
                "duration": duration,
                "truth_params": CELL,
                "nominal_params": CELL,
                "i_out": {
                    "kind": "sine",
                    "amplitude": rng.uniform(5.0, 50.0),
                    "frequency_hz": rng.uniform(10.0, 200.0),
                },
                "sensors": ["cell_current", "extra_output_current"],
                "faults": [{"signal": "f_iout", "onset": duration / 2, "magnitude": magnitude}],
            }
            self.runs.append((residuals.scenario_from_dict(data), magnitude, duration / 2))

    def op(self, index: int):
        scenario, magnitude, onset = self.runs[index % len(self.runs)]
        signals = residuals.simulate_plant(scenario)
        traces = residuals.applicable_residuals(scenario, signals)
        gains = {kind: residuals.steady_state_gain(trace, magnitude) for kind, trace in traces.items()}
        return signals.times, traces["setup1"].values, gains, onset

    def check(self, outputs) -> None:
        times, r_setup1, gains, onset = outputs
        _expect("steps", len(times) - 1, self.steps)
        want = CELL["r_p"] + CELL["r_o"]
        if not abs(abs(gains["setup1"]) - want) <= 0.01 * want:
            raise Mismatch(f"setup1 gain {gains['setup1']!r} not within 1% of R_p+R_o={want}")
        for kind in ("cell_current", "redundant_output"):
            if not abs(gains[kind] - 1.0) <= 1e-9:
                raise Mismatch(f"{kind} gain {gains[kind]!r} is not 1.0")
        pre_fault = float(abs(r_setup1[times < onset]).max())
        if not pre_fault < 1e-6:
            raise Mismatch(f"pre-fault setup1 residual {pre_fault:.3e} is not below 1e-6")

    def counts(self, outputs) -> dict:
        return {"residuals.steps": len(outputs[0]) - 1}


WORKLOADS = {w.name: w for w in (SweepN16, EnumerateN4, QueryN64, ResidualSine)}
