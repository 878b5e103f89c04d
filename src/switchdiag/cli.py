"""Command-line interface.

Subcommands:

* ``generate``      write a switched model JSON for a sensor setup preset
* ``analyze``       isolability report of one model + configuration
* ``sweep``         setups x configurations table (markdown/JSON/CSV)
* ``dm``            extended DM decomposition export (JSON or Graphviz)
* ``oracle-check``  randomized validation of the DM core
* ``residual``      simulate a fault scenario and write residual traces

Exit codes: 0 success, 2 input error, 3 internal consistency error, 141
when the reader closes standard output early.
"""

import argparse
import json
import os
import sys

from . import bimmc, modelio, pipeline
from .errors import InputError, InternalConsistencyError
from .structural import dm_decompose, isolability_partition
from .switched import instantiate, parse_configuration

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

_SETUP_PRESET = "bimmc:"


def _parse_setup(text: str) -> bimmc.SensorSetup:
    name = text[len(_SETUP_PRESET):] if text.startswith(_SETUP_PRESET) else text
    return bimmc.sensor_setup(name)


def _cmd_generate(args) -> int:
    switched, _catalogue = bimmc.generate(args.n, _parse_setup(args.setup))
    payload = modelio.switched_model_to_dict(switched, bimmc.FAULT_AGGREGATION)
    text = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    if args.out:
        with modelio.output_file(args.out) as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _load_flat_model(path: str, config_text: str | None):
    """Load either model flavor; returns (flat model, fault catalogue or None for own names)."""
    data = modelio.load_any_model(path)
    if "template" in data:
        switched, pattern = modelio.switched_model_from_dict(data)
        if config_text is None:
            raise InputError("switched models require --config")
        config = parse_configuration(switched.template, config_text, switched.n)
        catalogue = bimmc.build_catalogue(switched, pattern)
        return instantiate(switched, config), catalogue
    if config_text is not None:
        raise InputError("--config only applies to switched models")
    return modelio.structural_model_from_dict(data), None


def _cmd_analyze(args) -> int:
    model, catalogue = _load_flat_model(args.model, args.config)
    report = isolability_partition(model, catalogue)
    sys.stdout.write(pipeline.render_report(report, args.format))
    if args.matrix:
        sys.stdout.write("\nNon-isolability matrix (• = not isolable):\n")
        sys.stdout.write(pipeline.render_matrix(report))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    setups = None
    if args.setups is not None:
        setups = [_parse_setup(name.strip()) for name in args.setups.split(",")]
    report = pipeline.sweep(args.n, setups)
    if args.full_enumeration:
        for setup in report.sensor_setups:
            checked = pipeline.full_enumeration_check(args.n, setup)
            print(f"setup {setup.id}: {checked} raw configurations match the reduced sweep")
    sys.stdout.write(pipeline.render(report, args.format))
    return EXIT_OK


def _cmd_dm(args) -> int:
    model, _ = _load_flat_model(args.model, args.config)
    dm = dm_decompose(model)
    if args.format == "json":
        sys.stdout.write(
            json.dumps(modelio.decomposition_to_dict(dm), indent=2, ensure_ascii=False) + "\n"
        )
    else:
        sys.stdout.write(modelio.decomposition_to_dot(model, dm))
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    # Imported here, not at module level: oraclecheck loads scipy.sparse,
    # which would add its import time and memory to every other command.
    from .oraclecheck import run_oracle_check

    result = run_oracle_check(args.count, args.seed)
    print(
        f"oracle-check: {result.models_checked} models, "
        f"{result.equations_checked} equation memberships, "
        f"{result.pairs_checked} fault pairs"
    )
    if not result.ok:
        for failure in result.failures:
            print(f"DISAGREEMENT: {failure}", file=sys.stderr)
        raise InternalConsistencyError(
            f"{len(result.failures)} oracle disagreements (seed {args.seed})"
        )
    print("all decompositions agree with the oracle")
    return EXIT_OK


def _cmd_residual(args) -> int:
    # Imported here, not at module level: residuals loads numpy, which no
    # structural command needs.
    from . import residuals

    if not args.out and not args.gains:
        raise InputError("nothing to do: pass --out and/or --gains")
    scenario = residuals.scenario_from_dict(modelio.read_json_object(args.scenario, "scenario"))
    if args.gains and len(scenario.faults) > 1:
        raise InputError("--gains needs at most one fault injection to attribute the gain")
    magnitude = scenario.faults[0].magnitude if scenario.faults else 0.0
    signals = residuals.simulate_plant(scenario)
    traces = residuals.applicable_residuals(scenario, signals)
    if args.gains:
        gains = {
            kind: None if trace is None else residuals.steady_state_gain(trace, magnitude)
            for kind, trace in traces.items()
        }
    if args.out:
        residuals.write_traces_csv(args.out, signals.times, traces)
        print(f"wrote {args.out}")
    if args.gains:
        sys.stdout.write(
            json.dumps({"fault_magnitude": magnitude, "gains": gains}, indent=2) + "\n"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchdiag",
        description="Structural fault diagnosability analysis of switched modular battery packs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a switched model JSON")
    p.add_argument("--n", type=int, required=True, help="number of submodules")
    p.add_argument("--setup", required=True, help="I, II, III, IV (or bimmc:I ...)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("analyze", help="isolability report for one configuration")
    p.add_argument("--model", required=True, help="model JSON (flat or switched)")
    p.add_argument(
        "--config",
        help='configuration, e.g. "IIB" or "forward,bypass1"; at n=1 also one mode name',
    )
    p.add_argument("--matrix", action="store_true", help="also print the non-isolability matrix")
    p.add_argument("--format", choices=pipeline.RENDER_FORMATS, default="md")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("sweep", help="sweep sensor setups x configurations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--setups", help="comma-separated subset, e.g. I,II")
    p.add_argument("--format", choices=pipeline.RENDER_FORMATS, default="md")
    p.add_argument(
        "--full-enumeration",
        action="store_true",
        help="cross-validate the reduced sweep against all raw mode combinations",
    )
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("dm", help="extended DM decomposition export")
    p.add_argument("--model", required=True)
    p.add_argument("--config", help="required for switched models")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(handler=_cmd_dm)

    p = sub.add_parser("oracle-check", help="randomized validation of the DM core")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=200)
    p.set_defaults(handler=_cmd_oracle_check)

    p = sub.add_parser("residual", help="simulate a fault scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", help="trace CSV output path")
    p.add_argument("--gains", action="store_true", help="print a JSON gain summary")
    p.set_defaults(handler=_cmd_residual)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout, as ``| head`` does; devnull takes the flush at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
