"""In-memory span recorder installed around switchdiag's public functions.

The benchmark never edits the package.  For a traced op it rebinds each
listed public function, in every ``switchdiag`` module that holds it, to a
wrapper that records a span (name, parent, start, end), and restores the
originals afterwards.  Calls the package makes between its own modules go
through those module globals, so the spans sit at the layer boundaries of
the real code path.  A function a later version no longer has is skipped;
its time then shows up in its caller's self time.
"""

import functools
import sys
import time

#: (module, public function, span name).  ``cli.main`` is named per
#: subcommand instead (``cli.analyze``, ``cli.dm``).
TARGETS = (
    ("structural", "isolability_partition", "structural.isolability_partition"),
    ("structural", "dm_decompose", "structural.dm_decompose"),
    ("structural", "partition_matrix", "structural.partition_matrix"),
    ("switched", "instantiate", "switched.instantiate"),
    ("switched", "representative_configuration", "switched.representative_configuration"),
    ("switched", "parse_configuration", "switched.parse_configuration"),
    ("bimmc", "generate", "bimmc.generate"),
    ("bimmc", "aggregate_report", "bimmc.aggregate_report"),
    ("bimmc", "build_catalogue", "bimmc.build_catalogue"),
    ("pipeline", "sweep", "pipeline.sweep"),
    ("pipeline", "full_enumeration_check", "pipeline.full_enumeration_check"),
    ("pipeline", "compact", "pipeline.compact"),
    ("pipeline", "canonical_report", "pipeline.canonical_report"),
    ("pipeline", "render", "pipeline.render"),
    ("pipeline", "render_report", "pipeline.render_report"),
    ("pipeline", "render_matrix", "pipeline.render_matrix"),
    ("modelio", "load_any_model", "modelio.load_any_model"),
    ("modelio", "switched_model_from_dict", "modelio.switched_model_from_dict"),
    ("modelio", "decomposition_to_dot", "modelio.decomposition_to_dot"),
    ("residuals", "simulate_plant", "residuals.simulate_plant"),
    ("residuals", "applicable_residuals", "residuals.applicable_residuals"),
    ("residuals", "steady_state_gain", "residuals.steady_state_gain"),
    ("cli", "main", None),
)

#: Structural entry points whose model argument is kept, at the outermost
#: structural call only, for the decomposition-breakdown pass.
_MODEL_ENTRIES = {"structural.isolability_partition", "structural.dm_decompose"}


class Tracer:
    """Spans of one traced op, kept in memory until the op is summarised."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.models: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # The benchmark calls cli.main(argv) and model entries f(model).
            span_name = name or f"cli.{args[0][0]}"
            if span_name in _MODEL_ENTRIES and not tracer._inside("structural."):
                tracer.models.append(args[0])
            index = tracer._open(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    def _inside(self, prefix: str) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self._stack)

    def install(self) -> None:
        """Rebind every target in every loaded switchdiag module."""
        modules = [m for k, m in sys.modules.items() if k == "switchdiag" or k.startswith("switchdiag.")]
        for module_name, attr, span_name in TARGETS:
            home = sys.modules.get(f"switchdiag.{module_name}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, span_name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def run(self, fn):
        """Call ``fn`` under an ``op`` root span with the wrappers installed."""
        self.spans.clear()
        self.models.clear()
        self.install()
        try:
            root = self._open("op")
            try:
                return fn()
            finally:
                self._close(root)
        finally:
            self.uninstall()

    def summary(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total time per span name and self time per layer for the last op.

        A span's self time is its duration minus its direct children's; the
        ``op`` root's self time is the benchmark's own share of the op.
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        self_by_layer: dict[str, float] = {}
        for i, (name, _parent, start, end) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start)
            layer = name.split(".", 1)[0]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + (end - start - child_time[i])
            if name != "op":
                key = f"{name}.self"
                totals[key] = totals.get(key, 0.0) + (end - start - child_time[i])
        return totals, self_by_layer
