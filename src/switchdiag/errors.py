"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid user-supplied input: model, configuration, scenario or CLI argument."""


class InternalConsistencyError(RuntimeError):
    """An internal invariant failed; indicates a bug, not a valid analysis outcome."""


class NonStationaryError(InputError):
    """Trace tail varies too much for a steady-state estimate."""


class SimulationDivergedError(InputError):
    """Integration produced a non-finite state."""
