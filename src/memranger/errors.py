"""Exception types shared across the simulator."""


class ConfigError(Exception):
    """Invalid static configuration: overlapping regions, unknown ids, bad ranges."""


class SimulationError(Exception):
    """Runtime failure while driving the simulation (bad refs, out-of-range access)."""


class PolicyLivelockError(SimulationError):
    """A single access kept bouncing between EPTs past the retry budget."""


class TraceParseError(ValueError):
    """Malformed trace input; carries the 1-based line number."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line
