"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """A trace asks the machine for something impossible: overlapping or
    out-of-range regions, unknown actors, pools or targets."""


class PolicyLivelockError(SimulationError):
    """A single access kept bouncing between EPTs past the retry budget."""


class TraceParseError(ValueError):
    """A trace event that breaks its spec, refused when it is built or read;
    carries the 1-based line number of a trace line, 0 for an event built in
    Python."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line
