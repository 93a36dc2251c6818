"""Exception types shared across the package."""


class MsmLabError(Exception):
    """Base class for all package-specific failures."""


class NonzeroMeanError(MsmLabError):
    """Poisson solve requested on data with a non-negligible mean."""


class ChartUndefinedError(MsmLabError):
    """Stereographic chart evaluated at or too close to its excluded pole."""


class NoConvergenceError(MsmLabError):
    """Implicit solve failed to reach tolerance within the iteration budget."""


class PicardDivergedError(MsmLabError):
    """Picard iteration stopped contracting.

    Carries the per-iteration update sizes so the caller can inspect how the
    iteration behaved before it was abandoned.  A run loop sets the 1-based
    ``step`` and the time ``t`` that step was to reach (None for a lone step).
    """

    def __init__(self, message: str, trace: list[float]):
        super().__init__(message)
        self.trace = list(trace)
        self.step = self.t = None

    def __str__(self) -> str:
        at = "" if self.step is None else f" at step {self.step}, t={self.t:.6g}"
        return f"{super().__str__()}{at}"


class TooLargeError(MsmLabError):
    """Requested exhaustive enumeration exceeds the supported budget."""


class ConfigError(MsmLabError):
    """Experiment configuration is malformed or inconsistent."""


class SolverBlowupError(MsmLabError):
    """A time step produced a state whose mass is not finite.

    Carries the 1-based ``step`` within its run (None for a lone step), the
    time ``t`` it was to reach, and the ``mass`` and ``h1`` norm of the last
    finite state.
    """

    def __init__(self, t: float, mass: float, h1: float, step: int | None = None):
        super().__init__(t, mass, h1, step)
        self.t, self.mass, self.h1, self.step = t, mass, h1, step

    def __str__(self) -> str:
        at = "" if self.step is None else f"step {self.step}, "
        return (f"solution blew up at {at}t={self.t:.6g}; last finite state: "
                f"mass {self.mass:.6e}, H1 norm {self.h1:.6e}")
