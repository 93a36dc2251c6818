"""Exception types shared across the package; a failed time step is a SolverError."""


class MsmLabError(Exception):
    """Base class for all package-specific failures."""


class ChartUndefinedError(MsmLabError):
    """Stereographic chart evaluated at or too close to its excluded pole."""


class SolverError(MsmLabError):
    """A failed time step; the run loop sets its 1-based ``step`` and the ``t`` it was to reach."""

    step = t = None

    def _at(self) -> str:
        return "" if self.step is None else f" at step {self.step}, t={self.t:.6g}"

    def __str__(self) -> str:
        return super().__str__() + self._at()


class NoConvergenceError(SolverError):
    """Implicit solve failed to reach tolerance within the iteration budget."""


class TooLargeError(MsmLabError):
    """Requested exhaustive enumeration exceeds the supported budget."""


class ConfigError(MsmLabError):
    """Experiment configuration is malformed or inconsistent."""


class SolverBlowupError(SolverError):
    """A time step produced a state whose mass is not finite.

    Carries the time ``t`` the step was to reach and the ``mass`` and ``h1``
    norm of the last finite state.
    """

    def __init__(self, t: float, mass: float, h1: float):
        super().__init__(t, mass, h1)
        self.t, self.mass, self.h1 = t, mass, h1

    def __str__(self) -> str:
        return (f"solution blew up{self._at() or f' at t={self.t:.6g}'}; last finite state: "
                f"mass {self.mass:.6e}, H1 norm {self.h1:.6e}")
