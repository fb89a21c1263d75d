"""Exception types raised by the solver pipeline."""


class SolverError(Exception):
    """Base class for numerical failures in the solve path, at lam if known."""

    lam = None

    def per_lambda(self) -> list[tuple]:
        """(lambda, error) for each lambda this failure settles, with the
        error that lambda raises on its own: lam and this error."""
        return [(self.lam, self)]


class IntegrationError(SolverError):
    """Nonfinite values appeared while integrating a fundamental system.

    lams holds every lambda of the pass whose solutions overflowed, lam
    (the first) included.
    """

    def __init__(self, interval: int, lam: complex, detail: str = "", lams=()):
        self.interval = interval
        self.lam = lam
        self.lams = tuple(lams) or (lam,)
        self.detail = detail
        msg = f"integration overflow on interval {interval} at lambda={lam}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    def per_lambda(self) -> list[tuple]:
        return [(self.lam, self)] + [
            (z, IntegrationError(self.interval, z, self.detail)) for z in self.lams[1:]
        ]


class PropagationError(SolverError):
    """The interface matrix B(lambda) is singular or too ill-conditioned to solve."""

    def __init__(self, interface: int, lam: complex, detail: str = ""):
        self.interface = interface
        self.lam = lam
        msg = f"singular interface matrix at interface {interface}, lambda={lam}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class BoundaryDegeneracyError(SolverError):
    """A boundary operator lost full row rank at the probed lambda."""

    def __init__(self, lam: complex, rank: int, expected: int):
        self.lam = lam
        self.rank = rank
        self.expected = expected
        super().__init__(
            f"boundary operator rank {rank} != {expected} at lambda={lam}"
        )


class PoleError(SolverError):
    """A lambda-rational coefficient hit a pole of its denominator."""

    def __init__(self, message: str, lam: complex):
        self.lam = lam
        super().__init__(f"{message} at lambda={lam}")


class NotARootError(SolverError):
    """Mode-shape extraction was requested at a lambda that is not a root."""

    def __init__(self, lam: complex, smallest_singular: float):
        self.lam = lam
        self.smallest_singular = smallest_singular
        super().__init__(
            f"lambda={lam} is not a root: smallest singular value "
            f"{smallest_singular:.3e} of the closure matrix is not negligible"
        )


class UnsupportedModelError(ValueError):
    """A model was requested with features outside the supported scope."""
