"""Exception types shared across the solvers."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to converge within its iteration/cutoff cap."""


class UnboundedSearchError(RuntimeError):
    """The excitation-subspace scan reached its proven cap without the
    stopping rule firing: a fault in the tail bound, not in the parameters."""
