"""Exception types shared across the solvers."""


class InputError(ValueError):
    """An input the library refuses before any solve; the CLI exits 2 on it."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to converge within its iteration/cutoff cap."""


class UnboundedSearchError(RuntimeError):
    """The excitation-subspace scan cannot stop within reach: its proven cap
    is not finite or lies past the scan limit (inputs far off the omega_f = 1
    scale), or the scan reached the cap, a fault in the tail bound."""
