"""Physical parameters, basis conventions, and collective-spin operators.

The qubit ensemble lives in the maximal-j Dicke manifold, j = N_a/2, with
states labeled by m in ascending order. The field-qubit product basis is
ordered photon-major, m-ascending, so fixed-excitation subspaces are easy to
extract; a state is a window of photon layers of that basis, an amplitude
grid of shape (layers, N_a + 1).

All values are in absolute energy units; omega_f = 1 is the recommended
scale. All Hamiltonians in scope are real symmetric in these bases, so state
amplitudes are real.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# the degeneracy window of both solvers' tie rules: energies within
# _TIE_TOL max(1, |E|) of the lowest count as one level
_TIE_TOL = 1e-10


def check_count(name: str, value, least: int) -> None:
    """The one check of a count: an int or numpy integer >= least, not a bool
    or an integral float."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < least):
        raise InputError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the extended Dicke (Dicke-LMG) Hamiltonian.

    omega_f : field frequency (> 0)
    delta   : detuning, qubit frequency minus field frequency
    eta     : inter-qubit coupling
    lam     : field-ensemble coupling (>= 0)
    n_atoms : qubit count (>= 1)

    The qubit transition frequency is derived: omega = omega_f + delta.
    """

    omega_f: float
    delta: float
    eta: float
    lam: float
    n_atoms: int

    def __post_init__(self):
        for name in ("omega_f", "delta", "eta", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")
        if not self.omega_f > 0:
            raise InputError("omega_f must be > 0")
        if self.lam < 0:
            raise InputError("lam must be >= 0")
        check_count("n_atoms", self.n_atoms, 1)

    @property
    def omega(self) -> float:
        return self.omega_f + self.delta

    @classmethod
    def from_omega(cls, omega_f: float, omega: float, eta: float, lam: float,
                   n_atoms: int) -> "ModelParams":
        return cls(omega_f=omega_f, delta=omega - omega_f, eta=eta, lam=lam,
                   n_atoms=n_atoms)

    def replace(self, **kwargs) -> "ModelParams":
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class DickeBasis:
    """The N_a + 1 symmetric Dicke states |j, m>, j = N_a/2, m ascending."""

    n_atoms: int

    def __post_init__(self):
        check_count("n_atoms", self.n_atoms, 1)

    @property
    def dimension(self) -> int:
        return self.n_atoms + 1

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(-self.n_atoms, self.n_atoms + 1, 2, dtype=float) / 2.0


def jz_matrix(n_atoms: int) -> np.ndarray:
    return np.diag(DickeBasis(n_atoms).m_values)


def jp_matrix(n_atoms: int) -> np.ndarray:
    m = DickeBasis(n_atoms).m_values[:-1]
    j = n_atoms / 2.0
    return np.diag(np.sqrt(j * (j + 1.0) - m * (m + 1.0)), -1)


def jm_matrix(n_atoms: int) -> np.ndarray:
    return jp_matrix(n_atoms).T


def jx_matrix(n_atoms: int) -> np.ndarray:
    jp = jp_matrix(n_atoms)
    return (jp + jp.T) / 2.0


def jy_matrix(n_atoms: int) -> np.ndarray:
    jp = jp_matrix(n_atoms)
    return (jp - jp.T) / 2.0j


@dataclass(frozen=True)
class ProductBasis:
    """Photon-major, m-ascending enumeration of |k>_f |m> product states,
    k = 0..n_cut."""

    n_atoms: int
    n_cut: int

    def __post_init__(self):
        check_count("n_cut", self.n_cut, 0)
        check_count("n_atoms", self.n_atoms, 1)

    @property
    def dimension(self) -> int:
        return (self.n_cut + 1) * (self.n_atoms + 1)

    def labels(self) -> list[tuple[int, float]]:
        """(k, m) of every basis state, in basis order."""
        return [(k, (2 * p - self.n_atoms) / 2.0)
                for k in range(self.n_cut + 1) for p in range(self.n_atoms + 1)]


@dataclass(frozen=True)
class PureState:
    """Normalized real-amplitude state on a window of photon layers.

    ``amplitudes`` is flat, photon-major and m-ascending, and its first layer
    holds k0 photons: ``grid[k - k0, p]`` is the amplitude of |k>_f |p - N_a/2>.
    A full product-basis state has k0 = 0; an RWA excitation subspace n is
    the layers k = n~..n with one nonzero amplitude per layer.
    """

    amplitudes: np.ndarray
    n_atoms: int
    k0: int = 0

    def __post_init__(self):
        check_count("n_atoms", self.n_atoms, 1)
        check_count("k0", self.k0, 0)
        amp = np.asarray(self.amplitudes, dtype=float)
        object.__setattr__(self, "amplitudes", amp)
        if amp.ndim != 1 or amp.size == 0 or amp.size % (self.n_atoms + 1):
            raise ValueError("amplitudes must fill whole layers of N_a + 1")
        if abs(amp @ amp - 1.0) > 1e-12:
            raise ValueError("state is not normalized to 1e-12")

    @property
    def grid(self) -> np.ndarray:
        """Amplitudes as (photon layer) x (Dicke index p = m + N_a/2)."""
        return self.amplitudes.reshape(-1, self.n_atoms + 1)

    def overlap(self, other: "PureState") -> float:
        """<self|other>, summed over the photon layers both states hold."""
        if self.n_atoms != other.n_atoms:
            raise ValueError("states live on different ensembles")
        lo = max(self.k0, other.k0)
        hi = min(self.k0 + len(self.grid), other.k0 + len(other.grid))
        if lo >= hi:
            return 0.0
        a = self.grid[lo - self.k0:hi - self.k0].ravel()
        b = other.grid[lo - other.k0:hi - other.k0].ravel()
        # a running sum in basis order: the value does not depend on BLAS
        return float(np.cumsum(a * b)[-1])

    def fidelity(self, other: "PureState") -> float:
        return self.overlap(other) ** 2


def fix_sign(vec: np.ndarray) -> np.ndarray:
    """Flip a vector's global sign so its first component above 1e-12 of the
    largest (or of 1) is positive."""
    threshold = 1e-12 * max(1.0, float(np.abs(vec).max()))
    for v in vec:
        if abs(v) > threshold:
            return vec if v > 0 else -vec
    return vec
