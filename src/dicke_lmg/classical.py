"""Large-ensemble (classical-limit) results.

The Holstein-Primakoff image of the model maps the collective spin to a
single boson b, exact as N_a grows. Only the closed-form consequences are
used here: the one-excitation block of the RWA boson Hamiltonian (first
non-vacuum energy and critical coupling), and the coherent-state mean-field
energy of the counter-rotating Hamiltonian with its superradiant threshold.

Spin-coherent-state expectation values are computed by exact numeric
rotation of the highest-weight Dicke state; the published closed forms
(including the B_j coefficient) are evaluated alongside for comparison only,
since they disagree with the exact rotation in simple limits (e.g. theta = 0
should give <J_z> = N_a/2). Use :func:`spin_coherent_report` to see both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import ModelParams, jp_matrix, jy_matrix, jz_matrix
from .rwa import critical_coupling_1


@dataclass(frozen=True)
class MeanFieldPoint:
    """Stationary point of the mean-field energy over real coherent amplitudes
    (alpha for the field, beta for the ensemble boson)."""

    alpha: float
    beta: float
    energy: float


def hp_first_energy(params: ModelParams) -> float:
    """Classical-regime ground energy of the first non-vacuum phase.

    Lowest eigenvalue of the one-excitation block {|0,1>, |1,0>} of the
    Holstein-Primakoff RWA Hamiltonian:

        E = (1/2) { omega + omega_f + (1/N_a - 1) eta
                    - sqrt(4 lam^2 + [omega - omega_f + (1/N_a - 1) eta]^2) }.
    """
    shift = (1.0 / params.n_atoms - 1.0) * params.eta
    gap = params.omega - params.omega_f + shift
    return 0.5 * (params.omega + params.omega_f + shift
                  - math.hypot(2.0 * params.lam, gap))


# The classical-limit first critical coupling, where hp_first_energy crosses
# zero, is identical in form to the exact finite-size RWA result.
critical_coupling_cl = critical_coupling_1


def critical_coupling_clcr(params: ModelParams) -> float:
    """Superradiant threshold with counter-rotating terms,
    lam_c1^(CLCR) = sqrt[(omega - eta) omega_f] / 2.

    Halves the RWA classical value when eta = 0 and 1/N_a ~ 0."""
    radicand = (params.omega - params.eta) * params.omega_f
    if radicand < 0:
        raise ValueError("lam_c1^(CLCR) requires omega >= eta")
    return 0.5 * math.sqrt(radicand)


def mean_field_energy(params: ModelParams, alpha: float, beta: float) -> float:
    """Coherent-state mean energy of the counter-rotating boson Hamiltonian,
    for real alpha, beta:

        omega_f a^2 + (omega - eta) b^2 + eta b^4 / N_a
        + [lam - lam b^2 / (2 N_a)] (2a)(2b).
    """
    na = params.n_atoms
    return (params.omega_f * alpha ** 2
            + (params.omega - params.eta) * beta ** 2
            + params.eta * beta ** 4 / na
            + (params.lam - params.lam * beta ** 2 / (2.0 * na))
            * (2.0 * alpha) * (2.0 * beta))


def mean_field_minimize(params: ModelParams) -> MeanFieldPoint:
    """Minimize the mean-field energy over real (alpha, beta).

    The quadratic alpha dependence is eliminated analytically; the remaining
    energy is a cubic polynomial in u = beta^2, minimized over the
    Holstein-Primakoff validity window u <= 2 N_a (where the coupling factor
    1 - u/2N_a is nonnegative) by solving the stationarity condition exactly.
    Minimizers come in +-(alpha, beta) pairs; the alpha >= 0 representative is
    returned. Below the superradiant threshold the result is the trivial
    point (0, 0, 0).
    """
    na = params.n_atoms
    u_max = 2.0 * na
    k = 4.0 * params.lam ** 2 / params.omega_f
    # E(u) = c1 u + c2 u^2 + c3 u^3 on [0, u_max]
    c1 = (params.omega - params.eta) - k
    c2 = (params.eta + k) / na
    c3 = -k / (4.0 * na ** 2)
    candidates = [u_max]
    roots = np.roots([3.0 * c3, 2.0 * c2, c1])   # dE/du = 0
    for r in roots:
        if abs(r.imag) < 1e-12 and 0.0 < r.real <= u_max:
            candidates.append(float(r.real))
    u_best, e_best = 0.0, 0.0
    for u in candidates:
        e = (c1 + (c2 + c3 * u) * u) * u
        if e < e_best:
            u_best, e_best = u, e
    if e_best >= 0.0:
        return MeanFieldPoint(alpha=0.0, beta=0.0, energy=0.0)
    beta = -math.sqrt(u_best)
    alpha = -2.0 * params.lam * beta * (1.0 - u_best / (2.0 * na)) / params.omega_f
    return MeanFieldPoint(alpha=alpha, beta=beta,
                          energy=mean_field_energy(params, alpha, beta))


def spin_coherent_expectations(theta: float, phi: float,
                               n_atoms: int) -> tuple[float, complex, complex]:
    """<J_z>, <J_+>, <J_-> in the spin coherent state
    exp(-i J_z phi) exp(-i J_y theta) |N_a/2>, by exact numeric rotation."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError("theta must lie in [0, pi]")
    jz = jz_matrix(n_atoms)
    jy = jy_matrix(n_atoms)
    highest = np.zeros(n_atoms + 1)
    highest[-1] = 1.0
    state = scipy.linalg.expm(-1j * phi * jz) @ scipy.linalg.expm(-1j * theta * jy) @ highest
    jp = jp_matrix(n_atoms)
    jz_mean = float((state.conj() @ jz @ state).real)
    jplus = complex(state.conj() @ jp @ state)
    return jz_mean, jplus, jplus.conjugate()


def b_coefficient(j: float, beta: float) -> float:
    """The B_j(beta) binomial sum entering the published closed forms."""
    two_j = int(round(2 * j))
    total = 0.0
    for twice_m in range(-two_j, two_j - 1, 2):
        m_plus_j = (twice_m + two_j) // 2
        total += (math.sqrt(math.comb(two_j, m_plus_j))
                  * math.sqrt(math.comb(two_j, m_plus_j + 1))
                  * math.cos(beta / 2.0) ** (two_j + twice_m + 1)
                  * math.sin(beta / 2.0) ** (two_j - twice_m - 1))
    return total


def spin_coherent_closed_forms(theta: float, phi: float,
                               n_atoms: int) -> tuple[float, complex, complex]:
    """The published closed forms for <J_z> and <J_+->; evaluated for
    comparison only (see module docstring)."""
    na = n_atoms
    jz_mean = math.sqrt(na) / 2.0 * math.sin(theta)
    prefactor = math.sqrt(max(0.0, na / 2.0 * (na / 2.0 + 1.0)
                              - na / 4.0 * math.sin(theta) ** 2
                              + math.sqrt(na) / 2.0 * math.sin(theta)))
    b = b_coefficient(na / 2.0, theta)
    tail = (math.sin(theta) / 2.0) ** na
    jplus = prefactor * (b * complex(math.cos(phi), math.sin(phi)) + tail)
    return jz_mean, jplus, jplus.conjugate()


def spin_coherent_report(theta: float, phi: float, n_atoms: int) -> dict:
    """Exact-rotation expectations next to the published closed forms, with
    the absolute discrepancy surfaced (not asserted)."""
    exact = spin_coherent_expectations(theta, phi, n_atoms)
    closed = spin_coherent_closed_forms(theta, phi, n_atoms)
    return {
        "exact": {"jz": exact[0], "jplus": exact[1], "jminus": exact[2]},
        "closed_form": {"jz": closed[0], "jplus": closed[1], "jminus": closed[2]},
        "discrepancy": {
            "jz": abs(exact[0] - closed[0]),
            "jplus": abs(exact[1] - closed[1]),
        },
    }
