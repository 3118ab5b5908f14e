"""Timings behind the eigensolver choice of the full-model solver.

    PYTHONPATH=src python3 tools/full_solver_timings.py crossover
    PYTHONPATH=src python3 tools/full_solver_timings.py large-n

``crossover`` times the lowest eigenpair of one parity block (sector 0,
eta = 0.7) five ways, as the median of 9 calls in ms: dense ``eigh``, ARPACK
from the uniform vector (cold), ARPACK from the zero-padded ground vector of
cutoff n_cut // 2 (warm), and banded inverse iteration from the uniform
vector (bcold, as on the first step of ``ground_full``) and from the warm
vector (bwarm), for blocks of about 33 to 4000 states at N_a = 5..120 (n_cut
is at least 2, so small blocks exist only at small N_a). Each call goes
through the solver's own ``fullmodel._lowest_dense``, ``_lowest_arpack`` or
``_lowest_banded``, so dense ``eigh`` runs on one BLAS thread and ARPACK and
the banded solve on the caller's, as in the solver, whichever of them
``fullmodel._solve_cutoff`` would pick; kd is the block's half-bandwidth, and
dense is skipped above 1000 states. ``large-n`` times whole ``ground_full`` solves
(delta = eta = 0, parity blocks) at N_a 10..160 and reports n_cut_used.
"""

import argparse
import math
import statistics
import time

from dicke_lmg import fullmodel
from dicke_lmg.errors import ConvergenceError
from dicke_lmg.model import ModelParams


def _median_ms(call, repeats=9):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def crossover():
    print("N_a   lam  n_cut  states  kd   dense    cold    warm   bcold   bwarm")
    for n_atoms in (5, 10, 20, 40, 48, 60, 80, 120):
        for states in (33, 66, 99, 120, 200, 300, 350, 400, 500, 700, 1000, 2000, 4000):
            n_cut = max(2, round(2 * states / (n_atoms + 1)) - 1)
            for lam in (0.3, 0.8):
                params = ModelParams(omega_f=1.0, delta=0.0, eta=0.7, lam=lam,
                                     n_atoms=n_atoms)
                layout = fullmodel._Layout.build(n_atoms, n_cut, 0)
                csr = fullmodel._csr(params, layout)
                band = fullmodel._band_storage(params, layout)
                half = fullmodel._Layout.build(n_atoms, n_cut // 2, 0)
                _, warm = fullmodel._lowest_dense(fullmodel._hamiltonian(params, half))
                dim = layout.index.size
                dense = csr.toarray() if dim <= 1000 else None
                times = (math.nan if dense is None
                         else _median_ms(lambda: fullmodel._lowest_dense(dense)),
                         _median_ms(lambda: fullmodel._lowest_arpack(csr, None)),
                         _median_ms(lambda: fullmodel._lowest_arpack(csr, warm)),
                         _median_ms(lambda: fullmodel._lowest_banded(band)),
                         _median_ms(lambda: fullmodel._lowest_banded(band, warm)))
                print(f"{n_atoms:>3} {lam:>5} {n_cut:>6} {dim:>7} {layout.half_bandwidth:>3}"
                      + "".join(f"{t:>8.2f}" for t in times), flush=True)


def large_n():
    print("N_a  " + "  ".join(f"{'lam = ' + str(lam):>20}" for lam in (0.3, 1.0, 2.0)))
    for n_atoms in (10, 20, 40, 80, 120, 160):
        cells = []
        for lam in (0.3, 1.0, 2.0):
            params = ModelParams(omega_f=1.0, delta=0.0, eta=0.0, lam=lam,
                                 n_atoms=n_atoms)
            start = time.perf_counter()
            try:
                n_cut = fullmodel.ground_full(params).n_cut_used
            except ConvergenceError:
                n_cut = "cap"
            cells.append(f"{time.perf_counter() - start:.3f} s ({n_cut})")
        print(f"{n_atoms:>3}  " + "  ".join(f"{c:>20}" for c in cells), flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("table", choices=("crossover", "large-n"))
    {"crossover": crossover, "large-n": large_n}[parser.parse_args().table]()
