import math

import pytest

from dicke_lmg import checks, fullmodel, rwa
from dicke_lmg.errors import InputError
from dicke_lmg.model import ModelParams, check_count
from dicke_lmg.sweep import SweepSpec


def _params(**kw):
    base = dict(omega_f=1.0, delta=0.0, eta=0.0, lam=0.5, n_atoms=2)
    base.update(kw)
    return ModelParams(**base)


def _spec(**kw):
    base = dict(solver="rwa", omega_f=1.0, delta=0.0, n_atoms=2,
                lam_axis=(0.1, 1.0, 2), eta_axis=(0.0, 1.0, 2))
    base.update(kw)
    return SweepSpec(**base)


# every check of a bad input, one call each
_REJECTED = {
    "check_count": lambda: check_count("n_atoms", 0, 1),
    "ModelParams finite": lambda: _params(eta=math.nan),
    "ModelParams omega_f": lambda: _params(omega_f=0.0),
    "ModelParams lam": lambda: _params(lam=-1.0),
    "convergence": lambda: fullmodel._check_convergence(tol=0.0),
    "kept": lambda: fullmodel._check_kept(workers=2),
    "ground_full tol": lambda: fullmodel.ground_full(_params(), tol=math.nan),
    "ladder range": lambda: rwa.transition_ladder(_params(), (1.0, 0.5)),
    "ladder points": lambda: rwa.transition_ladder(_params(), (0.5, 1.0), scan_points=1),
    "suite name": lambda: checks.run_suites(["nope"]),
    "oracle size": lambda: checks.run_suites(n_atoms=checks._MAX_ORACLE_ATOMS + 1),
    "SweepSpec solver": lambda: _spec(solver="exact"),
    "SweepSpec axis": lambda: _spec(lam_axis=(1.0, 1.0, 2)),
}


@pytest.mark.parametrize("name", list(_REJECTED))
def test_every_input_check_raises_input_error(name):
    with pytest.raises(InputError) as caught:
        _REJECTED[name]()
    assert isinstance(caught.value, ValueError)
