import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cavityrb import affine_stretch, build_reference_mesh, identity_map, sine_bump
from cavityrb.problem import CavityProblem

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


_MESHES = {}


def mesh(n):
    if n not in _MESHES:
        _MESHES[n] = build_reference_mesh(n)
    return _MESHES[n]


def make_problem(n=8, family="affine", gauge="tree-cotree", **kw):
    fam = {
        "affine": affine_stretch(2.5),
        "identity": identity_map(),
        "bump": sine_bump(0.3),
    }[family]
    return CavityProblem(mesh(n), fam, gauge=gauge, **kw)


def central_difference(f, t, h):
    """Finite-difference oracle for t-derivatives: (f(t+h) - f(t-h)) / 2h,
    taken entrywise over the tuple of matrices that f returns."""
    plus, minus = f(t + h), f(t - h)
    return tuple((p - m) / (2.0 * h) for p, m in zip(plus, minus))


@pytest.fixture
def quiet_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pod_clamped(Y, B, want, **kw):
    """POD basis of at most the achievable rank (snapshot sets of strongly
    correlated families often carry less numerical rank than requested)."""
    from cavityrb import pod_basis
    from cavityrb.errors import RankDeficiencyError

    try:
        return pod_basis(Y, B, want, **kw)
    except RankDeficiencyError as exc:
        return pod_basis(Y, B, exc.achievable, **kw)
