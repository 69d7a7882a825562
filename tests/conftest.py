import numpy as np
import pytest

from mirrorsim import PhysicalParams, WavegroupSpec
from mirrorsim.scenario import PRESETS


@pytest.fixture
def rng():
    """A fresh generator per test, so each test draws the same values
    whether it runs alone or in the full suite."""
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def params_fig5():
    return PhysicalParams.natural(M=3.0, v=50.0, V=30.0)


@pytest.fixture(scope="session")
def spec_fig5(params_fig5):
    return WavegroupSpec(params_fig5, dk=1.0, dK=2.0, x1c=-10.0, x2c=0.0)


@pytest.fixture(scope="session")
def spec_fig2():
    p = PhysicalParams.natural(M=100.0, v=50.0, V=30.0)
    return WavegroupSpec(p, dk=1.0, dK=2.0, x1c=-10.0, x2c=0.0)


@pytest.fixture(scope="session")
def presets():
    return PRESETS


@pytest.fixture(scope="session")
def fig7_visibilities():
    """Marginal fringe visibility of each mirror-spread panel, keyed by name,
    plus the dispersed mirror width at the overlap snapshot."""
    import math
    from mirrorsim.scenario import analysis_marginal_visibility
    from mirrorsim.wavegroup import frames

    out = {}
    for name in ("fig7-a", "fig7-b", "fig7-c", "fig7-d"):
        s = PRESETS[name]
        rep = analysis_marginal_visibility(s)
        t_c = s.collision_time
        (_, cov), _ = frames(s.wavegroup, t_c, t_c)
        rep["effective_width"] = math.sqrt(cov[1, 1])
        out[name] = rep
    return out


def random_valid_params(rng, natural=True):
    """A random parameter draw satisfying every PhysicalParams invariant."""
    m = 1.0 if natural else 10.0 ** rng.uniform(-27, -20)
    M = m * 10.0 ** rng.uniform(0.1, 3.0)
    v = 10.0 ** rng.uniform(0.0, 2.0) if natural else 10.0 ** rng.uniform(-3, 3)
    V = v * rng.uniform(-0.9, 0.9)
    if natural:
        return PhysicalParams.natural(M=M, v=v, V=V, m=m)
    return PhysicalParams(m=m, M=M, v=v, V=V)
