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


def reflected_pair(p):
    """Reflected plane-wave wavevectors (k - 2 k_rel, K + 2 k_rel) of params p."""
    return p.k - 2.0 * p.k_rel, p.K + 2.0 * p.k_rel


def random_valid_params(rng, natural=True):
    """A random parameter draw satisfying every PhysicalParams invariant."""
    m = 1.0 if natural else 10.0 ** rng.uniform(-27, -20)
    M = m * 10.0 ** rng.uniform(0.1, 3.0)
    v = 10.0 ** rng.uniform(0.0, 2.0) if natural else 10.0 ** rng.uniform(-3, 3)
    V = v * rng.uniform(-0.9, 0.9)
    if natural:
        return PhysicalParams.natural(M=M, v=v, V=V, m=m)
    return PhysicalParams(m=m, M=M, v=v, V=V)


# SI draws of a seeded config sweep on which the exact half-plane moments fail
# by rounding, so coherence-transfer raises a named error there. The sweep
# draws 300 configs from numpy.random.default_rng(7), natural units at even
# indices and SI units at odd ones; an SI draw takes m in 10^U[-27, -22] kg,
# M / m in 10^U[0, 20], v in 10^U[-3, 0] m/s, dk in 10^U[4, 8] /m, dK in
# 10^U[8, 19] /m and then V = v U(-0.9, 0.9), each named r<index>.
SWEEP_SI = {
    "r67": dict(m=2.3290952288169512e-23, M=9.007671084034996e-20, v=0.00256404813794848,
                V=0.0020380704440795265, dk=28363.94033404498, dK=5.96436255418856e+18),
    "r143": dict(m=3.378913648691199e-23, M=3.8963710165954604e-21, v=0.0018966085502276479,
                 V=-0.0015942055701126956, dk=211935.63341950078, dK=2.0775465439781005e+18),
    "r183": dict(m=2.838569137616672e-26, M=9.347891283782664e-24, v=0.0024242284318834626,
                 V=-0.001562745352598108, dk=16020787.223981814, dK=1.4009969190186988e+18),
    "r197": dict(m=1.0584746896463616e-24, M=3.1750454933437834e-23, v=0.0309807877537259,
                 V=-0.01754076187931154, dk=15772.035975295892, dK=109101814752063.42),
    "r247": dict(m=2.973712295911345e-25, M=6.772594440353311e-23, v=0.009041547456785617,
                 V=0.007913995049884794, dk=126216.54030813511, dK=7019472751853754.0),
}


def sweep_config(name):
    """The gridless SI config of a sweep draw, its packets centred eight
    combined widths apart: x1c = -8 (1/dk + 1/dK), x2c = 0."""
    d = SWEEP_SI[name]
    return {"name": name, "units": "SI", "params": {k: d[k] for k in ("m", "M", "v", "V")},
            "wavegroup": {"dk": d["dk"], "dK": d["dK"],
                          "x1c": -8.0 * (1.0 / d["dk"] + 1.0 / d["dK"]), "x2c": 0.0}}


def sweep_spec(name):
    """The WavegroupSpec of :func:`sweep_config`."""
    cfg = sweep_config(name)
    return WavegroupSpec(PhysicalParams(**cfg["params"]), **cfg["wavegroup"])
