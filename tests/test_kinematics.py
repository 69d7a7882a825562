import math

import numpy as np
import pytest

from mirrorsim import (PhysicalParams, WavegroupSpec, beat_frequency,
                       coherence_length, elastic_final_velocities, fringe_period,
                       thermal_spread)
from mirrorsim.wavegroup import _branch
from conftest import random_valid_params, reflected_pair


def cm_frame_oracle(m, M, v, V):
    """Independent route: elastic reflection is velocity reversal in the
    centre-of-momentum frame."""
    v_cm = (m * v + M * V) / (m + M)
    return 2 * v_cm - v, 2 * v_cm - V


class TestElastic:
    def test_equal_mass_exchange(self):
        p = PhysicalParams.natural(M=1.0, v=1.0, V=0.0)
        v_f, V_f = elastic_final_velocities(p)
        assert v_f == pytest.approx(0.0, abs=1e-15)
        assert V_f == pytest.approx(1.0, rel=1e-15)

    def test_mass_ratio_100(self):
        p = PhysicalParams.natural(M=100.0, v=1.0, V=0.6)
        v_f, V_f = elastic_final_velocities(p)
        ov, oV = cm_frame_oracle(1.0, 100.0, 1.0, 0.6)
        assert v_f == pytest.approx(21.0 / 101.0, rel=1e-14)
        assert V_f == pytest.approx(61.4 / 101.0, rel=1e-14)
        assert v_f == pytest.approx(ov, rel=1e-13)
        assert V_f == pytest.approx(oV, rel=1e-13)

    def test_hard_wall_limit(self):
        p = PhysicalParams.natural(M=1e9, v=1.0, V=0.0)
        v_f, _ = elastic_final_velocities(p)
        assert v_f == pytest.approx(-1.0, abs=1e-8)

    def test_rejects_no_reflection(self):
        with pytest.raises(ValueError):
            PhysicalParams.natural(M=2.0, v=1.0, V=1.0)
        with pytest.raises(ValueError):
            PhysicalParams.natural(M=2.0, v=1.0, V=1.5)

    def test_conservation_property(self, rng):
        for _ in range(10_000):
            p = random_valid_params(rng)
            v_f, V_f = elastic_final_velocities(p)
            p_in = p.m * p.v + p.M * p.V
            p_out = p.m * v_f + p.M * V_f
            e_in = 0.5 * p.m * p.v**2 + 0.5 * p.M * p.V**2
            e_out = 0.5 * p.m * v_f**2 + 0.5 * p.M * V_f**2
            assert abs(p_out - p_in) <= 1e-12 * max(1.0, abs(p_in))
            assert abs(e_out - e_in) <= 1e-12 * e_in

    def test_reversal_symmetry(self, rng):
        for _ in range(200):
            p = random_valid_params(rng)
            v_f, V_f = elastic_final_velocities(p)
            back = PhysicalParams.natural(M=p.M, v=-v_f, V=-V_f, m=p.m)
            v_b, V_b = elastic_final_velocities(back)
            assert v_b == pytest.approx(-p.v, rel=1e-12, abs=1e-12)
            assert V_b == pytest.approx(-p.V, rel=1e-12, abs=1e-12)


class TestCollisionStatedTwice:
    def test_wavevector_and_velocity_forms_agree(self, rng):
        # the wavegroup's reflected branch carries the collision as a carrier
        # offset and a recoil displacement, the plane-wave pair as reflected
        # wavevectors, elastic_final_velocities as velocities; the central
        # reflected wavevectors, velocities, fringe period and beat must agree
        for natural in (True, False):
            for _ in range(2000):
                p = random_valid_params(rng, natural=natural)
                spec = WavegroupSpec(p, dk=1.0, dK=1.0, x1c=-20.0, x2c=0.0)
                k_ref, K_ref = reflected_pair(p)
                br = _branch(spec, True, spec.t0 + 1.0, spec.t0 + 1.0)
                k_scale = abs(p.k) + abs(p.K)
                assert abs(p.k + br.kq[0] - k_ref) <= 1e-12 * k_scale
                assert abs(p.K + br.kq[1] - K_ref) <= 1e-12 * k_scale
                v_scale = abs(p.v) + abs(p.V)
                for u, u_f in zip(np.add(br.ut, br.recoil), elastic_final_velocities(p)):
                    assert abs(u - u_f) <= 1e-12 * v_scale
                period = math.pi / abs(p.k_rel)
                assert abs(period - fringe_period(p)) <= 1e-12 * period
                beat_scale = (p.hbar * abs(p.k_rel) * k_scale) / (p.m + p.M)
                assert abs(spec.beat0 - beat_frequency(p)) <= 1e-12 * beat_scale


class TestThermal:
    def test_rubidium_coherence_length(self):
        # ultracold-atom anchor: about 1 micron
        _, l_c = thermal_spread(1.4e-25, 1e-7)
        assert l_c == pytest.approx(1.0657009978518194e-06, rel=1e-12)
        assert abs(l_c - 1.0e-6) / 1.0e-6 < 0.10

    def test_mass_scaling(self):
        _, l1 = thermal_spread(1e-8, 1.0)
        _, l2 = thermal_spread(2e-8, 1.0)
        assert l1 / l2 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_mirror_value(self):
        # direct formula evaluation at the thermal-mirror inputs
        dV, l_c = thermal_spread(1e-8, 1.0)
        assert dV == pytest.approx(5.254805419803858e-08, rel=1e-12)
        assert l_c == pytest.approx(1.2609544256440472e-18, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            thermal_spread(1e-8, 0.0)
        with pytest.raises(ValueError):
            thermal_spread(1e-8, -1.0)
        with pytest.raises(ValueError):
            thermal_spread(0.0, 1.0)


class TestCoherenceLength:
    def test_direct_ratio(self):
        assert coherence_length(1e-9, 10.0, 1.0) == pytest.approx(1e-8, rel=1e-15)

    def test_spread_limit(self):
        assert coherence_length(1e-9, 10.0, 1e30) < 1e-37

    def test_slow_neutron_anchor(self):
        # 2 A neutron with V/dV = 395 reproduces the 790 A figure
        lam = 2.0e-10
        v_neutron = 6.62607015e-34 / (1.675e-27 * lam)
        l_c = coherence_length(lam, v_neutron, v_neutron / 395.0)
        assert l_c == pytest.approx(790e-10, rel=1e-12)

    def test_rejects_bad_spread(self):
        with pytest.raises(ValueError):
            coherence_length(1e-9, 10.0, 0.0)
