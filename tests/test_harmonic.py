import math

import numpy as np
import pytest

from mirrorsim import (PhysicalParams, SpacetimePoint, beat_frequency,
                       fringe_period, fringe_spacing, incident_amplitude,
                       interference_pdf, reflected_amplitude)
from mirrorsim.kinematics import ApproximationWarning
from mirrorsim.scenario import PRESETS
from conftest import random_valid_params, reflected_pair

# |phases| stay below ~1e3 for these draws, keeping trig rounding well
# under the identity tolerances
_POS = 3.0
_TIME = 0.5


def bounded_params(rng):
    M = 10.0 ** rng.uniform(0.05, 1.5)
    v = rng.uniform(0.5, 8.0)
    V = v * rng.uniform(-0.9, 0.9)
    return PhysicalParams.natural(M=M, v=v, V=V)


def random_point(rng, ordered=False):
    x1, x2 = rng.uniform(-_POS, _POS, 2)
    if ordered and x1 > x2:
        x1, x2 = x2, x1
    t1, t2 = rng.uniform(-_TIME, _TIME, 2)
    return SpacetimePoint(x1, t1, x2, t2)


class TestAmplitudes:
    def test_origin_phase(self, rng):
        p = bounded_params(rng)
        assert incident_amplitude(p, SpacetimePoint(0, 0, 0, 0)) == pytest.approx(1.0)

    def test_half_turn(self):
        p = PhysicalParams.natural(M=50.0, v=1.0, V=0.0)
        val = incident_amplitude(p, SpacetimePoint(math.pi, 0, 0, 0))
        assert val == pytest.approx(-1.0, abs=1e-12)

    def test_single_time_reduction(self, rng):
        for _ in range(100):
            p = bounded_params(rng)
            x1, x2 = rng.uniform(-_POS, _POS, 2)
            t = rng.uniform(-_TIME, _TIME)
            e_total = (p.hbar**2 * p.k**2 / (2 * p.m)
                       + p.hbar**2 * p.K**2 / (2 * p.M))
            expected = np.exp(1j * ((p.k * x1 + p.K * x2
                                     - e_total * t / p.hbar) % (2 * math.pi)))
            got = incident_amplitude(p, SpacetimePoint(x1, t, x2, t))
            assert abs(got - expected) < 1e-12

    def test_unit_modulus(self, rng):
        for _ in range(50):
            p = bounded_params(rng)
            pt = random_point(rng)
            assert abs(abs(incident_amplitude(p, pt)) - 1.0) < 1e-14
            assert abs(abs(reflected_amplitude(p, pt)) - 1.0) < 1e-14

    def test_boundary_condition(self, rng):
        for _ in range(200):
            p = bounded_params(rng)
            x = rng.uniform(-_POS, _POS)
            t = rng.uniform(-_TIME, _TIME)
            pt = SpacetimePoint(x, t, x, t)
            diff = incident_amplitude(p, pt) - reflected_amplitude(p, pt)
            assert abs(diff) < 1e-12

    def test_equal_mass_rest_mirror_exchange(self):
        p = PhysicalParams.natural(M=1.0, v=1.0, V=0.0)
        k_ref, K_ref = reflected_pair(p)
        assert k_ref == pytest.approx(0.0, abs=1e-15)
        assert K_ref == pytest.approx(p.k, rel=1e-15)

    def test_reflected_phase_gradient(self, rng):
        for _ in range(30):
            p = bounded_params(rng)
            pt = random_point(rng)
            k_ref = reflected_pair(p)[0]
            h = 0.1 / max(abs(k_ref), 1.0)
            up = reflected_amplitude(p, SpacetimePoint(pt.x1 + h, pt.t1, pt.x2, pt.t2))
            dn = reflected_amplitude(p, SpacetimePoint(pt.x1 - h, pt.t1, pt.x2, pt.t2))
            grad = np.angle(up / dn) / (2 * h)
            assert grad == pytest.approx(k_ref, rel=1e-8, abs=1e-8)

    def test_mode_conservation_property(self, rng):
        for _ in range(10_000):
            p = random_valid_params(rng)
            k_ref, K_ref = reflected_pair(p)
            e_in = p.k**2 / (2 * p.m) + p.K**2 / (2 * p.M)
            e_out = k_ref**2 / (2 * p.m) + K_ref**2 / (2 * p.M)
            mom_in = p.k + p.K
            mom_out = k_ref + K_ref
            assert abs(e_out - e_in) <= 1e-12 * abs(e_in)
            assert abs(mom_out - mom_in) <= 1e-12 * max(1.0, abs(mom_in))


def eigenstate(p, pt):
    """The eigenstate incident - reflected, on the physical side x1 <= x2."""
    return incident_amplitude(p, pt) - reflected_amplitude(p, pt)


class TestEigenstate:
    def test_dead_zone(self, rng):
        p = bounded_params(rng)
        pt = SpacetimePoint(1.0, 0.1, 0.5, 0.2)  # x1 > x2
        assert interference_pdf(p, pt) == 0.0

    def test_boundary_zero(self, rng):
        p = bounded_params(rng)
        assert abs(eigenstate(p, SpacetimePoint(0.7, 0.3, 0.7, 0.3))) < 1e-12

    def test_matches_closed_form_pdf(self, rng):
        for _ in range(1000):
            p = bounded_params(rng)
            pt = random_point(rng, ordered=True)
            lhs = abs(eigenstate(p, pt)) ** 2
            rhs = interference_pdf(p, pt)
            assert abs(lhs - rhs) <= 4.0 * 1e-12  # PDF full scale is 4

    def test_matches_closed_form_pdf_si(self, rng):
        # SI wavevectors at micron positions: K x2 passes 1e17 rad, whose ulp
        # exceeds the whole recoil phase unless that phase is kept apart
        draws = [PRESETS["fig8"].params] + [random_valid_params(rng, natural=False)
                                            for _ in range(300)]
        for p in draws:
            x1, x2 = np.sort(rng.uniform(-1e-6, 1e-6, (2, 20)), axis=0)
            t1, t2 = rng.uniform(0.0, 1e-4, (2, 20))
            pt = SpacetimePoint(x1, t1, x2, t2)
            lhs = np.abs(eigenstate(p, pt)) ** 2
            assert np.abs(lhs - interference_pdf(p, pt)).max() <= 4.0 * 1e-12


class TestInterferencePdf:
    def test_node_at_contact(self, rng):
        p = bounded_params(rng)
        assert interference_pdf(p, SpacetimePoint(0.2, 0.4, 0.2, 0.4)) < 1e-24

    def test_spatial_period(self, rng):
        for _ in range(100):
            p = bounded_params(rng)
            period = math.pi * (p.m + p.M) / abs(p.m * p.K - p.M * p.k)
            pt = random_point(rng, ordered=True)
            shifted = SpacetimePoint(pt.x1 - period, pt.t1, pt.x2, pt.t2)
            a = interference_pdf(p, pt)
            b = interference_pdf(p, shifted)
            assert abs(a - b) < 4e-10

    def test_cm_rel_form_at_equal_times(self, rng):
        for _ in range(1000):
            p = bounded_params(rng)
            k_rel = (p.M * p.k - p.m * p.K) / (p.m + p.M)
            x1, x2 = sorted(rng.uniform(-_POS, _POS, 2))
            t = rng.uniform(-_TIME, _TIME)
            got = interference_pdf(p, SpacetimePoint(x1, t, x2, t))
            expected = 4.0 * math.sin((k_rel * (x1 - x2)) % math.pi) ** 2
            assert abs(got - expected) < 4e-12

    def test_static_fringes(self, rng):
        for _ in range(100):
            p = bounded_params(rng)
            x1, x2 = sorted(rng.uniform(-_POS, _POS, 2))
            t, dt = rng.uniform(-_TIME, _TIME, 2)
            a = interference_pdf(p, SpacetimePoint(x1, t, x2, t))
            b = interference_pdf(p, SpacetimePoint(x1, t + dt, x2, t + dt))
            assert abs(a - b) < 4e-11

    def test_temporal_period_matches_beat(self, rng):
        for _ in range(100):
            p = bounded_params(rng)
            omega = beat_frequency(p)
            if omega < 1e-6:
                continue
            period = math.pi / omega
            x1, x2 = sorted(rng.uniform(-_POS, _POS, 2))
            t1, t2 = rng.uniform(-_TIME, _TIME, 2)
            a = interference_pdf(p, SpacetimePoint(x1, t1, x2, t2))
            b = interference_pdf(p, SpacetimePoint(x1, t1 + period, x2, t2))
            mid = interference_pdf(p, SpacetimePoint(x1, t1 + 0.5 * period, x2, t2))
            assert abs(a - b) <= 1e-9 * 4.0
            # genuine oscillation at that rate: half a period flips the fringe
            expected_mid = 4.0 - a
            assert abs(mid - expected_mid) <= 1e-8 * 4.0


class TestFringeSpacing:
    def test_half_de_broglie_at_rest(self):
        p = PhysicalParams.natural(M=1000.0, v=2.0, V=0.0)
        lam_db = 2 * math.pi * p.hbar / (p.m * p.v)
        assert fringe_spacing(p) == pytest.approx(lam_db / 2, rel=1e-15)

    def test_rubidium_scenario_value(self):
        p = PhysicalParams(m=1.4e-25, M=1e-8, v=0.03, V=0.01)
        assert fringe_spacing(p) == pytest.approx(1.1832268125e-07, rel=1e-12)

    def test_scaling(self):
        a = fringe_spacing(PhysicalParams.natural(M=1e4, v=2.0, V=0.0))
        b = fringe_spacing(PhysicalParams.natural(M=1e4, v=4.0, V=0.0))
        assert a / b == pytest.approx(2.0, rel=1e-14)

    def test_warns_outside_regime(self):
        p = PhysicalParams.natural(M=3.0, v=50.0, V=30.0)
        with pytest.warns(ApproximationWarning):
            val = fringe_spacing(p)
        assert val == pytest.approx(math.pi / 20.0, rel=1e-14)

    def test_exact_period_helper(self):
        p = PhysicalParams.natural(M=100.0, v=50.0, V=30.0)
        assert fringe_period(p) == pytest.approx(math.pi * 101.0 / 2000.0, rel=1e-14)


class TestBeatFrequency:
    def test_rubidium_order_of_magnitude(self):
        p = PhysicalParams(m=1.4e-25, M=1e-8, v=0.03, V=0.01)
        omega = beat_frequency(p)
        assert omega == pytest.approx(265510.6037490841, rel=1e-12)
        assert abs(omega - 3e5) / 3e5 < 0.15

    def test_large_mass_limit(self):
        small = beat_frequency(PhysicalParams.natural(M=1e2, v=1.0, V=0.0))
        huge = beat_frequency(PhysicalParams.natural(M=1e9, v=1.0, V=0.0))
        assert huge < 1e-3 * small

    def test_zero_at_grazing_limit(self):
        p = PhysicalParams.natural(M=10.0, v=1.0, V=1.0 - 1e-12)
        assert beat_frequency(p) < 1e-11
