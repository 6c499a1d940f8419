"""Tests for the moment algebra (Eqs. 7-10)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core import Moments, relative_error, shifted_scaled_moments


class TestMoments:
    def test_deterministic(self):
        m = Moments.deterministic(3.0)
        assert (m.m1, m.m2, m.m3) == (3.0, 9.0, 27.0)
        assert m.variance == 0.0
        assert m.cvar == 0.0

    def test_mean_variance_cvar(self):
        # Exponential with rate 2: E=0.5, E[X^2]=0.5, E[X^3]=0.75.
        m = Moments(0.5, 0.5, 0.75)
        assert m.mean == 0.5
        assert m.variance == pytest.approx(0.25)
        assert m.std == pytest.approx(0.5)
        assert m.cvar == pytest.approx(1.0)

    def test_moment_accessor(self):
        m = Moments(1.0, 2.0, 6.0)
        assert m.moment(1) == 1.0
        assert m.moment(2) == 2.0
        assert m.moment(3) == 6.0
        with pytest.raises(ValueError):
            m.moment(4)

    def test_zero_mean_cvar_is_zero(self):
        assert Moments(0.0, 0.0, 0.0).cvar == 0.0

    def test_rejects_negative_moments(self):
        with pytest.raises(ValueError):
            Moments(-1.0, 1.0, 1.0)

    def test_rejects_jensen_violation(self):
        with pytest.raises(ValueError, match="inconsistent"):
            Moments(2.0, 1.0, 1.0)  # E[X^2] < E[X]^2


class TestShiftedScaledMoments:
    def test_matches_paper_equations_for_deterministic_r(self):
        # B = D + t*r with constant r: all moments are powers of D + t*r.
        d, t, r = 2.0, 0.5, 4.0
        inner = Moments.deterministic(r)
        out = shifted_scaled_moments(d, t, inner)
        b = d + t * r
        assert out.m1 == pytest.approx(b)
        assert out.m2 == pytest.approx(b**2)
        assert out.m3 == pytest.approx(b**3)

    def test_zero_scale_collapses_to_constant(self):
        inner = Moments(5.0, 30.0, 200.0)
        out = shifted_scaled_moments(2.0, 0.0, inner)
        assert out.m1 == 2.0
        assert out.m2 == 4.0
        assert out.m3 == 8.0

    def test_rejects_negative_inputs(self):
        inner = Moments.deterministic(1.0)
        with pytest.raises(ValueError):
            shifted_scaled_moments(-1.0, 1.0, inner)
        with pytest.raises(ValueError):
            shifted_scaled_moments(1.0, -1.0, inner)

    @given(
        d=st.floats(min_value=0.0, max_value=1e3),
        t=st.floats(min_value=0.0, max_value=1e3),
        r=st.floats(min_value=0.0, max_value=1e3),
    )
    def test_property_consistency_for_point_mass(self, d, t, r):
        """For a point-mass inner variable the output must be a point mass."""
        out = shifted_scaled_moments(d, t, Moments.deterministic(r))
        assert out.variance == pytest.approx(0.0, abs=1e-6 * max(1.0, out.m1**2))

    @given(
        d=st.floats(min_value=0.0, max_value=100.0),
        t=st.floats(min_value=0.0, max_value=100.0),
        m1=st.floats(min_value=0.0, max_value=10.0),
        excess=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_property_jensen_preserved(self, d, t, m1, excess):
        """Affine maps preserve moment consistency (E[B^2] >= E[B]^2)."""
        m2 = m1**2 + excess
        # A crude valid third moment: E[X^3] >= E[X]*E[X^2] for X >= 0.
        m3 = m1 * m2 + excess
        out = shifted_scaled_moments(d, t, Moments(m1, m2, m3))
        assert out.m2 >= out.m1**2 * (1 - 1e-9) - 1e-12

    def test_linearity_of_mean(self):
        inner = Moments(3.0, 12.0, 60.0)
        out = shifted_scaled_moments(1.5, 2.0, inner)
        assert out.m1 == pytest.approx(1.5 + 2.0 * 3.0)

    def test_variance_scales_quadratically(self):
        inner = Moments(3.0, 12.0, 60.0)  # variance 3
        out = shifted_scaled_moments(10.0, 2.0, inner)
        assert out.variance == pytest.approx(4.0 * inner.variance)
        assert math.isclose(out.std, 2.0 * inner.std)


class TestRelativeError:
    def test_relative_to_the_model(self):
        assert relative_error(1.1, 1.0) == pytest.approx(0.1)
        assert relative_error(0.9, -1.0) == pytest.approx(1.9)

    def test_a_floor_keeps_a_tiny_model_from_blowing_up(self):
        assert relative_error(0.3, 0.1, floor=2.0) == pytest.approx(0.1)
        assert relative_error(0.0, 0.0, floor=3.2) == 0.0

    def test_against_a_zero_model_the_absolute_error(self):
        assert relative_error(-0.25, 0.0) == 0.25
