from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signalmfg.quad import Quadrature, expect_outer, normal_prob, std_normal_cdf

mp.mp.dps = 30


def cdf_oracle(x: float) -> float:
    # erf-based arbitrary-precision oracle, independent of scipy
    return float(0.5 * (1 + mp.erf(mp.mpf(x) / mp.sqrt(2))))


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-16)

    def test_unit_point(self):
        assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)

    def test_interval_difference(self):
        assert std_normal_cdf(1.0) - std_normal_cdf(0.5) == pytest.approx(
            0.1498822847945298, abs=1e-15
        )

    def test_max_abs_error_budget_on_working_domain(self):
        # documented accuracy claim: |err| <= 1e-12 on [-8, 8]
        grid = np.linspace(-8.0, 8.0, 321)
        worst = max(abs(std_normal_cdf(float(x)) - cdf_oracle(float(x))) for x in grid)
        assert worst <= 1e-12

    def test_vectorized(self):
        grid = np.linspace(-3, 3, 13)
        assert std_normal_cdf(grid) == pytest.approx([std_normal_cdf(float(x)) for x in grid])


class TestNormalProb:
    def test_full_line(self):
        assert normal_prob(SimpleNamespace(lo=None, hi=None)) == pytest.approx(1.0, abs=1e-15)

    def test_bounded_interval(self):
        assert normal_prob(SimpleNamespace(lo=0.5, hi=1.0)) == pytest.approx(0.1498822847945298, abs=1e-14)

    def test_mirror_symmetry(self):
        left = normal_prob(SimpleNamespace(lo=-0.5, hi=0.0))
        right = normal_prob(SimpleNamespace(lo=0.0, hi=0.5))
        assert left == pytest.approx(right, abs=1e-15)
        assert right == pytest.approx(0.1914624612740131, abs=1e-14)

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError, match="lo"):
            normal_prob(SimpleNamespace(lo=1.0, hi=0.5))


class TestQuadrature:
    def test_weights_sum_to_truncated_mass(self, quad128):
        assert float(np.sum(quad128.weights)) == pytest.approx(1.0, abs=1e-12)
        assert quad128.n_nodes == 128

    def test_constant_integrand(self, quad128):
        assert expect_outer(lambda x: 1.0, quad128) == pytest.approx(1.0, abs=1e-10)

    def test_odd_integrand(self, quad128):
        assert expect_outer(lambda x: x, quad128) == pytest.approx(0.0, abs=1e-10)

    def test_second_moment(self, quad128):
        assert expect_outer(lambda x: x * x, quad128) == pytest.approx(1.0, abs=1e-8)

    @settings(deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, a, b):
        q = Quadrature.standard_normal(64)
        f = lambda x: np.sin(x) + 0.5
        g = lambda x: x * x
        combo = expect_outer(lambda x: a * f(x) + b * g(x), q)
        assert combo == pytest.approx(a * expect_outer(f, q) + b * expect_outer(g, q), abs=1e-10)

    def test_refinement_convergence_on_case_study_integrand(self, ref_eq):
        # doubling the node count moves the spiky equilibrium integrand < 1e-8
        mean_jump = ref_eq.stats.mean_jump

        def integrand(x):
            return (1.0 + 0.5 * np.expm1(0.1 * x - 0.005)) ** (-1.0) * mean_jump(x) ** 0.5

        coarse = expect_outer(integrand, Quadrature.standard_normal(128))
        fine = expect_outer(integrand, Quadrature.standard_normal(256))
        assert abs(fine - coarse) < 1e-8

    def test_non_finite_integrand_identifies_node(self, quad128):
        def bad(x):
            out = np.asarray(x, dtype=float).copy()
            out[7] = np.nan
            return out

        with pytest.raises(ValueError, match="node 7"):
            expect_outer(bad, quad128)

    def test_discrete_law(self):
        q = Quadrature.discrete([-1.0, 0.0, 2.0], [0.25, 0.5, 0.25])
        assert expect_outer(lambda x: x, q) == pytest.approx(0.25)
        with pytest.raises(ValueError, match="sum"):
            Quadrature.discrete([0.0, 1.0], [0.5, 0.6])

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            Quadrature.standard_normal(0)
        with pytest.raises(ValueError):
            Quadrature.standard_normal(64, -1.0)

    @pytest.mark.parametrize("n_nodes", [True, 64.0])
    def test_non_integer_node_count_rejected(self, n_nodes):
        with pytest.raises(TypeError, match="n_nodes must be an integer"):
            Quadrature.standard_normal(n_nodes)

    def test_numpy_integer_node_count_accepted(self):
        assert Quadrature.standard_normal(np.int64(64)).n_nodes == 64

    def test_nan_half_width_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            Quadrature.standard_normal(8, float("nan"))
