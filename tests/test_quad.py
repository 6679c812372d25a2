import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signalmfg.quad import Quadrature, std_normal_cdf

mp.mp.dps = 30


def cdf_oracle(x: float) -> float:
    # erf-based arbitrary-precision oracle, independent of scipy
    return float(0.5 * (1 + mp.erf(mp.mpf(x) / mp.sqrt(2))))


def expect(f, q):
    # sum(weights * f(nodes)), ``f`` evaluated once on the node array (a scalar result broadcasts).
    return float(np.dot(q.weights, np.broadcast_to(np.asarray(f(q.nodes), dtype=float), q.nodes.shape)))


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


class TestQuadrature:
    def test_weights_sum_to_truncated_mass(self, quad128):
        assert float(np.sum(quad128.weights)) == pytest.approx(1.0, abs=1e-12)
        assert quad128.n_nodes == 128

    def test_constant_integrand(self, quad128):
        assert expect(lambda x: 1.0, quad128) == pytest.approx(1.0, abs=1e-10)

    def test_odd_integrand(self, quad128):
        assert expect(lambda x: x, quad128) == pytest.approx(0.0, abs=1e-10)

    def test_second_moment(self, quad128):
        assert expect(lambda x: x * x, quad128) == pytest.approx(1.0, abs=1e-8)

    @settings(deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, a, b):
        q = Quadrature.standard_normal(64)
        f = lambda x: np.sin(x) + 0.5
        g = lambda x: x * x
        combo = expect(lambda x: a * f(x) + b * g(x), q)
        assert combo == pytest.approx(a * expect(f, q) + b * expect(g, q), abs=1e-10)

    def test_refinement_convergence_on_case_study_integrand(self, ref_eq):
        # doubling the node count moves the spiky equilibrium integrand < 1e-8
        mean_jump = ref_eq.stats.mean_jump

        def integrand(x):
            return (1.0 + 0.5 * np.expm1(0.1 * x - 0.005)) ** (-1.0) * mean_jump(x) ** 0.5

        coarse = expect(integrand, Quadrature.standard_normal(128))
        fine = expect(integrand, Quadrature.standard_normal(256))
        assert abs(fine - coarse) < 1e-8

    def test_discrete_law(self):
        q = Quadrature.discrete([-1.0, 0.0, 2.0], [0.25, 0.5, 0.25])
        assert expect(lambda x: x, q) == pytest.approx(0.25)
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

    def test_standard_normal_grid_is_built_once_and_read_only(self):
        q = Quadrature.standard_normal(96, 7.0)
        assert Quadrature.standard_normal(96, 7.0) is q
        for array in (q.nodes, q.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        # Arguments are checked before the grid is looked up, so each error still names its argument.
        for n_nodes in ([96], 96.0, True):
            with pytest.raises(TypeError, match="n_nodes must be an integer"):
                Quadrature.standard_normal(n_nodes, 7.0)
        with pytest.raises(ValueError, match="n_nodes must be >= 1"):
            Quadrature.standard_normal(0, 7.0)
        with pytest.raises(ValueError, match="half_width must be > 0"):
            Quadrature.standard_normal(96, 0.0)
