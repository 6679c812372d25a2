import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scipy.special import ndtr

from signalmfg import casestudy
from signalmfg.model import NONE_INDEX, NONZERO_SIGNALS, SIGNALS, MarketParams, Signal
from signalmfg.signals import (
    SIGNAL_EDGES,
    classify_index,
    conditional_prob,
    eta,
    jump_sizes,
    law_rows,
    perturb,
    signal_kernel,
    signal_laws,
    signal_rows,
)
from signalmfg.meanfield import _population_sums

from oracles import signal_expectation

LAW = MarketParams(kappa_hat=0.0, sigma_hat=0.1)


def interval_mass(lo, hi):
    # N(0,1) mass of the interval (lo, hi); None marks an unbounded side.
    return (1.0 if hi is None else float(ndtr(hi))) - (0.0 if lo is None else float(ndtr(lo)))


class TestEta:
    # frozen oracle: exp(sigma_hat*e_c + kappa_hat - sigma_hat^2/2) - 1 at 30 digits
    @pytest.mark.parametrize(
        "e_c, expected",
        [(0.0, -0.004987520807317687), (1.0, 0.09965885512610294)],
    )
    def test_values(self, e_c, expected):
        assert eta(LAW, e_c) == pytest.approx(expected, abs=1e-15)

    def test_degenerate_law_is_zero(self):
        law = MarketParams(kappa_hat=0.0, sigma_hat=0.0)
        assert np.all(eta(law, np.linspace(-8, 8, 33)) == 0.0)

    @given(st.floats(-8, 8), st.floats(1e-6, 2.0))
    def test_increasing_and_above_minus_one(self, e_c, step):
        law = MarketParams(kappa_hat=0.2, sigma_hat=0.3)
        lo, hi = eta(law, e_c), eta(law, e_c + step)
        assert lo > -1.0
        assert hi > lo

    def test_vectorized_matches_scalar(self):
        grid = np.linspace(-3, 3, 7)
        assert eta(LAW, grid) == pytest.approx([eta(LAW, x) for x in grid])


class TestJumpSizes:
    def test_one_array_per_jump_law(self):
        e_c = np.linspace(-8.0, 8.0, 33)
        base = casestudy.default_market(kappa_hat=0.05, sigma_hat=0.2)
        markets = [base, casestudy.default_market(r=0.01, kappa_hat=0.05, sigma_hat=0.2),
                   casestudy.default_market(lam=2.0, kappa_hat=0.05, sigma_hat=0.2),
                   casestudy.default_market(kappa_hat=0.05, sigma_hat=0.3)]
        sizes = jump_sizes([casestudy.investor(m) for m in markets], e_c)
        assert len(sizes) == 4
        # Markets differing only in r or lam share (kappa_hat, sigma_hat), hence one array.
        assert sizes[1] is sizes[0] and sizes[2] is sizes[0]
        assert sizes[0].tobytes() == eta(base, e_c).tobytes()
        assert sizes[3] is not sizes[0]
        assert sizes[3].tobytes() == eta(markets[3], e_c).tobytes()
        assert not np.array_equal(sizes[3], sizes[0])


class TestPerturb:
    def test_solves_figure_example(self):
        # e_i1 chosen so that 0.5*0.4 + sqrt(0.75)*e_i1 = 0.8
        e_i1 = 0.6 / math.sqrt(0.75)
        assert perturb(0.5, 0.4, e_i1) == pytest.approx(0.8, abs=1e-15)

    def test_pure_noise(self):
        assert perturb(0.0, 123.0, 1.3) == pytest.approx(1.3)

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_quality_bound(self, rho):
        with pytest.raises(ValueError, match="rho"):
            perturb(rho, 0.0, 0.0)

    @given(st.floats(-0.99, 0.99), st.floats(-5, 5), st.floats(-5, 5))
    def test_is_stated_linear_combination(self, rho, e_c, e_i1):
        expected = rho * e_c + math.sqrt(1 - rho * rho) * e_i1
        assert perturb(rho, e_c, e_i1) == pytest.approx(expected, abs=1e-12)


def classify(z, received):
    return SIGNALS[int(classify_index(z, received))]


def plain_interval(z):
    """I(z) as (lo, hi) read off the edges table; None marks an unbounded side."""
    k = NONZERO_SIGNALS.index(z)
    edges = (None, *SIGNAL_EDGES, None)
    return edges[k], edges[k + 1]


def in_plain_interval(z, x):
    """Membership in I(z): ties on an edge belong to the inner bucket."""
    lo, hi = plain_interval(z)
    if z.value.startswith("+"):
        return (lo is None or x > lo) and (hi is None or x <= hi)
    return (lo is None or x >= lo) and (hi is None or x < hi)


class TestClassify:
    def test_worked_examples(self):
        assert classify(0.8, received=True) is Signal.POS_ONE
        assert classify(-1.2, received=True) is Signal.NEG_INF

    def test_not_received(self):
        assert classify(0.8, received=False) is Signal.NONE

    @pytest.mark.parametrize(
        "z, expected",
        [
            (0.5, Signal.POS_HALF),
            (1.0, Signal.POS_ONE),
            (1.0000001, Signal.POS_INF),
            (-0.5, Signal.NEG_HALF),
            (-1.0, Signal.NEG_ONE),
            (-3.0, Signal.NEG_INF),
            (0.0, Signal.NONE),  # sign(0) carries no direction
            (0.2, Signal.POS_HALF),
        ],
    )
    def test_boundaries(self, z, expected):
        assert classify(z, received=True) is expected

    def test_vectorized_matches_scalar(self):
        zs = np.array([-2.0, -1.0, -0.7, -0.2, 0.0, 0.3, 0.9, 1.0, 4.0])
        got = np.array([True, True, False, True, True, True, True, False, True])
        idx = classify_index(zs, got)
        assert [SIGNALS[int(i)] for i in idx] == [classify(float(z), bool(g)) for z, g in zip(zs, got)]

    def test_infinities_signed_zero_and_shapes(self):
        zs = np.array([[math.inf, -math.inf, -0.0], [0.0, 0.5, -1.0]])
        idx = classify_index(zs, True)
        assert idx.shape == zs.shape and idx.dtype == np.intp
        expected = [[Signal.POS_INF, Signal.NEG_INF, Signal.NONE], [Signal.NONE, Signal.POS_HALF, Signal.NEG_ONE]]
        assert [[SIGNALS[i] for i in row] for row in idx] == expected
        assert np.all(classify_index(zs, np.zeros(zs.shape, dtype=bool)) == NONE_INDEX)
        scalar = classify_index(-0.7, True)
        assert np.shape(scalar) == () and scalar.dtype == np.intp
        assert SIGNALS[scalar] is Signal.NEG_ONE

    @given(
        st.lists(st.one_of(st.sampled_from(SIGNAL_EDGES + (-0.0,)), st.floats(allow_nan=False)), min_size=1),
        st.booleans(),
    )
    def test_array_matches_interval_membership(self, xs, received):
        # Exact edges, signed zeros and infinities mixed into arbitrary floats.
        idx = classify_index(np.array(xs), received)
        assert idx.dtype == np.intp
        for x, i in zip(xs, idx):
            z = SIGNALS[i]
            if not received or x == 0.0:
                assert z is Signal.NONE
            else:
                assert in_plain_interval(z, x)

    @given(st.floats(-4, 4), st.floats(-0.99, 0.99))
    def test_rho_zero_ignores_common_mark(self, e_c, e_i1):
        base = classify(perturb(0.0, 0.0, e_i1), received=True)
        assert classify(perturb(0.0, e_c, e_i1), received=True) is base


class TestSignalIntervals:
    @pytest.mark.parametrize(
        "z, lo, hi",
        [
            (Signal.POS_ONE, 0.5, 1.0),
            (Signal.NEG_INF, None, -1.0),
            (Signal.POS_HALF, 0.0, 0.5),
            (Signal.NEG_ONE, -1.0, -0.5),
        ],
    )
    def test_endpoints(self, z, lo, hi):
        assert plain_interval(z) == (lo, hi)
        # the kernel at rho = 0 is the N(0,1) mass of exactly this interval
        mass = conditional_prob(z, 0.0, 0.0)
        assert mass == pytest.approx(interval_mass(lo, hi), abs=1e-15)

    def test_null_signal_has_no_interval(self):
        with pytest.raises(ValueError):
            conditional_prob(Signal.NONE, 0.0, 0.0)

    @given(st.floats(-10, 10).filter(lambda x: x != 0.0))
    def test_intervals_partition_the_punctured_line(self, x):
        hits = [z for z in NONZERO_SIGNALS if in_plain_interval(z, x)]
        assert len(hits) == 1

    @given(st.floats(-10, 10).filter(lambda x: x != 0.0))
    def test_classification_matches_interval_membership(self, x):
        z = classify(x, received=True)
        assert in_plain_interval(z, x)

    def test_interval_probabilities_sum_to_one(self):
        total = sum(signal_kernel(0.0, 0.0))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestConditionalIntervals:
    def test_pos_inf_example(self):
        # frozen oracle: I(+inf, 0.1) at rho = 0.5 starts at (1 - 0.05)/sqrt(0.75)
        prob = conditional_prob(Signal.POS_INF, e_c=0.1, rho=0.5)
        assert prob == pytest.approx(interval_mass(1.0969655114602890, None), abs=1e-14)

    def test_rho_zero_reduces_to_unconditional(self):
        for z in NONZERO_SIGNALS:
            lo, hi = plain_interval(z)
            expected = interval_mass(lo, hi)
            for e_c in (-2.0, 0.0, 0.7):
                assert conditional_prob(z, e_c, 0.0) == pytest.approx(expected, abs=1e-15)

    def test_null_signal_rejected(self):
        with pytest.raises(ValueError):
            conditional_prob(Signal.NONE, 0.0, 0.5)

    @pytest.mark.parametrize("e_c", [-2.0, -0.3, 0.0, 0.7, 3.1])
    @pytest.mark.parametrize("rho", [-0.8, 0.0, 0.5, 0.95])
    def test_conditional_probabilities_sum_to_one(self, e_c, rho):
        total = sum(conditional_prob(z, e_c, rho) for z in NONZERO_SIGNALS)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert sum(signal_kernel(rho, e_c)) == pytest.approx(1.0, abs=1e-12)

    def test_conditional_prob_vectorized(self):
        grid = np.linspace(-4, 4, 9)
        vals = conditional_prob(Signal.NEG_ONE, grid, 0.5)
        assert vals == pytest.approx([conditional_prob(Signal.NEG_ONE, x, 0.5) for x in grid])


class TestSignalKernel:
    @pytest.mark.parametrize("e_c", [-2.0, 0.3, 3.1])
    @pytest.mark.parametrize("rho", [-0.8, 0.0, 0.5, 0.95])
    def test_rows_match_classified_frequencies(self, rho, e_c):
        # independent oracle: classify simulated perturbed marks at a fixed e_c
        n = 200_000
        e_i1 = np.random.default_rng(17).standard_normal(n)
        counts = np.bincount(classify_index(perturb(rho, e_c, e_i1), True), minlength=len(SIGNALS))
        for z, row in zip(NONZERO_SIGNALS, signal_kernel(rho, e_c)):
            freq = counts[SIGNALS.index(z)] / n
            se = math.sqrt(max(row * (1.0 - row), 1e-12) / n)
            assert abs(freq - row) <= 5.0 * se
        assert counts[SIGNALS.index(Signal.NONE)] == 0

    def test_quality_bound(self):
        with pytest.raises(ValueError, match="rho"):
            next(signal_kernel(1.0, 0.0))
        with pytest.raises(ValueError, match="rho"):
            signal_kernel([0.5, -1.0], 0.0)

    @pytest.mark.parametrize("e_c", [np.linspace(-8.0, 8.0, 129), np.linspace(-3.0, 3.0, 12).reshape(3, 4), 0.3])
    def test_many_rho_are_bitwise_one_rho_at_a_time(self, e_c):
        # Oracle: the five CDF edges of one rho, scaled by the float sqrt(1 - rho^2).
        def one_rho(rho):
            cdf = ndtr(np.subtract.outer(SIGNAL_EDGES, rho * np.asarray(e_c)) / math.sqrt(1.0 - rho * rho))
            return np.concatenate((cdf[:1], cdf[1:] - cdf[:-1], 1.0 - cdf[-1:]))

        rhos = [-0.95, -0.3, 0.0, 0.5, 0.8]
        table = signal_kernel(rhos, e_c)
        assert table.shape == (6, len(rhos)) + np.shape(e_c)
        for j, rho in enumerate(rhos):
            assert np.array_equal(table[:, j], one_rho(rho))
            assert np.array_equal(signal_kernel(rho, e_c), one_rho(rho))


class TestSignalLaws:
    @pytest.mark.parametrize("e_c", [np.linspace(-6.0, 6.0, 101), 0.3])
    def test_laws_and_shared_kernels(self, e_c):
        # rho shared by all, distinct, or shared by types 0, 1 and 3; type 1 never receives a signal.  Each
        # investor's rows have the bits of its table built alone.
        for rhos in [(0.5, 0.5, 0.5, 0.5), (0.5, 0.1, -0.3, 0.8), (0.5, 0.5, -0.3, 0.5)]:
            types = [casestudy.investor(p_s=p_s, rho=rho) for p_s, rho in zip((0.5, 0.0, 0.9, 0.2), rhos)]
            kernels, law = signal_laws(types, e_c)
            assert kernels.shape == (4, 6) + np.shape(e_c) and law.shape == (4, 7) + np.shape(e_c)
            assert np.max(np.abs(law.sum(axis=1) - 1.0)) <= 1e-12
            for i, t in enumerate(types):
                assert np.all(law[i, NONE_INDEX] == 1.0 - t.p_s)
                assert np.array_equal(kernels[i], signal_kernel(t.rho, e_c))
                alone_kernels, alone_law = signal_laws([t], e_c)
                assert kernels[i].tobytes() == alone_kernels[0].tobytes()
                assert law[i].tobytes() == alone_law[0].tobytes()

    @pytest.mark.parametrize("held", [(3, 4, 5), (0, 3, 5), (1,), (0,), (5,), (), tuple(range(6))])
    def test_held_signals_are_bitwise_the_full_tables(self, held):
        # The rows and laws of some signals have the bits of the full tables' columns, also where they are not
        # neighbours.  Types 0 and 2 share a rho, so law_rows picks each investor's kernel row.
        types = [casestudy.investor(p_s=0.5, rho=0.5), casestudy.investor(p_s=0.9, rho=-0.3),
                 casestudy.investor(p_s=0.2, rho=0.5)]
        e_c = np.linspace(-6.0, 6.0, 101)
        nonzero = [NONZERO_SIGNALS[k] for k in held]
        signals = [z for z in SIGNALS if z is Signal.NONE or z in nonzero]
        rows, full_kernel = signal_rows([0.5, -0.3], e_c, nonzero), signal_kernel([0.5, -0.3], e_c)
        assert [row.tobytes() for row in rows] == [full_kernel[k].tobytes() for k in held]
        full_kernels, full_law = signal_laws(types, e_c)
        rows = list(law_rows(types, e_c, signals))
        # No signal first, with no kernel, then the held nonzero signals in order.
        assert [signals[column] for column, _, _ in rows] == [Signal.NONE, *nonzero]
        assert rows[0][1] is None
        for column, kernel, law in rows:
            z = signals[column]
            assert np.broadcast_to(law, (len(types), e_c.size)).tobytes() == full_law[:, SIGNALS.index(z)].tobytes()
            if kernel is not None:
                assert kernel.tobytes() == full_kernels[:, NONZERO_SIGNALS.index(z)].tobytes()

    def test_expectation_is_the_law_table_summed_in_order(self):
        # m on the nodes (meanfield._population_sums) is the law table's expectation of log(1 + pi_z*eta), its terms
        # added in order (the oracle), then the weighted types added to +0.0 one at a time: the same bits.
        types = [casestudy.investor(weight=0.2, p_s=0.5, rho=0.5), casestudy.investor(weight=0.3, p_s=0.0, rho=0.5),
                 casestudy.investor(weight=0.5, p_s=0.9, rho=-0.3)]
        e_c = np.linspace(-6.0, 6.0, 101)
        table = np.random.default_rng(2).uniform(0.0, 0.9, size=(len(types), len(SIGNALS)))
        _, law = signal_laws(types, e_c)
        sizes = np.stack(jump_sizes(types, e_c))
        mixture = signal_expectation(law, np.log1p(table.T[:, :, np.newaxis] * sizes))
        expected = 0.0
        for t, row in zip(types, mixture):
            expected = expected + t.weight * row
        _, mean_jump = _population_sums(types, table, (law, sizes), e_c, np.zeros(len(types), dtype=np.intp))
        assert mean_jump[0].tobytes() == np.exp(expected).tobytes()
