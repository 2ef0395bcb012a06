import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_hermitenorm, factorial

from spinchaos.chaos import disorder_functional
from spinchaos.disorder import DisorderModel
from spinchaos.errors import CapacityError, NumericalError, ValidationError
from spinchaos.hermite import (CoefficientEntry, CoefficientTable,
                               adaptive_gaussian_mean, coeff_quadrature, coefficient_sweep,
                               conditional_mean_resampled, gauss_hermite,
                               hermite_values, parseval_tail, semigroup_weight,
                               sign_criterion, weighted_coefficient_sum)
from spinchaos.hypergraph import hypergraph, multi_index, vertex_support
from spinchaos.rng import substream

from conftest import random_hypergraph, second_moment_quadrature


def test_gauss_hermite_moments():
    x, w = gauss_hermite(12)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert (w * x).sum() == pytest.approx(0.0, abs=1e-14)
    assert (w * x ** 2).sum() == pytest.approx(1.0, abs=1e-13)
    assert (w * x ** 4).sum() == pytest.approx(3.0, abs=1e-12)
    assert (w * x ** 6).sum() == pytest.approx(15.0, abs=1e-11)


def test_hermite_values_closed_forms():
    x = np.linspace(-3, 3, 25)
    hv = hermite_values(4, x)
    assert np.allclose(hv[0], 1.0)
    assert np.allclose(hv[1], x)
    assert np.allclose(hv[2], (x ** 2 - 1) / math.sqrt(2))
    assert np.allclose(hv[3], (x ** 3 - 3 * x) / math.sqrt(6))
    assert np.allclose(hv[4], (x ** 4 - 6 * x ** 2 + 3) / math.sqrt(24))


def test_hermite_values_match_scipy():
    x = np.linspace(-2.5, 2.5, 17)
    hv = hermite_values(9, x)
    for m in range(10):
        want = eval_hermitenorm(m, x) / math.sqrt(float(factorial(m)))
        assert np.allclose(hv[m], want, atol=1e-11)


def test_orthonormal_gram():
    x, w = gauss_hermite(12)
    hv = hermite_values(8, x)
    gram = (hv * w[None, :]) @ hv.T
    assert np.max(np.abs(gram - np.eye(9))) < 1e-12


def test_quadrature_exact_on_polynomials():
    # phi assembled from known orthonormal modes must be recovered exactly
    coeffs = {(3, 1): 2.5, (0, 2): -0.7, (0, 0): 1.1}

    def phi(rows):
        hv0 = hermite_values(3, rows[:, 0])
        hv1 = hermite_values(2, rows[:, 1])
        out = np.zeros(rows.shape[0])
        for (d0, d1), c in coeffs.items():
            out += c * hv0[d0] * hv1[d1]
        return out

    for (d0, d1), c in coeffs.items():
        n = multi_index({0: d0, 1: d1})
        assert coeff_quadrature(phi, 2, n, 8) == pytest.approx(c, abs=1e-12)
    # a mode outside the support comes back zero
    assert coeff_quadrature(phi, 2, multi_index({0: 1, 1: 1}), 8) == pytest.approx(0.0, abs=1e-12)
    want_sq = sum(c * c for c in coeffs.values())
    assert second_moment_quadrature(phi, 2, 8) == pytest.approx(want_sq, rel=1e-12)


def test_scalar_tanh_coefficient_against_adaptive():
    beta = 0.5

    def phi(rows):
        return np.tanh(beta * rows[:, 0])

    got = coeff_quadrature(phi, 1, multi_index({0: 1}), 20)
    dens = 1 / math.sqrt(2 * math.pi)
    want, _ = quad(lambda u: math.tanh(beta * u) * u * dens * math.exp(-u * u / 2),
                   -np.inf, np.inf, epsabs=1e-13)
    assert got == pytest.approx(want, abs=1e-8)


def test_sweep_matches_pointwise_quadrature(rng):
    def phi(rows):
        return np.tanh(0.8 * rows[:, 0]) * np.cos(rows[:, 1])

    table = coefficient_sweep(phi, 2, 4, 12)
    count = sum(1 for _ in itertools.product(range(5), range(5))
                if sum(_) <= 4)
    assert len(table.entries) == count
    for ent in table.entries:
        direct = coeff_quadrature(phi, 2, ent.n, 12)
        assert ent.value == pytest.approx(direct, abs=1e-12)
    assert table.e_phi_sq == pytest.approx(second_moment_quadrature(phi, 2, 12), rel=1e-12)


def test_montecarlo_coefficient(rng):
    def phi(rows):
        return np.tanh(rows[:, 0] + 0.3 * rows[:, 1])

    # the degree-0 coefficient is the mean: resampling every coordinate,
    # over many 2^14-draw blocks, estimates it
    ref = coeff_quadrature(phi, 2, multi_index({}), 20)
    mean, se = conditional_mean_resampled(phi, 2, {}, 200_000, substream(4, "mc"))
    assert se > 0
    assert abs(mean - ref) < 4 * se
    again, _ = conditional_mean_resampled(phi, 2, {}, 200_000, substream(4, "mc"))
    assert again == mean
    with pytest.raises(ValidationError, match="samples >= 2"):
        conditional_mean_resampled(phi, 2, {}, 1, substream(4, "mc"))
    # fixed coordinates are integers: 1.5 was looked up as 1, a raw KeyError
    with pytest.raises(ValidationError, match="fixed coordinate must be an integer, got 1.5"):
        conditional_mean_resampled(phi, 3, {1.5: 0.3}, 100, substream(4, "mc"))
    pinned, _ = conditional_mean_resampled(phi, 2, {np.int64(0): 0.5, 1: -0.5}, 2, substream(4, "mc"))
    assert pinned == pytest.approx(math.tanh(0.5 - 0.15), abs=1e-15)


def test_semigroup_weights():
    n = multi_index({0: 2, 3: 1})
    assert semigroup_weight(n, 0.7, "continuous") == pytest.approx(math.exp(-3 * 0.7))
    assert semigroup_weight(n, 0.7, "discrete") == pytest.approx(math.exp(-2 * 0.7))
    assert semigroup_weight(n, 0.0, "continuous") == 1.0
    with pytest.raises(ValidationError):
        semigroup_weight(n, -0.1, "continuous")
    with pytest.raises(ValidationError):
        semigroup_weight(n, 0.5, "cauchy")


def test_weighted_sum_and_parseval():
    def phi(rows):
        hv = hermite_values(2, rows[:, 0])
        return 0.6 * hv[1] + 0.8 * hv[2]

    table = coefficient_sweep(phi, 1, 4, 10)
    want = 0.36 * math.exp(-0.5) + 0.64 * math.exp(-1.0)
    assert weighted_coefficient_sum(table, 0.5, "continuous") == pytest.approx(want, abs=1e-10)
    want_disc = (0.36 + 0.64) * math.exp(-0.5)
    assert weighted_coefficient_sum(table, 0.5, "discrete") == pytest.approx(want_disc, abs=1e-10)
    assert parseval_tail(table) == pytest.approx(0.0, abs=1e-10)


def test_parseval_tail_guards():
    ent = CoefficientEntry(n=multi_index({0: 1}), value=1.0)
    bad = CoefficientTable((ent,), 0.5)  # claims E[phi^2] < captured
    with pytest.raises(NumericalError):
        parseval_tail(bad)


def test_positive_tail_for_truncated_function():
    def phi(rows):
        return np.tanh(1.2 * rows[:, 0])

    table = coefficient_sweep(phi, 1, 3, 16)
    tail = parseval_tail(table)
    assert tail > 0


# ---------------------------------------------------------------------------
# sign criterion


def brute_force_forced(g, n, i, j):
    """Search all sign vectors for I_n(a) = -1, by the raw definition."""
    for bits in itertools.product((1, -1), repeat=g.n):
        val = bits[i] * bits[j]
        for eid, d in n.degrees:
            prod = 1
            for v in g.edges[eid]:
                prod *= bits[v]
            val *= prod ** d
        if val == -1:
            return True
    return False


def random_index(rng, g):
    degs = {}
    for eid in range(g.n_edges):
        d = int(rng.integers(0, 3))
        if d:
            degs[eid] = d
    return multi_index(degs)


def test_sign_criterion_matches_exhaustive(rng):
    forced_seen = unforced_seen = 0
    for _ in range(250):
        g = random_hypergraph(rng, n_max=7, e_max=5)
        n = random_index(rng, g)
        i = int(rng.integers(g.n))
        j = int(rng.integers(g.n))
        want = brute_force_forced(g, n, i, j)
        assert sign_criterion(g, n, i, j) is want
        if want:
            forced_seen += 1
        else:
            unforced_seen += 1
    assert forced_seen and unforced_seen


def test_remark_index_not_forced():
    g = hypergraph(4, [(0, 1), (0, 2), (1, 3)])
    n = multi_index({0: 1, 1: 2})
    assert sign_criterion(g, n, 0, 1) is False


def test_forced_zero_coefficients_vanish(rng):
    checked = 0
    while checked < 6:
        g = random_hypergraph(rng, n_max=6, e_max=4)
        i, j = 0, g.n - 1
        phi = disorder_functional(g, DisorderModel("identity"), 0.8, i, j)
        n = random_index(rng, g)
        if n.total_degree == 0 or n.total_degree > 4:
            continue
        if not sign_criterion(g, n, i, j):
            continue
        val = coeff_quadrature(phi, g.n_edges, n, 10)
        assert abs(val) < 1e-8
        checked += 1


def test_remark_coefficient_vanishes_without_being_forced():
    # h_2 integrates to zero against the Gaussian, so the (1,2,0) mode
    # dies although no sign flip forces it
    g = hypergraph(4, [(0, 1), (0, 2), (1, 3)])
    phi = disorder_functional(g, DisorderModel("identity"), 1.0, 0, 1)
    n = multi_index({0: 1, 1: 2})
    assert abs(coeff_quadrature(phi, 3, n, 12)) < 1e-12


# ---------------------------------------------------------------------------
# conditional resampling


def test_conditional_mean_fixing_everything():
    def phi(rows):
        return rows[:, 0] * 2.0 + rows[:, 1]

    mean, se = conditional_mean_resampled(phi, 2, {0: 1.5, 1: -0.5}, 100,
                                          substream(2, "cond"))
    assert mean == pytest.approx(2.5, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_conditional_mean_partial_pin():
    def phi(rows):
        return rows[:, 0] + rows[:, 1]

    mean, se = conditional_mean_resampled(phi, 2, {0: 2.0}, 50_000,
                                          substream(3, "cond2"))
    assert abs(mean - 2.0) < 4 * se
    with pytest.raises(ValidationError):
        conditional_mean_resampled(phi, 2, {5: 1.0}, 100, substream(3, "c3"))


# ---------------------------------------------------------------------------
# caps


def test_capacity_guards():
    def phi(rows):
        return np.zeros(rows.shape[0])

    with pytest.raises(CapacityError):
        coeff_quadrature(phi, 1, multi_index({0: 1}), 25)
    with pytest.raises(CapacityError):
        coeff_quadrature(phi, 7, multi_index({0: 1}), 4)
    with pytest.raises(CapacityError):
        coeff_quadrature(phi, 6, multi_index({0: 1}), 24)  # 24^6 nodes
    with pytest.raises(CapacityError):
        coefficient_sweep(phi, 1, 11, 10)
    with pytest.raises(ValidationError):
        coeff_quadrature(phi, 2, multi_index({3: 1}), 8)


def test_multi_index_edge_range_is_one_rule():
    # the quadrature, the sign criterion and the vertex support share one
    # check and one message
    g = hypergraph(4, [(0, 1), (1, 2), (2, 3)])
    for bad in (multi_index({3: 1}), multi_index({0: 2, 5: 1})):
        calls = [lambda: coeff_quadrature(lambda rows: rows[:, 0], g.n_edges, bad, 4),
                 lambda: sign_criterion(g, bad, 0, 1), lambda: vertex_support(g, bad)]
        for call in calls:
            with pytest.raises(ValidationError, match=r"multi-index edge id \d outside \[0, 3\)"):
                call()
    for v in (4, -1, 1.0):
        with pytest.raises(ValidationError):
            sign_criterion(g, multi_index({0: 1}), v, 1)


def test_adaptive_gaussian_mean():
    assert adaptive_gaussian_mean(lambda x: x * x) == pytest.approx(1.0, abs=1e-10)
    assert adaptive_gaussian_mean(lambda x: x ** 4) == pytest.approx(3.0, abs=1e-9)
    assert adaptive_gaussian_mean(lambda x: math.tanh(2 * x)) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# generated polynomial recovery


@given(st.lists(st.floats(-2, 2, allow_nan=False, width=32), min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_sweep_recovers_random_polynomials(cs):
    # total degree <= 2 over two axes: modes 00,10,01,20,11,02
    modes = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def phi(rows):
        hv0 = hermite_values(2, rows[:, 0])
        hv1 = hermite_values(2, rows[:, 1])
        out = np.zeros(rows.shape[0])
        for c, (d0, d1) in zip(cs, modes):
            out += c * hv0[d0] * hv1[d1]
        return out

    table = coefficient_sweep(phi, 2, 2, 6)
    values = {ent.n: ent.value for ent in table.entries}
    for c, (d0, d1) in zip(cs, modes):
        got = values[multi_index({0: d0, 1: d1})]
        assert got == pytest.approx(c, abs=1e-9)
