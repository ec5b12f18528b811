"""Marginal and joint distribution layer, cross-checked against scipy."""

import math
from itertools import combinations

import numpy as np
import pytest
import scipy.stats as st

from lifemoments import (
    CapacityError,
    ExplicitFinitePMF,
    FinitePMF,
    Geometric,
    IndependentMarginals,
    MomentRequest,
    NegBin,
    Poisson,
    ValidationError,
    enumerate_moment,
    exact_moment_finite,
    marginal_survival,
    multinomial_pmf,
    rect_prob,
)
from lifemoments import distributions
from conftest import product_explicit, random_explicit, random_independent, random_probs


# ---------------------------------------------------------------------------
# marginals vs scipy
# ---------------------------------------------------------------------------

SCIPY_PAIRS = [
    (Poisson(0.7), st.poisson(0.7)),
    (Poisson(25.0), st.poisson(25.0)),
    (NegBin(2, 0.25), st.nbinom(2, 0.25)),
    (NegBin(5, 0.85), st.nbinom(5, 0.85)),
    (NegBin(3.5, 0.4), st.nbinom(3.5, 0.4)),
    # ge(1-pi) on {0,1,...} is scipy's geom shifted down by one
    (Geometric(0.3), st.geom(0.3, loc=-1)),
    (Geometric(0.999), st.geom(0.999, loc=-1)),
]


@pytest.mark.parametrize("dist,ref", SCIPY_PAIRS, ids=lambda d: repr(d))
def test_pmf_cdf_match_scipy(dist, ref):
    xs = np.arange(0, 60)
    np.testing.assert_allclose(dist.pmf_array(59), ref.pmf(xs), rtol=1e-10, atol=1e-300)
    np.testing.assert_allclose(
        [dist.cdf(int(x)) for x in xs], ref.cdf(xs), rtol=1e-10, atol=1e-300
    )
    np.testing.assert_allclose(
        [dist.survival(int(x)) for x in xs[:20]], ref.sf(xs[:20]), rtol=1e-9, atol=1e-15
    )
    assert dist.pmf(-1) == 0.0
    assert dist.cdf(-1) == 0.0
    assert dist.survival(-1) == 1.0


@pytest.mark.parametrize("dist,ref", SCIPY_PAIRS, ids=lambda d: repr(d))
def test_quantile_matches_scipy_ppf(dist, ref):
    for q in (0.01, 0.3, 0.5, 0.9, 0.999, 1 - 1e-9, 1 - 1e-13):
        got = dist.quantile(q)
        want = int(ref.ppf(q))
        # the certified direction always holds
        assert dist.cdf(got) >= q
        if dist.cdf(want) - q < 1e-12:
            # q sits exactly on a cdf jump (e.g. geometric F(0) = pi); the
            # backward-sum quantile adds a remainder bound on that side and
            # may certify one step later than scipy's forward cdf
            assert got in (want, want + 1), (q, got, want)
        else:
            assert got == want, (q, got, want)
            assert dist.cdf(got - 1) < q


def test_quantile_rejects_degenerate_levels():
    with pytest.raises(ValidationError):
        Poisson(1.0).quantile(0.0)
    with pytest.raises(ValidationError):
        Poisson(1.0).quantile(1.0)


@pytest.mark.parametrize(
    "dist",
    [Poisson(1.0), Poisson(50.0), NegBin(2, 0.05), NegBin(5, 0.75), Geometric(0.5)],
    ids=repr,
)
@pytest.mark.parametrize("p", [1, 2, 3])
def test_tail_moment_upper_bounds_brute_sum(dist, p):
    """tail_moment(p, m) = sum_{x > m+1} x^p pmf(x), never below the true tail."""
    hi = 3000  # far past any noticeable mass for these parameters
    xs = np.arange(1, hi, dtype=float)
    terms = xs**p * dist.pmf_array(hi - 1)[1:]
    for m in (-1, 0, 3, 17, 60):
        brute = float(terms[m + 1 :].sum())
        got = dist.tail_moment(p, m)
        # never below the true tail beyond summation roundoff itself
        assert got >= brute * (1.0 - 1e-12) - 1e-250
        assert got == pytest.approx(brute, rel=1e-8, abs=1e-250)


def test_geometric_closed_forms():
    g = Geometric(0.25)
    assert g.survival(4) == pytest.approx(0.75**5, rel=1e-15)
    assert g.mean() == pytest.approx(3.0)
    assert g.support_max() is None
    degenerate = Geometric(1.0)
    assert degenerate.support_max() == 0
    assert degenerate.pmf(0) == 1.0
    assert degenerate.pmf(1) == 0.0


def test_finite_pmf_basics():
    f = FinitePMF([0.2, 0.0, 0.5, 0.3])
    assert f.support_max() == 3
    assert f.mean() == pytest.approx(0.2 * 0 + 0.5 * 2 + 0.3 * 3)
    assert f.cdf(1) == pytest.approx(0.2)
    assert f.cdf(10) == 1.0
    assert f.quantile(0.2) == 0
    assert f.quantile(0.21) == 2
    assert f.tail_moment(2, 0) == pytest.approx(4 * 0.5 + 9 * 0.3)
    assert f.tail_moment(2, 2) == 0.0


@pytest.mark.parametrize(
    "bad",
    [lambda: Poisson(0.0), lambda: Poisson(-1), lambda: NegBin(0, 0.5),
     lambda: NegBin(2, 1.0), lambda: NegBin(2, 0.0), lambda: Geometric(0.0),
     lambda: Geometric(1.5), lambda: FinitePMF([0.5, 0.6]),
     lambda: FinitePMF([-0.1, 1.1]), lambda: FinitePMF([])],
)
def test_marginal_validation(bad):
    with pytest.raises(ValidationError):
        bad()


# ---------------------------------------------------------------------------
# joint models and the rectangle query
# ---------------------------------------------------------------------------

def test_explicit_pmf_validation():
    with pytest.raises(ValidationError):
        ExplicitFinitePMF([[0, 0], [0, 0]], [0.5, 0.5])  # duplicate point
    with pytest.raises(ValidationError):
        ExplicitFinitePMF([[0, 1]], [0.9])  # mass missing
    with pytest.raises(ValidationError):
        ExplicitFinitePMF([[0, -1]], [1.0])
    with pytest.raises(ValidationError):
        ExplicitFinitePMF([[0.5, 0]], [1.0])  # non-integer support
    with pytest.raises(ValidationError):
        IndependentMarginals([])
    with pytest.raises(ValidationError):
        IndependentMarginals([Poisson(1.0), "not a dist"])


def test_rect_prob_matches_enumeration():
    rng = np.random.default_rng(7)
    model = random_explicit(rng, n=3, m_max=2)
    for low, up, m in [((1,), (2,), 1), ((1, 3), (), 0), ((), (1, 2, 3), 1), ((2,), (1, 3), 2)]:
        mask = np.ones(model.points.shape[0], dtype=bool)
        for i in low:
            mask &= model.points[:, i - 1] <= m
        for j in up:
            mask &= model.points[:, j - 1] > m
        want = float(model.probs[mask].sum())
        assert rect_prob(model, low, up, m) == pytest.approx(want, abs=1e-15)


def test_rect_prob_partition_sums_to_one():
    """Splitting {1..n} into every (low, up) pair partitions the whole space."""
    rng = np.random.default_rng(11)
    for model in (random_explicit(rng, 3), random_independent(rng, 4)):
        idx = range(1, model.n + 1)
        for m in (0, 1, 2):
            total = math.fsum(
                rect_prob(model, S, tuple(i for i in idx if i not in S), m)
                for k in range(model.n + 1)
                for S in combinations(idx, k)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def test_rect_prob_edge_cases():
    model = random_explicit(np.random.default_rng(3), 2)
    assert rect_prob(model, (), (), 5) == 1.0
    assert rect_prob(model, (1, 2), (), -1) == 0.0  # "<= -1" is impossible
    assert rect_prob(model, (), (1, 2), -1) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        rect_prob(model, (1,), (1,), 0)  # overlapping index sets
    with pytest.raises(ValidationError):
        rect_prob(model, (0,), (), 0)
    with pytest.raises(ValidationError):
        rect_prob(model, (1,), (), -2)


def test_independent_vs_unrolled_product():
    rng = np.random.default_rng(23)
    model = random_independent(rng, 3)
    flat = product_explicit(model)
    for m in range(-1, 5):
        for low, up in [((1,), (3,)), ((2, 3), ()), ((), (1, 2))]:
            assert rect_prob(model, low, up, m) == pytest.approx(
                rect_prob(flat, low, up, m), abs=1e-12
            )
    for j in (1, 2, 3):
        assert marginal_survival(model, j, 2) == pytest.approx(
            marginal_survival(flat, j, 2), abs=1e-12
        )


# ---------------------------------------------------------------------------
# multinomial builder
# ---------------------------------------------------------------------------

def test_multinomial_matches_scipy():
    probs = [0.2, 0.3, 0.5]
    model = multinomial_pmf(4, probs)
    ref = st.multinomial(4, probs)
    assert model.points.shape == (math.comb(4 + 2, 2), 3)
    np.testing.assert_allclose(model.probs, ref.pmf(model.points), rtol=1e-10)
    assert model.points.sum(axis=1).min() == 4
    assert model.points.sum(axis=1).max() == 4


def test_multinomial_exchangeability_detection():
    assert multinomial_pmf(3, [0.25] * 4).exchangeable
    assert not multinomial_pmf(3, [0.2, 0.3, 0.5]).exchangeable
    # explicit declaration wins over detection
    assert not multinomial_pmf(3, [0.25] * 4, exchangeable=False).exchangeable


def test_multinomial_counts_table_rows_sum_to_one():
    model = multinomial_pmf(5, [0.1, 0.4, 0.5])
    table = model.counts_table()
    np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)
    # m = -1 row: no coordinate can be <= -1
    assert table[0, 0] == 1.0
    # last row: every coordinate is <= support_max
    assert table[-1, -1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "trials, probs",
    [
        (5, [0.1, 0.4, 0.5]),
        (7, [0.03, 0.02, 0.9, 0.01, 0.04]),
        # 128 trials or more: the support is listed with int16 counts
        (150, [0.2, 0.3, 0.5]),
    ],
)
def test_multinomial_counts_table_matches_enumeration(trials, probs):
    model = multinomial_pmf(trials, probs)
    table = model.counts_table()
    reference = ExplicitFinitePMF(model.points, model.probs).counts_table()
    assert model.support_max() == trials
    np.testing.assert_allclose(table, reference, rtol=0.0, atol=1e-12)


def test_multinomial_moments_without_enumeration(monkeypatch):
    # C(41, 11) ~ 2.3e9 count vectors: listing them would need ~28 GB
    def refuse(*_args):
        raise AssertionError("support points were enumerated")

    monkeypatch.setattr(distributions, "_compositions", refuse)
    trials, probs = 30, [1 / 12] * 12
    model = multinomial_pmf(trials, probs)
    assert model.support_size() == math.comb(41, 11)
    sums = {1: 0.0, 2: 0.0}
    for r in range(1, 13):
        for p in (1, 2):
            sums[p] += exact_moment_finite(model, MomentRequest(r=r, n=12, p=p)).value
    # the order statistics are a permutation of the cells
    second = sum(trials * q * (1 - q) + trials**2 * q**2 for q in probs)
    assert sums[1] == pytest.approx(trials, rel=1e-9)
    assert sums[2] == pytest.approx(second, rel=1e-9)
    with pytest.raises(CapacityError):
        enumerate_moment(model, 1, 1)


def test_multinomial_validation():
    with pytest.raises(ValidationError):
        multinomial_pmf(0, [0.5, 0.5])
    with pytest.raises(ValidationError):
        multinomial_pmf(3, [0.5, 0.0, 0.5])
    with pytest.raises(ValidationError):
        multinomial_pmf(3, [0.5, 0.4])


def test_random_probs_helper_is_normalized():
    w = random_probs(np.random.default_rng(0), 11)
    assert w.min() > 0.0
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
