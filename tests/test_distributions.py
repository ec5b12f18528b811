"""Marginal and joint distribution layer, cross-checked against scipy."""

import math
import time
from collections import Counter
from fractions import Fraction
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
    JointModel,
    MarginalDist,
    MomentRequest,
    MvgModel,
    MvgParams,
    NegBin,
    Poisson,
    SystemStructure,
    ValidationError,
    approx_moment,
    enumerate_moment,
    exact_moment_finite,
    exchangeable_system_moment,
    k_out_of_n_structure,
    marginal_survival,
    maximal_signature,
    minimal_signature,
    multinomial_pmf,
    mvg_joint_survival,
    mvg_orderstat_survival,
    plan_negbin,
    rect_prob,
    survival_orderstat,
    system_moment_exact,
    system_survival,
)
from lifemoments import distributions, mvg
from lifemoments.orderstats import generic_truncation_index, plan_for
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


@pytest.mark.parametrize(
    "dist",
    [Poisson(0.5), Poisson(3.0), Poisson(47.3), Poisson(500.0),
     Geometric(1.0), Geometric(0.999), Geometric(0.3), Geometric(1e-3)],
    ids=repr,
)
def test_logpmf_array_equals_the_scalar_formula(dist):
    """Poisson and geometric arrays repeat the scalar float operations exactly."""
    want = [dist.logpmf(x) for x in range(3001)]
    assert np.array_equal(dist.logpmf_array(3000), want)
    assert np.array_equal(dist.pmf_array(3000), np.exp(want))
    assert dist.logpmf_array(-1).shape == (0,)


def _negbin_exact_pmf(R: int, p: float, x_max: int) -> np.ndarray:
    """C(x+R-1, x) (1-p)^x p^R for x = 0..x_max in integers, rounded once to float."""
    a, b = Fraction(p).as_integer_ratio()  # p = a / b, b a power of two
    out, binom = [], 1
    for x in range(x_max + 1):
        if x:
            binom = binom * (R + x - 1) // x
        out.append(binom * (b - a) ** x * a**R / b ** (x + R))  # int / int rounds correctly
    return np.array(out)


@pytest.mark.parametrize("R", [1, 2, 5])
@pytest.mark.parametrize("p", [0.05, 0.25, 0.5])
def test_negbin_pmf_array_matches_exact_values(R, p):
    """The running-sum log binomial is within 5e-13 of the exact pmf and
    never worse than the per-x lgamma formula, which cancels."""
    dist, exact = NegBin(R, p), _negbin_exact_pmf(R, p, 1000)
    array_err = np.max(np.abs(dist.pmf_array(1000) / exact - 1.0))
    scalar_err = np.max(np.abs(np.exp([dist.logpmf(x) for x in range(1001)]) / exact - 1.0))
    assert array_err <= 5e-13
    assert array_err <= scalar_err


def _tail_moment_per_x(dist: MarginalDist, p: int, m: int) -> float:
    """tail_moment's cutoff and rest bound, with per-x terms summed by fsum."""
    lo = max(m + 2, 1)
    first = math.exp(dist.logpmf(lo) + p * math.log(lo))
    x_hi, rho = dist._tail_cutoff(max(first, 1e-300) * distributions._TAIL_SLACK, p)
    x_hi = max(x_hi, lo)
    terms = [math.exp(dist.logpmf(x) + p * math.log(x)) for x in range(lo, x_hi + 1)]
    return math.fsum(terms) + terms[-1] * rho / (1.0 - rho)


@pytest.mark.parametrize(
    "dist",
    [Poisson(0.7), Poisson(47.3), NegBin(2, 0.05), NegBin(3.5, 0.4), Geometric(0.3)],
    ids=repr,
)
def test_tail_moment_matches_per_x_fsum(dist):
    for p in (1, 2, 3):
        for m in (-1, 0, 5, 60):
            want = _tail_moment_per_x(dist, p, m)
            assert dist.tail_moment(p, m) == pytest.approx(want, rel=1e-13, abs=1e-300)


def test_negbin_cell_makes_few_scalar_logpmf_calls(monkeypatch):
    """One criterion-3 cell reads the pmf as arrays: the scalar log pmf is
    left to the quantile's O(log M0) cutoff search."""
    calls = []
    logpmf = NegBin.logpmf
    monkeypatch.setattr(NegBin, "logpmf", lambda d, x: calls.append(x) or logpmf(d, x))
    ps = [0.1 * i - 0.05 for i in range(1, 11)]
    req = MomentRequest(r=10, n=10, p=2, d=0.0005)
    plan = plan_negbin(2, ps, req)
    approx_moment(IndependentMarginals([NegBin(2, q) for q in ps]), req, plan)
    assert plan.M0 == 510
    assert 0 < len(calls) < 100


KERNEL_DISTS = [Poisson(0.7), Poisson(47.3), NegBin(0.3, 0.05), NegBin(3.5, 0.4), Geometric(0.3), Geometric(0.97)]


@pytest.mark.parametrize("dist", KERNEL_DISTS, ids=repr)
def test_tail_table_search_matches_per_probe_tail_moments(dist):
    """The generic planner's one tail table gives the M0 of the search over
    per-probe tail moments, and of one over per-x fsums; the tail left at
    M0 is within the bound.  A point mass at 0 beside ``dist`` sends
    `plan_for` to its generic branch with j0 = 1."""
    model = IndependentMarginals([dist, FinitePMF([1.0])])
    for p in (1, 2, 3):
        for bound in (1e-2, 1e-6, 1e-10, 1e-13):
            M0 = plan_for(model, p, bound).M0
            assert M0 == generic_truncation_index(lambda m: dist.tail_moment(p, m), p, bound)
            assert M0 == generic_truncation_index(lambda m: _tail_moment_per_x(dist, p, m), p, bound)
            assert _tail_moment_per_x(dist, p, M0) <= bound


def test_generic_plan_makes_one_tail_cutoff_and_no_tail_moment_call(monkeypatch):
    """One generic plan builds one tail table and reads every probe from it."""
    calls = Counter()
    for name in ("_tail_cutoff", "tail_moment"):
        method = getattr(MarginalDist, name)
        monkeypatch.setattr(
            MarginalDist, name, lambda d, *args, name=name, method=method: calls.update([name]) or method(d, *args)
        )
    plan = plan_for(IndependentMarginals([Poisson(3.0), NegBin(1, 0.3)]), 2, 1e-8)
    assert (plan.M0, plan.j0) == (19, 1)
    assert calls == Counter(_tail_cutoff=1)


def test_finite_marginal_plans_as_j0():
    """A finite marginal's tail table is its whole support, with no rest."""
    model = IndependentMarginals([FinitePMF([0] * 6 + [0.5, 0.5]), Poisson(1.0), Geometric(0.5)])
    plan = plan_for(model, 1, 1e-6)
    assert (plan.M0, plan.j0) == (6, 1)
    assert FinitePMF([0.2, 0.3, 0.5]).tail_moment(2, 0) == 2.0
    assert FinitePMF([0.2, 0.3, 0.5]).tail_moment(1, 1) == 0.0


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


def test_finite_pmf_quantile_stays_within_the_support():
    # the probabilities may sum to 1 - 1e-12, leaving the cdf below q
    f = FinitePMF([0.5, 0.5 - 1e-13])
    assert f.quantile(1 - 1e-14) == f.support_max() == 1
    assert FinitePMF([0.5, 0.5 - 1e-13, 0.0]).quantile(1 - 1e-14) == 1


def test_finite_pmf_tail_moment_below_minus_one_is_the_moment():
    # as for every marginal: any m <= -2 leaves the whole sum over x >= 1
    f = FinitePMF([0.2, 0.0, 0.5, 0.3])
    for m in (-2, -3, -50):
        assert f.tail_moment(1, m) == f.tail_moment(1, -1) == pytest.approx(f.mean())
        assert Poisson(2.0).tail_moment(1, m) == Poisson(2.0).tail_moment(1, -1)


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


@pytest.mark.parametrize("make", [
    lambda: FinitePMF([math.nan, 1.0]),
    lambda: ExplicitFinitePMF([[0], [1]], [math.nan, 1.0]),
    lambda: multinomial_pmf(3, [math.nan, 1.0]),
], ids=["finite_pmf", "explicit", "multinomial"])
def test_nan_probabilities_are_refused(make):
    # NaN passes both "< 0" and "|sum - 1| > tol"; exact moments then read nan
    with pytest.raises(ValidationError, match="non-negative|positive"):
        make()


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


def test_explicit_pmf_refuses_duplicates_by_row_key():
    # rows that differ only in their last coordinate are distinct points
    ok = ExplicitFinitePMF([[2, 5, 0], [2, 5, 1], [0, 0, 3]], [0.2, 0.3, 0.5])
    assert ok.support_max() == 5
    big = 2**40  # three such columns overflow the int64 key range
    for dtype, hi in ((np.int64, 9), (np.int8, 100), (np.int64, big)):
        rows = np.array([[hi, 0, 1], [0, hi, 1], [hi, 0, 0], [hi, hi, hi]], dtype=dtype)
        model = ExplicitFinitePMF(rows, [0.25] * 4)
        assert model.support_max() == hi
        with pytest.raises(ValidationError, match="duplicate"):
            ExplicitFinitePMF(np.vstack([rows, rows[2]]), [0.2] * 5)
    # a point repeated far apart in a larger random support
    rng = np.random.default_rng(3)
    pts = np.unique(rng.integers(0, 50, size=(4000, 6)), axis=0)
    pts = np.vstack([pts, pts[len(pts) // 3]])
    with pytest.raises(ValidationError, match="duplicate"):
        ExplicitFinitePMF(pts, np.full(len(pts), 1.0 / len(pts)))


@pytest.mark.parametrize(
    "call",
    [
        lambda m: survival_orderstat(m, 1, 3, 1.5),
        lambda m: survival_orderstat(m, 2, 3, 2.0),
        lambda m: system_survival(m, k_out_of_n_structure(3, 2), 1.5),
        lambda m: rect_prob(m, [1], [], 1.5),
        lambda m: rect_prob(m, [1], [], -0.5),
        lambda m: marginal_survival(m, 1, 1.7),
        lambda m: marginal_survival(m, 1, -0.5),
    ],
    ids=["orderstat", "orderstat_float_int", "system", "rect", "rect_negative", "marginal", "marginal_negative"],
)
def test_thresholds_are_refused_not_truncated(call):
    # these raised numpy's TypeError, or returned 1.0 for a negative float
    with pytest.raises(ValidationError, match="not an integer"):
        call(IndependentMarginals([Poisson(1.0)] * 3))


@pytest.mark.parametrize(
    "call",
    [
        lambda p: mvg_joint_survival(p, [1.5, 0]),
        lambda p: mvg_joint_survival(p, [1, 0.0]),
        lambda p: mvg_orderstat_survival(p, 1, 2, 1.5),
        lambda p: mvg_orderstat_survival(p, 1, 2, [0, 2.5]),
    ],
    ids=["joint", "joint_float_int", "orderstat", "orderstat_list"],
)
def test_mvg_thresholds_are_refused_not_truncated(call):
    # int() read 1.5 as 1 and 2.5 as 2
    with pytest.raises(ValidationError, match="not an integer"):
        call(MvgParams(2, theta={(1,): 0.5, (2,): 0.6, (1, 2): 0.9}))


def test_integer_thresholds_of_any_integer_type_are_read():
    model = IndependentMarginals([Poisson(1.0)] * 3)
    assert survival_orderstat(model, 1, 3, np.int64(2)) == survival_orderstat(model, 1, 3, 2)
    assert rect_prob(model, [1], [2], np.int32(1)) == rect_prob(model, [1], [2], 1)
    params = MvgParams(2, theta={(1,): 0.5, (2,): 0.6, (1, 2): 0.9})
    assert mvg_joint_survival(params, np.array([1, 0])) == mvg_joint_survival(params, [1, 0])


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


def test_single_threshold_reads_refuse_thresholds_below_minus_one():
    # rect_prob's documented floor; these answered 1.0 at m = -5
    model = IndependentMarginals([Poisson(1.0), Geometric(0.5)])
    params = MvgParams(2, exchangeable_levels=[0.9, 0.95])
    reads = [
        lambda m: marginal_survival(model, 1, m),
        lambda m: survival_orderstat(model, 1, 2, m),
        lambda m: survival_orderstat(MvgModel(params), 2, 2, m),
        lambda m: mvg_orderstat_survival(params, 1, 2, m),
        lambda m: mvg_orderstat_survival(params, 1, 2, [m, 3])[0],
    ]
    for read in reads:
        assert read(-1) == 1.0
        with pytest.raises(ValidationError, match="threshold m=-2 must be >= -1"):
            read(-2)


def test_index_sets_that_are_not_iterable_are_refused():
    # iterating an int leaked a raw TypeError
    model = IndependentMarginals([Poisson(1.0)] * 3)
    refused = [
        lambda: rect_prob(model, 1, [], 2),
        lambda: rect_prob(model, [], 3, 2),
        lambda: SystemStructure(3, path_sets=[1, 2, 3]),
        lambda: SystemStructure(3, cut_sets=[[1, 2], 3]),
        lambda: MvgParams(3, theta={5: 0.5}),
        lambda: mvg.mvg_min_param(MvgParams(2, exchangeable_levels=[0.5, 0.9]), 1),
    ]
    for make in refused:
        with pytest.raises(ValidationError, match="is not a set of integers"):
            make()
    with pytest.raises(ValidationError, match="is not a list of index sets"):
        SystemStructure(3, path_sets=5)


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
# per-kind kernels against the rectangle-series defaults of JointModel
# ---------------------------------------------------------------------------

KERNEL_MODELS = {
    "explicit": lambda: random_explicit(np.random.default_rng(31), 3, m_max=3),
    "multinomial": lambda: multinomial_pmf(6, [0.2, 0.3, 0.5]),
    "multinomial_exchangeable": lambda: multinomial_pmf(5, [0.25] * 4),
    "independent": lambda: IndependentMarginals([Poisson(1.5), NegBin(2, 0.4), Geometric(0.3)]),
    "independent_exchangeable": lambda: IndependentMarginals([Poisson(2.0)] * 4, exchangeable=True),
    "mvg": lambda: MvgModel(
        MvgParams(3, theta={(1,): 0.6, (2,): 0.7, (3,): 0.5, (1, 2): 0.95, (1, 2, 3): 0.9})
    ),
    "mvg_exchangeable": lambda: MvgModel(MvgParams(4, exchangeable_levels=[0.8, 0.95, 1.0, 0.97])),
}


def _masked_rect(points, probs, low, up, m):
    mask = np.ones(points.shape[0], dtype=bool)
    for i in low:
        mask &= points[:, i - 1] <= m
    for j in up:
        mask &= points[:, j - 1] > m
    return math.fsum(probs[mask])


def _listed(model, m_max):
    """Support points and weights of an explicit, multinomial or independent
    model.  Each independent marginal lumps its mass above m_max at m_max + 1,
    which keeps every event at thresholds <= m_max; then the product law is
    listed."""
    if isinstance(model, IndependentMarginals):
        lumped = IndependentMarginals(
            [FinitePMF(np.append(d.pmf_array(m_max), d.survival(m_max))) for d in model.marginals]
        )
        model = product_explicit(lumped)
    return model.points, model.probs


def _rect_reference(model, low, up, m_max):
    """P(X_low <= m, X_up > m), m = 0..m_max, by a route other than rect_series."""
    if isinstance(model, MvgModel):
        # inclusion-exclusion of the <= side over the joint survival function
        def joint(K, m):
            return mvg_joint_survival(model.params, [m if i in K else -1 for i in range(1, model.n + 1)])

        return np.array([
            math.fsum(
                (-1) ** k * joint(up | frozenset(B), m)
                for k in range(len(low) + 1)
                for B in combinations(sorted(low), k)
            )
            for m in range(m_max + 1)
        ])
    points, probs = _listed(model, m_max)
    return np.array([_masked_rect(points, probs, low, up, m) for m in range(m_max + 1)])


def _class_counts_from_rects(model, m_max):
    """P(exactly s coordinates <= m), m = 0..m_max, each class split over its
    index sets, one rectangle series each; under exchangeability one set per
    class stands for all C(n, s)."""
    n, idx = model.n, frozenset(range(1, model.n + 1))
    out = np.empty((m_max + 1, n + 1))
    for s in range(n + 1):
        if model.exchangeable:
            low = frozenset(range(1, s + 1))
            out[:, s] = math.comb(n, s) * model.rect_series(low, idx - low, m_max)
        else:
            parts = [model.rect_series(frozenset(S), idx.difference(S), m_max)
                     for S in combinations(range(1, n + 1), s)]
            out[:, s] = [math.fsum(col) for col in np.transpose(parts)]
    return out


@pytest.mark.parametrize("kind", sorted(KERNEL_MODELS))
def test_kernels_match_rectangle_defaults(kind):
    model = KERNEL_MODELS[kind]()
    n, m_max = model.n, 6
    idx = range(1, n + 1)
    subsets = [frozenset(K) for k in range(1, n + 1) for K in combinations(idx, k)]
    np.testing.assert_allclose(
        model.class_counts(m_max), _class_counts_from_rects(model, m_max), rtol=0.0, atol=1e-12
    )
    for r in idx:
        np.testing.assert_allclose(
            model.orderstat_survival_series(r, m_max),
            JointModel.orderstat_survival_series(model, r, m_max),
            rtol=0.0,
            atol=1e-12,
        )
    # every (low, up) pair, against a reference that does not read rect_series
    pairs = []
    for low in [frozenset()] + subsets:
        rest = [i for i in idx if i not in low]
        pairs += [(low, frozenset(U)) for k in range(len(rest) + 1) for U in combinations(rest, k)]
    none = frozenset()
    for low, up in pairs:
        if low or up:
            np.testing.assert_allclose(
                model.rect_series(low, up, m_max),
                _rect_reference(model, low, up, m_max),
                rtol=0.0,
                atol=1e-12,
            )
    # the rectangle query is the inclusion-exclusion of its "<= m" side over
    # the model's own subset-minimum survivals
    min_surv = {K: model.rect_series(none, K, m_max) for K in subsets}
    for low, up in pairs:
        for m in range(m_max + 1):
            want = math.fsum(
                (-1) ** len(B) * (min_surv[up | frozenset(B)][m] if up or B else 1.0)
                for k in range(len(low) + 1)
                for B in combinations(sorted(low), k)
            )
            assert rect_prob(model, low, up, m) == pytest.approx(want, abs=1e-12)
    # m = -1: every "<= m" condition is impossible, every "> m" one certain
    for low, up in pairs:
        assert rect_prob(model, low, up, -1) == (0.0 if low else 1.0)
    # thresholds past the support of a finite model (int8 points for a
    # multinomial with few trials)
    if model.support_max() is not None:
        for m in (128, 301):
            for low, up in pairs:
                want = _masked_rect(model.points, model.probs, low, up, m)
                assert rect_prob(model, low, up, m) == pytest.approx(want, abs=1e-12)


MIXED_MARK_MODELS = {
    "explicit": lambda: random_explicit(np.random.default_rng(41), 4, m_max=4),
    "multinomial": lambda: multinomial_pmf(7, [0.1, 0.2, 0.3, 0.4]),
    "multinomial_exchangeable": lambda: multinomial_pmf(5, [0.25] * 4),
    "independent": lambda: IndependentMarginals(
        [Poisson(1.5), NegBin(2, 0.4), Geometric(0.3), FinitePMF([0.2, 0.5, 0.3])]
    ),
    "independent_exchangeable": lambda: IndependentMarginals([Poisson(2.0)] * 4, exchangeable=True),
    "mvg": lambda: MvgModel(
        MvgParams(4, theta={(1,): 0.6, (2,): 0.7, (3,): 0.5, (4,): 0.8, (1, 2): 0.95, (2, 3, 4): 0.9})
    ),
    "mvg_exchangeable": lambda: MvgModel(MvgParams(4, exchangeable_levels=[0.8, 0.95, 1.0, 0.97])),
}


@pytest.mark.parametrize("kind", sorted(MIXED_MARK_MODELS))
def test_counts_with_mixed_marks(kind):
    """P(X_1 <= m, X_4 > m, exactly s of X_2, X_3 <= m) on every kind; the
    marks come in no particular coordinate order."""
    model = MIXED_MARK_MODELS[kind]()
    marks = {4: "up", 2: "count", 1: "low", 3: "count"}
    low, up = frozenset({1}), frozenset({4})
    m_max = 6
    got = model.counts(marks, m_max)
    assert got.shape == (m_max + 1, 3)
    if isinstance(model, MvgModel):
        want = np.column_stack([
            sum(model.rect_series(low.union(S), up.union({2, 3}.difference(S)), m_max)
                for S in combinations((2, 3), s))
            for s in range(3)
        ])
    else:
        points, probs = _listed(model, m_max)
        want = np.zeros((m_max + 1, 3))
        for m in range(m_max + 1):
            inside = (points[:, 0] <= m) & (points[:, 3] > m)
            below = (points[:, [1, 2]] <= m).sum(axis=1)
            want[m] = [math.fsum(probs[inside & (below == s)]) for s in range(3)]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(got.sum(axis=1), model.rect_series(low, up, m_max), rtol=0.0, atol=1e-12)
    if model.support_max() is not None:  # rows past a finite support repeat its end
        end = model.support_max()
        past = model.counts(marks, end + 5)
        assert np.array_equal(past[: m_max + 1], got)
        assert np.all(past[end:] == past[end])


def test_mvg_class_counts_read_one_lattice(monkeypatch):
    """A general MVG's class counts build the theta(K) lattice once per
    query, whatever the number of thresholds and of row blocks, and never
    ask for one subset's parameter."""
    model = KERNEL_MODELS["mvg"]()
    builds = []
    lattice = distributions._lattice
    monkeypatch.setattr(distributions, "_lattice", lambda *a: builds.append(a) or lattice(*a))

    def refuse(params, subset):
        raise AssertionError(f"mvg_min_param called for {sorted(subset)}")

    monkeypatch.setattr(distributions, "mvg_min_param", refuse)
    monkeypatch.setattr(mvg, "mvg_min_param", refuse)
    every = dict.fromkeys(range(1, model.n + 1), "count")
    for m_max in (0, 5, 40, 3 * (distributions._LATTICE_BLOCK >> model.n)):
        builds.clear()
        got = model.counts(every, m_max)
        assert len(builds) == 1
        assert got.shape == (m_max + 1, model.n + 1)
    assert np.array_equal(got[:41], model.counts(every, 40))


def _random_general_mvg(rng: np.random.Generator, n: int) -> MvgParams:
    """Singleton shocks, n random larger ones and one shock with theta 0."""
    theta = {frozenset([i]): float(rng.uniform(0.6, 0.95)) for i in range(1, n + 1)}
    for _ in range(n):
        shock = rng.choice(np.arange(1, n + 1), size=int(rng.integers(2, n + 1)), replace=False)
        theta[frozenset(int(i) for i in shock)] = float(rng.uniform(0.85, 0.99))
    theta[frozenset([2, n])] = 0.0
    return MvgParams(n, theta=theta)


def _marked_reference(params: MvgParams, marks: dict, m: int) -> list[float]:
    """Row m of ``counts`` by inclusion-exclusion over ``mvg_joint_survival``:
    class s sums over which s counted coordinates are low, and each "<= m"
    side expands over the subsets of it that lie above m."""
    low, up, counted = ([i for i, rule in marks.items() if rule == r] for r in ("low", "up", "count"))

    def above(S):
        return mvg_joint_survival(params, [m if i in S else -1 for i in range(1, params.n + 1)])

    row = []
    for s in range(len(counted) + 1):
        terms = []
        for J in combinations(counted, s):
            below, high = low + list(J), set(up) | (set(counted) - set(J))
            terms += [(-1) ** k * above(high | set(T))
                      for k in range(len(below) + 1) for T in combinations(below, k)]
        row.append(math.fsum(terms))
    return row


@pytest.mark.parametrize("seed", range(4))
def test_mvg_counts_match_joint_survival_inclusion_exclusion(seed):
    """Random marks in random order on a general model with a zero shock and
    an exchangeable one with levels of 1."""
    rng = np.random.default_rng(seed)
    n = 4 + seed % 3
    levels = rng.uniform(0.8, 1.0, n)
    levels[rng.choice(n, size=2, replace=False)] = 1.0
    for params in (_random_general_mvg(rng, n), MvgParams(n, exchangeable_levels=levels)):
        model = MvgModel(params)
        for _ in range(4):
            rules = rng.choice(["low", "up", "count", "free"], size=n)
            marks = {int(i): str(rules[i - 1]) for i in rng.permutation(n) + 1 if rules[i - 1] != "free"}
            m_max = 5
            want = [_marked_reference(params, marks, m) for m in range(m_max + 1)]
            np.testing.assert_allclose(model.counts(marks, m_max), want, rtol=0.0, atol=1e-12)


def test_mvg_ring_class_counts_are_fast_and_match_the_closed_form():
    n, m_max = 12, 40
    theta = {frozenset([i]): 0.8 + 0.01 * i for i in range(1, n + 1)}
    theta.update({frozenset([i, i % n + 1]): 0.96 for i in range(1, n + 1)})
    model = MvgModel(MvgParams(n, theta=theta))
    start = time.perf_counter()
    model.class_counts(m_max)
    assert time.perf_counter() - start < 0.5
    for r in range(1, n + 1):
        want = mvg_orderstat_survival(model.params, r, n, np.arange(m_max + 1))
        for form in ("low", "high"):
            got = model.orderstat_survival_series(r, m_max, form)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


def test_mvg_rect_prob_reads_only_the_marked_lattice():
    # n = 25 is above the cap of a lattice over every component; a query
    # naming three of them reads a lattice over its two "<= m" coordinates
    n = 25
    general = {frozenset([i]): 0.9 for i in range(1, n + 1)}
    general.update({frozenset([3, 7, 20]): 0.8, frozenset([1, 25]): 0.95, frozenset(range(1, n + 1)): 0.99})
    for params in (MvgParams(n, theta=general), MvgParams(n, exchangeable_levels=[0.9, 0.99] + [1.0] * (n - 2))):
        model = MvgModel(params)
        for m in (0, 4, 30):
            want = _marked_reference(params, {3: "low", 20: "low", 7: "up"}, m)[0]
            assert rect_prob(model, (3, 20), (7,), m) == pytest.approx(want, abs=1e-12)


def test_exchangeable_mvg_reads_levels_past_127_forced_coordinates():
    """The level of |up| + |S| for more than 127 "> m" coordinates, on their
    own and with a few "<= m" ones, against ``mvg_joint_survival``."""
    n = 200
    params = MvgParams(n, exchangeable_levels=[0.999, 0.99999] + [1.0] * (n - 2))
    model = MvgModel(params)
    for f, low in [(150, (160, 170, 190, 200)), (125, (130, 140, 150, 160, 170))]:
        up = range(1, f + 1)
        for m in (0, 3, 20):
            want = _marked_reference(params, dict.fromkeys(low, "low") | dict.fromkeys(up, "up"), m)[0]
            # both sides are signed sums of terms up to 1, so they agree to
            # about 1e-15; every rectangle here is at least 2e-12
            assert rect_prob(model, low, up, m) == pytest.approx(want, rel=0.0, abs=1e-13)
            assert rect_prob(model, (), up, m) == pytest.approx(
                mvg_joint_survival(params, [m] * f + [-1] * (n - f)), rel=1e-12)
    # T is the minimum over the first 130 or over all 200 coordinates, each
    # geometric with E T = theta / (1 - theta), theta = P(min > 0)
    signature = [0.0] * n
    signature[129] = signature[199] = 0.5
    thetas = [mvg_joint_survival(params, [0] * i + [-1] * (n - i)) for i in (130, 200)]
    want = math.fsum(0.5 * t / (1.0 - t) for t in thetas)
    got = exchangeable_system_moment(model, signature, 1, d=1e-10)
    assert got.value == pytest.approx(want, abs=2e-10)


def test_mvg_marked_lattice_cap_is_checked_before_any_work():
    n = 25
    for params in (MvgParams(n, theta={(i,): 0.9 for i in range(1, n + 1)}),
                   MvgParams(n, exchangeable_levels=[0.9] + [1.0] * (n - 1))):
        model = MvgModel(params)
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            rect_prob(model, range(1, 22), (), 3)
        with pytest.raises(CapacityError):
            model.counts(dict.fromkeys(range(1, 12), "low") | dict.fromkeys(range(12, 22), "count"), 30)
        with pytest.raises(CapacityError):
            model.class_counts(5)
        assert time.perf_counter() - start < 1.0


FINITE_MODELS = {
    "multinomial": lambda: multinomial_pmf(6, [0.2, 0.3, 0.5]),
    "independent_finite": lambda: IndependentMarginals([FinitePMF([0.5, 0.5]), FinitePMF([0.2, 0.3, 0.5])]),
}


@pytest.mark.parametrize("make", FINITE_MODELS.values(), ids=FINITE_MODELS.keys())
def test_rect_prob_past_the_support_reads_its_end(make):
    # a threshold of 10**12 must not build a 10**12-entry series
    model = make()
    end = model.support_max()
    for low, up in [((1,), ()), ((1,), (2,)), ((), (2,))]:
        assert rect_prob(model, low, up, 10**12) == rect_prob(model, low, up, end)
    assert marginal_survival(model, 2, 10**12) == marginal_survival(model, 2, end)


def test_rect_prob_builds_only_the_named_columns(monkeypatch):
    dists = [Poisson(3.0 + j) for j in range(8)]
    survival = 1.0 - dists[0].cdf_array(3000)[-1]
    rect = Poisson(3.0).cdf(40) * (1.0 - Poisson(5.0).cdf(40))  # fresh: cdf fills a marginal's table
    built = recorded_cdf_builds(monkeypatch)
    model = IndependentMarginals(dists)
    assert rect_prob(model, (), (1,), 3000) == survival
    assert built == [dists[0]]
    assert rect_prob(model, (1,), (3,), 40) == rect  # column 1 is a prefix of the kept one
    assert built == [dists[0], dists[2]]


# ---------------------------------------------------------------------------
# per-object prefix caches and the compensated class sums
# ---------------------------------------------------------------------------

CACHE_MODELS = {
    "poisson": lambda: IndependentMarginals([Poisson(0.5 + 1.5 * j) for j in range(6)]),
    "negbin": lambda: IndependentMarginals([NegBin(2.0, 0.1 + 0.15 * j) for j in range(5)]),
    "mixed": lambda: IndependentMarginals(
        [Poisson(4.0), NegBin(1.5, 0.3), Geometric(0.2), Geometric(1.0), FinitePMF([0.2, 0.5, 0.3])]
    ),
    "explicit": lambda: random_explicit(np.random.default_rng(5), 4, m_max=6),
    "multinomial": lambda: multinomial_pmf(9, [0.1, 0.2, 0.3, 0.4]),
}

READ_ORDERS = {
    "ascending": list(range(0, 200, 7)),
    "descending": list(range(200, -1, -9)),
    "random": np.random.default_rng(17).integers(0, 300, 25).tolist(),
}


@pytest.mark.parametrize("order", READ_ORDERS)
@pytest.mark.parametrize("kind", CACHE_MODELS)
def test_prefix_caches_read_like_fresh_builds(kind, order):
    """Every read of a kept table equals a fresh object's build bit for bit."""
    model = CACHE_MODELS[kind]()
    for m in READ_ORDERS[order]:
        fresh = CACHE_MODELS[kind]()
        assert np.array_equal(model.class_counts(m), fresh.class_counts(m))
        for r in (1, model.n):
            for form in ("low", "high"):
                want = CACHE_MODELS[kind]().orderstat_survival_series(r, m, form)
                assert np.array_equal(model.orderstat_survival_series(r, m, form), want)
        if model.marginals is None:
            continue
        for d, f in zip(model.marginals, CACHE_MODELS[kind]().marginals):
            assert np.array_equal(d._cdf_prefix(m), f._cdf_prefix(m))
        for d, f in zip(model.marginals, CACHE_MODELS[kind]().marginals):
            assert np.array_equal(d.pmf_array(m), f.pmf_array(m))
        for d, f in zip(model.marginals, CACHE_MODELS[kind]().marginals):
            assert np.array_equal(d.logpmf_array(m), f.logpmf_array(m))
            assert d.tail_moment(2, m) == f.tail_moment(2, m)


def test_cached_tables_are_read_only():
    model = IndependentMarginals([Poisson(3.0), NegBin(2.0, 0.4), Geometric(0.3)])
    kept = [model.class_counts(30), model.marginals[1]._cdf_prefix(30),
            *(d.logpmf_array(30) for d in model.marginals)]
    for arr in kept:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.5
    assert np.array_equal(model.class_counts(30), IndependentMarginals(model.marginals).class_counts(30))
    # arrays built from the tables are the caller's own
    for arr in (model.rect_series(frozenset({1}), frozenset({2}), 30), model.marginals[0].pmf_array(30),
                model.marginals[0].cdf_array(30)):
        assert arr.flags.writeable


def recorded_cdf_builds(monkeypatch) -> list:
    """The marginals whose ``cdf_array`` runs from now on, one entry a call."""
    built = []
    cdf_array = MarginalDist.cdf_array
    monkeypatch.setattr(MarginalDist, "cdf_array", lambda d, m: built.append(d) or cdf_array(d, m))
    return built


def test_coordinates_sharing_a_marginal_build_one_cdf_table(monkeypatch):
    want = IndependentMarginals([Poisson(1.0) for _ in range(5)]).class_counts(40)
    built = recorded_cdf_builds(monkeypatch)
    shared = Poisson(1.0)
    assert np.array_equal(IndependentMarginals([shared] * 5).class_counts(40), want)
    assert built == [shared]


def test_repeated_scalar_cdf_builds_one_table(monkeypatch):
    want = Poisson(1.0).cdf_array(40)
    built = recorded_cdf_builds(monkeypatch)
    d = Poisson(1.0)
    assert d.cdf(40) == d.cdf(40) == want[-1]
    assert d.cdf(17) == want[17]  # a prefix of the kept table
    assert built == [d]


@pytest.mark.parametrize("probs", [
    [0.2, 0.0, 0.5, 0.3], [0.5, 0.5 - 1e-13], [0.5, 0.5 - 1e-13, 0.0], [0.0, 0.0, 1.0], [1.0],
    [0.1] * 10,
])
def test_finite_pmf_reads_of_its_cdf_table(probs):
    f = FinitePMF(probs)
    table = np.minimum(np.cumsum(probs), 1.0)
    for m in range(-3, len(probs) + 5):
        assert f.cdf(m) == (0.0 if m < 0 else table[min(m, len(probs) - 1)])
    for q in (1e-12, 0.1, 0.2, 0.21, 0.5, 0.7, 0.95, 1 - 1e-13, 1 - 1e-14):
        assert f.quantile(q) == min(int(np.searchsorted(table, q)), f.support_max())


def test_prefix_caches_stay_within_twice_the_largest_request(monkeypatch):
    largest, builds = {}, Counter()
    read = distributions._PrefixCache.read

    def recorded(cache, m_max, build):
        largest[cache] = max(largest.get(cache, -1), m_max)

        def counted(m):
            builds[cache] += 1
            return build(m)

        return read(cache, m_max, counted)

    monkeypatch.setattr(distributions._PrefixCache, "read", recorded)
    model = CACHE_MODELS["mixed"]()
    for m in range(1000):  # rising one at a time: a rebuild per doubling
        model.class_counts(m)
    assert builds[model._class_counts] <= 1 + math.ceil(math.log2(1000))
    rng = np.random.default_rng(3)
    for m in rng.integers(0, 5000, 40).tolist():
        model.class_counts(m)
        model.marginals[1].tail_moment(1, m)
        model.marginals[0].quantile(1.0 - 10.0 ** -rng.uniform(1, 12))
    assert len(largest) == 1 + model.n + len(model.marginals) - 1  # FinitePMF builds no log pmf
    for cache, m in largest.items():
        assert m + 1 <= len(cache.table) <= 2 * (m + 1)


def test_class_count_recursion_runs_once_per_table(monkeypatch):
    """The 20 cells of a criterion-2 table (ranks 1..10, p = 1, 2) share one
    model's class counts: the recursion reruns only when M0 doubles, and not
    at all once the table holds the largest M0."""
    builds = []
    counts = IndependentMarginals.counts

    def recorded(model, marks, m):
        if set(marks.values()) == {"count"}:
            builds.append(m)
        return counts(model, marks, m)

    monkeypatch.setattr(IndependentMarginals, "counts", recorded)
    model = IndependentMarginals([Poisson(0.5 * j) for j in range(1, 11)])
    cells = [MomentRequest(r=r, n=10, p=p, d=5e-4) for p in (1, 2) for r in range(1, 11)]
    first = [approx_moment(model, req) for req in cells]
    m0 = sorted({res.M0_used for res in first})
    assert len(builds) <= 1 + math.ceil(math.log2((m0[-1] + 1) / (m0[0] + 1)))
    builds.clear()
    assert [approx_moment(model, req) for req in cells] == first
    assert builds == []
    fresh = IndependentMarginals(model.marginals)
    fresh.class_counts(m0[-1])
    builds.clear()
    assert [approx_moment(fresh, req) for req in cells] == first
    assert builds == []


def _random_marginals(rng, n):
    def one():
        kind = rng.integers(3)
        if kind == 0:
            return Poisson(float(rng.uniform(0.1, 30.0)))
        if kind == 1:
            return NegBin(float(rng.uniform(0.3, 6.0)), float(rng.uniform(0.05, 0.9)))
        return Geometric(float(rng.uniform(0.02, 1.0)))

    return IndependentMarginals([one() for _ in range(n)])


def test_compensated_class_sums_match_per_row_fsum():
    """Both forms' class sums are within an ulp of a per-row math.fsum, and
    the survival series stays in [0, 1] (rows of class counts may sum to 1
    plus a few ulps)."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        model = _random_marginals(rng, n)
        m = int(rng.integers(1, 150))
        counts = model.class_counts(m)
        for r in range(1, n + 1):
            for form, classes in (("low", counts[:, :r]), ("high", counts[:, r:])):
                got = distributions._compensated_row_sums(classes)
                want = np.array([math.fsum(row) for row in classes])
                assert np.all(np.abs(got - want) <= np.spacing(want)), (form, r)
                series = model.orderstat_survival_series(r, m, form)
                assert np.all((series >= 0.0) & (series <= 1.0))
                assert np.array_equal(series, np.clip(got if form == "low" else 1.0 - got, 0.0, 1.0))


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
    table = model.class_counts(model.trials)
    np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)
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
    table = model.class_counts(trials)
    reference = ExplicitFinitePMF(model.points, model.probs).class_counts(trials)
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


def _exact_multinomial(trials, probs):
    """Every count vector with its Mult(trials, probs / sum(probs)) weight,
    exact on the float inputs: integer numerators over one denominator.

    A float is a fraction with a power-of-two denominator, so the largest
    denominator is a multiple of every other one.
    """
    scale = max(Fraction(p).denominator for p in probs)
    a = [int(Fraction(p) * scale) for p in probs]
    k = len(a)
    support = []
    for bars in combinations(range(trials + k - 1), k - 1):  # stars and bars
        edges = (-1, *bars, trials + k - 1)
        x = [b - e - 1 for e, b in zip(edges, edges[1:])]
        coeff = math.factorial(trials) // math.prod(math.factorial(xi) for xi in x)
        support.append((x, coeff * math.prod(ai**xi for ai, xi in zip(a, x))))
    return support, sum(a) ** trials


def _assert_close_to_exact(got, numerators, denominator, rel=1e-13):
    for g, num in zip(np.ravel(got), numerators):
        exact = Fraction(num, denominator)
        if exact > Fraction(1, 10**300):
            assert abs(Fraction(float(g)) - exact) <= rel * exact, (float(g), float(exact))
        else:
            assert abs(float(g)) <= 1e-300


@pytest.mark.parametrize(
    "trials, probs",
    [(12, [0.1, 0.2, 0.3, 0.4]), (9, [0.05] * 4 + [0.8]), (40, [0.03, 0.27, 0.7])],
)
def test_multinomial_kernel_matches_exact_fractions(trials, probs):
    n = len(probs)
    support, den = _exact_multinomial(trials, probs)
    model = multinomial_pmf(trials, probs)
    counts = [[0] * (n + 1) for _ in range(trials + 1)]
    for x, w in support:
        for m in range(trials + 1):
            counts[m][sum(xi <= m for xi in x)] += w
    _assert_close_to_exact(model.class_counts(trials), [c for row in counts for c in row], den)
    for low, up in [({1}, {n}), ({n}, {1, 2}), ({1, 2}, set()), (set(), {2, n})]:
        exact = [
            sum(w for x, w in support if all(x[i - 1] <= m for i in low) and all(x[j - 1] > m for j in up))
            for m in range(trials + 1)
        ]
        series = model.rect_series(frozenset(low), frozenset(up), trials + 3)
        _assert_close_to_exact(series[: trials + 1], exact, den)
        assert np.all(series[trials:] == series[trials])  # constant past the support


def test_multinomial_library_calls_never_list_the_support(monkeypatch):
    def refuse(*_args):
        raise AssertionError("support points were enumerated")

    monkeypatch.setattr(distributions, "_compositions", refuse)
    # C(41, 11) ~ 2.3e9 count vectors, exchangeable
    big = multinomial_pmf(30, [1 / 12] * 12)
    series = SystemStructure(12, path_sets=[range(1, 13)])
    for p in (1, 2):
        minimum = exact_moment_finite(big, MomentRequest(r=1, n=12, p=p)).value
        assert system_moment_exact(big, series, p).value == minimum
    for m in (0, 2, 5, 40):
        assert system_survival(big, series, m) == pytest.approx(survival_orderstat(big, 1, 12, m), rel=1e-12)
    # under exchangeability a class count is C(n, s) copies of one rectangle
    counts = big.class_counts(big.trials)
    for m, s in [(1, 4), (3, 9), (2, 12)]:
        rect = rect_prob(big, range(1, s + 1), range(s + 1, 13), m)
        assert math.comb(12, s) * rect == pytest.approx(counts[m, s], rel=1e-12)
    # X_{2:12} from the minimal signature of 11-of-12:G, X_{12:12} from the
    # maximal signature of the parallel system
    second = exact_moment_finite(big, MomentRequest(r=2, n=12, p=1)).value
    sig = minimal_signature(SystemStructure(12, path_sets=combinations(range(1, 13), 11)))
    assert exchangeable_system_moment(big, sig, 1).value == pytest.approx(second, rel=1e-10)
    largest = exact_moment_finite(big, MomentRequest(r=12, n=12, p=1)).value
    sig = maximal_signature(k_out_of_n_structure(12, 1))
    assert exchangeable_system_moment(big, sig, 1, form="beta").value == pytest.approx(largest, rel=1e-12)
    # criterion 1's model with four path sets; the exact rational value of
    # E T is 2.0392604804989483 (to double precision)
    c1 = multinomial_pmf(20, [0.1] * 10)
    four = SystemStructure(10, path_sets=[[1, 2], [3, 4, 5], [6, 7], [8, 9, 10]])
    assert system_moment_exact(c1, four, 1).value == pytest.approx(2.0392604804989483, rel=1e-13)


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
