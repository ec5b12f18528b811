"""Order-statistic survival, exact moments, and the truncation planners."""

import math

import numpy as np
import pytest

from lifemoments import (
    CapacityError,
    ConvergenceError,
    FinitePMF,
    Geometric,
    IndependentMarginals,
    MomentRequest,
    MomentResult,
    MvgModel,
    MvgParams,
    NegBin,
    NumericError,
    Poisson,
    SystemStructure,
    TruncationPlan,
    ValidationError,
    approx_moment,
    enumerate_moment,
    exact_moment_finite,
    exchangeable_system_moment,
    factorial_moment_terms,
    geometric_factorial_moment,
    mc_moment,
    multinomial_pmf,
    mvg_orderstat_factorial_moment,
    plan_generic,
    plan_negbin,
    plan_poisson,
    survival_orderstat,
    system_factorial_moments_mvg,
    system_moment_approx,
    system_moment_exact,
    system_moment_mvg,
)
from lifemoments import distributions, orderstats
from lifemoments.orderstats import binomial_head, plan_for
from conftest import product_explicit, random_explicit, random_independent
from test_acceptance import NB_ROWS, POIS_ROWS


# ---------------------------------------------------------------------------
# survival of X_{r:n}
# ---------------------------------------------------------------------------

def test_survival_low_high_forms_agree():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        model = random_explicit(rng, n, m_max=2) if rng.random() < 0.5 else random_independent(rng, n)
        m = int(rng.integers(0, 4))
        for r in range(1, n + 1):
            lo = survival_orderstat(model, r, n, m, form="low")
            hi = survival_orderstat(model, r, n, m, form="high")
            assert lo == pytest.approx(hi, abs=1e-12)


def test_survival_against_direct_count():
    """P(X_{r:n} > m) is the probability that fewer than r coordinates are <= m."""
    rng = np.random.default_rng(5)
    model = random_explicit(rng, 4, m_max=2)
    below = (model.points[:, None, :] <= np.arange(3)[None, :, None]).sum(axis=2)
    for m in range(3):
        for r in range(1, 5):
            want = float(model.probs[below[:, m] < r].sum())
            assert survival_orderstat(model, r, 4, m) == pytest.approx(want, abs=1e-12)


def test_survival_monotone_in_rank_and_threshold():
    model = random_independent(np.random.default_rng(9), 5)
    vals = [[survival_orderstat(model, r, 5, m) for m in range(6)] for r in range(1, 6)]
    arr = np.array(vals)
    assert np.all(arr[1:] >= arr[:-1] - 1e-12)  # higher rank survives longer
    assert np.all(arr[:, 1:] <= arr[:, :-1] + 1e-12)  # survival decreasing in m


def test_survival_dependent_model_via_subset_classes():
    # a forced form on an MvgModel reads the rectangle-query class counts
    params = MvgParams(3, theta={(1,): 0.6, (2,): 0.7, (3,): 0.5, (1, 2, 3): 0.9})
    model = MvgModel(params)
    for m in range(0, 8):
        for r in (1, 2, 3):
            lo = survival_orderstat(model, r, 3, m, form="low")
            hi = survival_orderstat(model, r, 3, m, form="high")
            assert lo == pytest.approx(hi, abs=1e-12)
    assert survival_orderstat(model, 1, 3, -1) == 1.0


def test_mvg_single_threshold_survival_reads_one_threshold(monkeypatch):
    """The closed form is asked for the one threshold and gives the series
    entry bit for bit; a forced form still reads the class counts."""
    params = MvgParams(4, theta={(1,): 0.6, (2,): 0.7, (3,): 0.5, (1, 2): 0.95, (2, 3, 4): 0.9})
    model = MvgModel(params)
    seen = []
    closed = distributions.mvg_orderstat_survival
    monkeypatch.setattr(
        distributions, "mvg_orderstat_survival", lambda *args: seen.append(args[3]) or closed(*args)
    )
    for r in range(1, 5):
        for m in (0, 7, 250):
            seen.clear()
            got = survival_orderstat(model, r, 4, m)
            assert seen == [m]
            assert got == model.orderstat_survival_series(r, m)[m]
            for form in ("low", "high"):
                assert survival_orderstat(model, r, 4, m, form) == model.orderstat_survival_series(r, m, form)[m]


@pytest.mark.parametrize("form", ["low", "high"])
@pytest.mark.parametrize(
    "build",
    [
        lambda: MvgModel(MvgParams(5, theta={(1,): 0.6, (2,): 0.7, (3,): 0.5, (4,): 0.8, (1, 2): 0.95, (3, 4, 5): 0.9})),
        lambda: IndependentMarginals([Poisson(1 + 0.1 * j) for j in range(5)]),
    ],
    ids=["mvg", "independent"],
)
def test_forced_form_survival_reads_one_row_of_the_class_counts(build, form):
    """Past the cached table's end a single-threshold read computes row m
    alone: the same float as a slice of the full build, and the table does
    not grow; a table that holds row m is sliced."""
    model, m = build(), 3000
    got = survival_orderstat(model, 3, 5, m, form)
    assert model._class_counts.table is None
    full = model.orderstat_survival_series(3, m, form)
    assert got == full[m]
    table = model._class_counts.table
    assert survival_orderstat(model, 3, 5, m // 2, form) == full[m // 2]
    assert model._class_counts.table is table


def test_finite_support_survival_reads_grow_the_class_count_table():
    """A finite support bounds the table and its kernel builds every row up
    to m anyway, so single-threshold reads grow the table once and slice it."""
    model = multinomial_pmf(40, [0.2, 0.3, 0.5])
    survival_orderstat(model, 2, 3, 20, "low")
    table = model._class_counts.table
    assert len(table) > 20
    assert survival_orderstat(model, 2, 3, 15, "low") == model.orderstat_survival_series(2, 15, "low")[15]
    assert model._class_counts.table is table


def test_survival_validation():
    model = random_explicit(np.random.default_rng(1), 2)
    with pytest.raises(ValidationError):
        survival_orderstat(model, 0, 2, 1)
    with pytest.raises(ValidationError):
        survival_orderstat(model, 1, 3, 1)  # n mismatch
    with pytest.raises(ValidationError):
        survival_orderstat(model, 1, 2, 1, form="sideways")


def test_survival_checks_form_below_zero():
    """A bad form is refused at every threshold, also where P = 1 needs no series."""
    model = random_explicit(np.random.default_rng(1), 2)
    for form in ("auto", "low", "high"):
        assert survival_orderstat(model, 1, 2, -1, form=form) == 1.0
    with pytest.raises(ValidationError):
        survival_orderstat(model, 1, 2, -1, form="bogus")


@pytest.mark.parametrize(
    "model",
    [
        multinomial_pmf(6, [0.2, 0.3, 0.5]),
        IndependentMarginals([FinitePMF([0.5, 0.5]), FinitePMF([0.2, 0.3, 0.5]), FinitePMF([1.0])]),
    ],
    ids=["multinomial", "independent_finite"],
)
def test_survival_past_the_support_reads_its_end(model):
    # a threshold of 10**12 must not build a 10**12-entry series
    end = model.support_max()
    for r in (1, 2, 3):
        for form in ("auto", "low", "high"):
            far = survival_orderstat(model, r, 3, 10**12, form=form)
            assert far == survival_orderstat(model, r, 3, end, form=form)


def test_subset_class_capacity_guard():
    params = MvgParams(21, theta={tuple(range(1, 22)): 0.5})
    with pytest.raises(CapacityError):
        survival_orderstat(MvgModel(params), 2, 21, 0)


# ---------------------------------------------------------------------------
# exact moments on finite supports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_exact_moment_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    model = random_explicit(rng, n, m_max=3)
    for r in range(1, n + 1):
        for p in (1, 2, 3):
            got = exact_moment_finite(model, MomentRequest(r=r, n=n, p=p))
            want = enumerate_moment(model, r, p)
            assert got.exact
            assert got.value == pytest.approx(want, abs=1e-10)


def test_exact_moment_independent_vs_unrolled():
    rng = np.random.default_rng(77)
    model = random_independent(rng, 4)
    flat = product_explicit(model)
    for r in (1, 3, 4):
        for p in (1, 2):
            a = exact_moment_finite(model, MomentRequest(r=r, n=4, p=p)).value
            b = exact_moment_finite(flat, MomentRequest(r=r, n=4, p=p)).value
            assert a == pytest.approx(b, abs=1e-10)


def test_exact_moment_iid_binomial_shortcut():
    # declaring exchangeability must not change the class counts
    dists = [FinitePMF([0.3, 0.25, 0.25, 0.2])] * 6
    fast = IndependentMarginals(dists, exchangeable=True)
    slow = IndependentMarginals(dists)
    for r in (1, 3, 6):
        for p in (1, 2):
            req = MomentRequest(r=r, n=6, p=p)
            assert exact_moment_finite(fast, req).value == pytest.approx(
                exact_moment_finite(slow, req).value, abs=1e-12
            )


def test_rearrangement_identity():
    """Summing the p-th moment over all ranks recovers the coordinate total."""
    rng = np.random.default_rng(13)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        model = random_explicit(rng, n, m_max=3)
        for p in (1, 2):
            ranks = math.fsum(
                exact_moment_finite(model, MomentRequest(r=r, n=n, p=p)).value
                for r in range(1, n + 1)
            )
            coords = float(np.dot(model.probs, (model.points.astype(float) ** p).sum(axis=1)))
            assert ranks == pytest.approx(coords, abs=1e-9)


def test_ranks_must_be_integers():
    bits = IndependentMarginals([FinitePMF([0.5, 0.5])] * 3)
    entries = [
        lambda r: survival_orderstat(bits, r, 3, 0),
        lambda r: exact_moment_finite(bits, MomentRequest(r=r, n=3, p=1)),
        lambda r: approx_moment(bits, MomentRequest(r=r, n=3, p=1, d=1e-3)),
        lambda r: enumerate_moment(bits, r, 1),
        lambda r: mc_moment(bits, r, 1, n_samples=1000, seed=0),
    ]
    for entry in entries:
        with pytest.raises(ValidationError, match="not an integer"):
            entry(1.5)
        assert entry(np.int64(2)) == entry(2)


SERIES = SystemStructure(2, path_sets=[[1, 2]], cut_sets=[[1], [2]])
BITS = IndependentMarginals([FinitePMF([0.5, 0.5])] * 2)
POISSONS = IndependentMarginals([Poisson(1.0), Poisson(2.0)])
MVG = MvgParams(2, theta={(1,): 0.6, (2,): 0.7, (1, 2): 0.9})
MOMENT_ENTRIES = {
    "exact_moment_finite": lambda p: exact_moment_finite(BITS, MomentRequest(r=1, n=2, p=p)),
    "approx_moment": lambda p: approx_moment(POISSONS, MomentRequest(r=2, n=2, p=p, d=1e-3)),
    "system_moment_exact": lambda p: system_moment_exact(BITS, SERIES, p),
    "system_moment_approx": lambda p: system_moment_approx(POISSONS, SERIES, p, 1e-3),
    "exchangeable_system_moment": lambda p: exchangeable_system_moment(
        IndependentMarginals([Poisson(1.0)] * 2, exchangeable=True), [0, 1], p, 1e-3),
    "system_factorial_moments_mvg": lambda p: system_factorial_moments_mvg(MVG, SERIES, p),
    "system_moment_mvg": lambda p: system_moment_mvg(MVG, SERIES, p),
    "mvg_orderstat_factorial_moment": lambda p: mvg_orderstat_factorial_moment(MVG, 1, 2, p),
    "factorial_moment_terms": lambda p: factorial_moment_terms(MVG, 2, 2, p),
    "geometric_factorial_moment": lambda p: geometric_factorial_moment(0.5, p),
    "enumerate_moment": lambda p: enumerate_moment(BITS, 1, p),
    "mc_moment": lambda p: mc_moment(BITS, 1, p, n_samples=1000, seed=0),
    "Poisson.tail_moment": lambda p: Poisson(2.0).tail_moment(p, 3),
    "FinitePMF.tail_moment": lambda p: FinitePMF([0.2, 0.3, 0.5]).tail_moment(p, 0),
}


@pytest.mark.parametrize("p", [1.5, 2.0])
@pytest.mark.parametrize("entry", MOMENT_ENTRIES.values(), ids=MOMENT_ENTRIES.keys())
def test_moment_orders_must_be_integers(entry, p):
    # a float order is refused, never truncated or taken as a fractional moment
    with pytest.raises(ValidationError, match="moment order p=.* is not an integer"):
        entry(p)
    assert entry(np.int64(2)) == entry(2)


def test_request_fields_are_ints():
    req = MomentRequest(r=np.int64(2), n=np.int32(3), p=np.int8(2))
    assert (req.r, req.n, req.p) == (2, 3, 2) and all(type(v) is int for v in (req.r, req.n, req.p))
    for bad in ({"r": 1.0}, {"n": 3.0}, {"p": 2.0}):
        with pytest.raises(ValidationError, match="is not an integer"):
            MomentRequest(**{"r": 1, "n": 3, "p": 1} | bad)


def test_exact_moment_rejects_infinite_support():
    model = IndependentMarginals([Poisson(1.0)] * 3)
    with pytest.raises(ValidationError):
        exact_moment_finite(model, MomentRequest(r=1, n=3, p=1))


def test_degenerate_all_zero_support():
    model = IndependentMarginals([FinitePMF([1.0])] * 2)
    res = exact_moment_finite(model, MomentRequest(r=2, n=2, p=2))
    assert res.value == 0.0 and res.exact


def test_moments_reject_request_n_mismatch():
    model = IndependentMarginals([FinitePMF([0.5, 0.5])] * 3)
    req = MomentRequest(r=4, n=5, p=1, d=0.1)
    with pytest.raises(ValidationError):
        exact_moment_finite(model, req)
    for M0 in (-1, 10):
        with pytest.raises(ValidationError):
            approx_moment(model, req, TruncationPlan(M0=M0, j0=1, threshold=0.5))


# ---------------------------------------------------------------------------
# request/plan/result plumbing
# ---------------------------------------------------------------------------

def test_request_validation():
    with pytest.raises(ValidationError):
        MomentRequest(r=0, n=3, p=1)
    with pytest.raises(ValidationError):
        MomentRequest(r=4, n=3, p=1)
    with pytest.raises(ValidationError):
        MomentRequest(r=1, n=3, p=0)
    with pytest.raises(ValidationError):
        MomentRequest(r=1, n=3, p=1, d=0.0)


def test_plan_and_result_validation():
    with pytest.raises(ValidationError):
        TruncationPlan(M0=-2, j0=1, threshold=0.5)
    with pytest.raises(ValidationError):
        MomentResult(value=1.0, exact=True, M0_used=3)
    with pytest.raises(ValidationError):
        MomentResult(value=1.0, exact=True, error_bound=0.1)
    ok = MomentResult(value=1.0, exact=False, M0_used=3, error_bound=0.1)
    assert ok.M0_used == 3


def test_binomial_head():
    assert binomial_head(10, 1) == 1
    assert binomial_head(10, 10) == 2**10 - math.comb(10, 10)
    assert binomial_head(5, 3) == 1 + 5 + 10


# ---------------------------------------------------------------------------
# truncation planners
# ---------------------------------------------------------------------------

def test_plan_poisson_row():
    # ten IID unit rates, d = 0.0005: indices grow with the rank
    want_p1 = [6, 7, 8, 8, 8, 9, 9, 9, 9, 9]
    want_p2 = [7, 8, 9, 9, 10, 10, 10, 10, 10, 10]
    for r in range(1, 11):
        plan1 = plan_poisson([1.0] * 10, MomentRequest(r=r, n=10, p=1, d=0.0005))
        plan2 = plan_poisson([1.0] * 10, MomentRequest(r=r, n=10, p=2, d=0.0005))
        assert plan1.M0 == want_p1[r - 1]
        assert plan2.M0 == want_p2[r - 1]
        assert plan1.j0 == 1


def test_plan_poisson_picks_dominant_rate():
    plan = plan_poisson([1.0, 5.0, 2.0], MomentRequest(r=2, n=3, p=1, d=1e-3))
    assert plan.j0 == 2
    # a huge allowance hits the degenerate branch M0 = p - 2
    huge = plan_poisson([1.0] * 3, MomentRequest(r=1, n=3, p=2, d=1e9))
    assert huge.M0 == 0
    assert huge.threshold <= 0.0


def test_plan_poisson_validation():
    with pytest.raises(ValidationError):
        plan_poisson([1.0, -1.0], MomentRequest(r=1, n=2, p=1, d=1e-3))
    with pytest.raises(ValidationError):
        plan_poisson([1.0] * 3, MomentRequest(r=1, n=2, p=1, d=1e-3))
    with pytest.raises(ValidationError):
        plan_poisson([1.0] * 2, MomentRequest(r=1, n=2, p=1))  # d missing


def test_plan_threshold_too_small_raises_numeric():
    with pytest.raises(NumericError):
        plan_poisson([1.0] * 10, MomentRequest(r=1, n=10, p=1, d=1e-320))


def test_plan_negbin_row():
    ps = [0.1 * i - 0.05 for i in range(1, 11)]
    want = [271, 321, 354, 378, 394, 404, 410, 413, 414, 414]
    for r in range(1, 11):
        plan = plan_negbin(2, ps, MomentRequest(r=r, n=10, p=1, d=0.0005))
        assert plan.M0 == want[r - 1]
        assert plan.j0 == 1  # smallest success probability dominates


def _paper_plan_cases():
    """(planner call, marginals) for every acceptance-table Poisson and
    NegBin row at d = 0.0005, r = 1..10 and p = 1, 2, and the small-R
    NegBin grid at d = 1e-3."""
    for lams in POIS_ROWS:
        lams = [float(lam) for lam in lams]
        for p in (1, 2):
            for r in range(1, 11):
                req = MomentRequest(r=r, n=10, p=p, d=0.0005)
                yield (lambda req=req, lams=lams: plan_poisson(lams, req)), [Poisson(lam) for lam in lams], req
    for R, ps in NB_ROWS:
        for p in (1, 2):
            for r in range(1, 11):
                req = MomentRequest(r=r, n=10, p=p, d=0.0005)
                yield (lambda req=req, R=R, ps=ps: plan_negbin(R, ps, req)), [NegBin(R, q) for q in ps], req
    for R in (0.3, 1.0, 3.0):
        for p0 in (0.05, 0.2, 0.5):
            for r, n in ((1, 1), (3, 5), (5, 5)):
                for p in (1, 2, 3):
                    req = MomentRequest(r=r, n=n, p=p, d=1e-3)
                    yield (lambda req=req, R=R, p0=p0, n=n: plan_negbin(R, [p0] * n, req)), [NegBin(R, p0)] * n, req


def test_warm_paper_plans_equal_cold_plans():
    """A paper planner reads one kept model per parameter set; every plan it
    gives, cold or warm, rising or falling through the ranks and orders,
    equals `plan_for` on a freshly built model."""
    orderstats._implied_model.cache_clear()
    cases = list(_paper_plan_cases())
    for sweep in (cases, cases[::-1]):
        for plan, marginals, req in sweep:
            cold = plan_for(IndependentMarginals(marginals), req.p, req.d / binomial_head(req.n, req.r))
            assert plan() == cold, req


def test_paper_planner_keeps_one_bounded_model_per_parameter_set(monkeypatch):
    """A list, a tuple and an array of the same rates reach one kept model,
    whose log pmf is built once; the cache has a fixed size."""
    builds = []
    table = Poisson._logpmf_table
    monkeypatch.setattr(Poisson, "_logpmf_table", lambda d, m: builds.append(m) or table(d, m))
    orderstats._implied_model.cache_clear()
    lams = [1.0, 2.5, 4.0]
    req = MomentRequest(r=2, n=3, p=2, d=1e-4)
    plans = [plan_poisson(rates, req) for rates in (lams, tuple(lams), np.array(lams))]
    assert plans[0] == plans[1] == plans[2]
    assert len(builds) == 1
    info = orderstats._implied_model.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
    assert info.maxsize is not None and info.maxsize > 0


def test_plan_negbin_validation():
    with pytest.raises(ValidationError):
        plan_negbin(0.0, [0.5], MomentRequest(r=1, n=1, p=1, d=1e-3))
    with pytest.raises(ValidationError):
        plan_negbin(2.0, [0.5, 1.0], MomentRequest(r=1, n=2, p=1, d=1e-3))


def test_plan_generic_geometric():
    # fair-coin geometric, mean target within 0.001: thirteen retained terms
    dist = Geometric(0.5)
    req = MomentRequest(r=1, n=1, p=1, d=0.001)
    plan = plan_generic(lambda m: dist.tail_moment(1, m), req, j0=1)
    assert plan.M0 == 12
    model = IndependentMarginals([dist])
    got = approx_moment(model, req, plan).value
    assert abs(got - dist.mean()) <= req.d


def test_plan_generic_agrees_with_closed_form_planners():
    # same tail condition, searched numerically instead of via the quantile
    req = MomentRequest(r=3, n=10, p=2, d=0.0005)
    lam = Poisson(10.0)
    searched = plan_generic(lambda m: lam.tail_moment(2, m), req, j0=1)
    closed = plan_poisson([10.0] * 10, req)
    # the closed form bounds x^p through the factorial, so it never truncates
    # earlier than the direct tail search
    assert searched.M0 <= closed.M0
    assert lam.tail_moment(2, searched.M0) <= req.d / binomial_head(10, 3)


def test_plan_generic_convergence_cap():
    req = MomentRequest(r=1, n=1, p=1, d=1e-6)
    with pytest.raises(ConvergenceError):
        plan_generic(lambda m: 1.0, req, j0=1)


# ---------------------------------------------------------------------------
# truncated evaluation
# ---------------------------------------------------------------------------

TRUNCATION_CASES = [
    ("poisson", IndependentMarginals([Poisson(lam) for lam in (1, 1, 1, 1, 1, 2, 3, 4, 5, 6)])),
    ("negbin", IndependentMarginals([NegBin(2, p) for p in [0.25] * 8 + [0.5] * 2])),
    ("geometric", IndependentMarginals([Geometric(0.4), Geometric(0.6), Geometric(0.5)])),
]


@pytest.mark.parametrize("kind,model", TRUNCATION_CASES, ids=[c[0] for c in TRUNCATION_CASES])
def test_truncation_error_within_certificate(kind, model):
    """Dropped tail is non-negative and at most d, judged against a 4x M0 reference."""
    n = model.n
    for r in (1, (n + 1) // 2, n):
        for p in (1, 2):
            req = MomentRequest(r=r, n=n, p=p, d=5e-4)
            if kind == "poisson":
                plan = plan_poisson([m.lam for m in model.marginals], req)
            elif kind == "negbin":
                plan = plan_negbin(2, [m.p for m in model.marginals], req)
            else:
                j0 = max(range(n), key=lambda j: model.marginals[j].mean()) + 1
                dist = model.marginals[j0 - 1]
                plan = plan_generic(lambda m: dist.tail_moment(p, m), req, j0)
            approx = approx_moment(model, req, plan)
            ref_plan = TruncationPlan(M0=4 * plan.M0 + 8, j0=plan.j0, threshold=plan.threshold)
            ref = approx_moment(model, req, ref_plan)
            err = ref.value - approx.value
            assert -1e-12 <= err <= req.d, (r, p, err)
            assert approx.M0_used == plan.M0
            assert approx.error_bound == req.d


def test_approx_moment_golden_cell():
    # ten IID unit-rate Poisson lifetimes, largest rank, second moment
    model = IndependentMarginals([Poisson(1.0)] * 10, exchangeable=True)
    req = MomentRequest(r=10, n=10, p=2, d=0.0005)
    plan = plan_poisson([1.0] * 10, req)
    assert plan.M0 == 10
    assert approx_moment(model, req, plan).value == pytest.approx(8.319, abs=1e-3)


PLAN_FREE_CASES = [
    ("poisson", IndependentMarginals([Poisson(1.0), Poisson(2.5), Poisson(0.7)])),
    ("negbin_shared_R", IndependentMarginals([NegBin(2.0, 0.4), NegBin(2.0, 0.25), NegBin(2.0, 0.6)])),
    ("mixed", IndependentMarginals([Poisson(3.0), NegBin(1.0, 0.3), Geometric(0.4)])),
    ("mvg", MvgModel(MvgParams(3, theta={frozenset([1]): 0.6, frozenset([2]): 0.7, frozenset([1, 2, 3]): 0.9}))),
]


@pytest.mark.parametrize("model", [c[1] for c in PLAN_FREE_CASES], ids=[c[0] for c in PLAN_FREE_CASES])
def test_approx_moment_plans_for_itself(model):
    """Without a plan, approx_moment plans for d / binomial_head(n, r) itself."""
    n = model.n
    for r in range(1, n + 1):
        for p in (1, 2, 3):
            req = MomentRequest(r=r, n=n, p=p, d=1e-4)
            plan = plan_for(model, p, req.d / binomial_head(n, r))
            planned, got = approx_moment(model, req, plan), approx_moment(model, req)
            assert (got.value, got.M0_used) == (planned.value, planned.M0_used)
            assert not got.exact and got.error_bound == req.d
            # a plan without d is still a truncation, with no bound to report
            no_d = approx_moment(model, MomentRequest(r=r, n=n, p=p), plan)
            assert (no_d.exact, no_d.M0_used, no_d.error_bound) == (False, plan.M0, None)
            with pytest.raises(ValidationError):
                approx_moment(model, MomentRequest(r=r, n=n, p=p))


@pytest.mark.parametrize("model", [c[1] for c in PLAN_FREE_CASES[:2]], ids=[c[0] for c in PLAN_FREE_CASES[:2]])
def test_closed_form_planners_read_the_models_own_marginal(model, monkeypatch):
    """The Poisson and negative binomial cutoffs take their quantile from the
    dominating marginal of the model, not from a freshly built copy of it."""
    want = [plan_for(model, p, 1e-6) for p in (1, 2, 3)]
    built = []
    for cls in (Poisson, NegBin):
        monkeypatch.setattr(cls, "__init__", lambda self, *a, _init=cls.__init__: built.append(a) or _init(self, *a))
    fresh = [plan_for(model, p, 1e-6) for p in (1, 2, 3)]
    assert built == []
    assert fresh == want


def test_approx_moment_degenerate_plan():
    model = IndependentMarginals([Poisson(1.0)] * 2)
    req = MomentRequest(r=1, n=2, p=1, d=100.0)
    res = approx_moment(model, req, TruncationPlan(M0=-1, j0=1, threshold=0.0))
    assert res.value == 0.0
    assert not res.exact
    assert res.M0_used == -1


def test_approx_matches_exact_on_finite_support():
    rng = np.random.default_rng(3)
    model = random_independent(rng, 3)
    m_max = model.support_max()
    req = MomentRequest(r=2, n=3, p=2, d=1e-9)
    plan = TruncationPlan(M0=m_max + 5, j0=1, threshold=0.0)
    assert approx_moment(model, req, plan).value == pytest.approx(
        exact_moment_finite(model, req).value, abs=1e-12
    )
