"""Common-shock geometric vectors: construction, survival, closed-form moments."""

import math
from itertools import combinations, product

import numpy as np
import pytest

from lifemoments import (
    FactorialMomentTerms,
    Geometric,
    MomentRequest,
    MvgModel,
    MvgParams,
    TruncationPlan,
    ValidationError,
    approx_moment,
    factorial_moment_terms,
    factorial_to_raw,
    geometric_factorial_moment,
    mvg_joint_survival,
    mvg_marginal,
    mvg_min_param,
    mvg_orderstat_factorial_moment,
    mvg_orderstat_mean_var,
    mvg_orderstat_survival,
    plan_generic,
    sample_mvg,
    stirling2_row,
    survival_orderstat,
    theta_all,
)


def all_pairs_params(n: int, single: float, pair: float) -> MvgParams:
    theta = {frozenset([i]): single for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            theta[frozenset([i, j])] = pair
    return MvgParams(n, theta=theta)


def sparse_general_params(rng: np.random.Generator, n: int, zero_shock: bool = False) -> MvgParams:
    """Singleton shocks plus n random multi-component shocks; optionally one theta_I = 0."""
    theta = {frozenset([i]): float(rng.uniform(0.6, 0.99)) for i in range(1, n + 1)}
    for _ in range(n):
        size = int(rng.integers(2, n + 1))
        I = frozenset(int(i) for i in rng.choice(np.arange(1, n + 1), size=size, replace=False))
        theta[I] = float(rng.uniform(0.9, 0.999))
    if zero_shock:
        theta[frozenset([1, n])] = 0.0
    return MvgParams(n, theta=theta)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_params_reject_defective_component():
    with pytest.raises(ValidationError, match="component 2"):
        MvgParams(2, theta={(1,): 0.5})
    with pytest.raises(ValidationError, match="component 1"):
        MvgParams(2, theta={(1,): 1.0, (2,): 0.5})
    with pytest.raises(ValidationError):
        MvgParams(3, exchangeable_levels=[1.0, 1.0, 1.0])


def test_params_exactly_one_parametrization():
    with pytest.raises(ValidationError):
        MvgParams(2)
    with pytest.raises(ValidationError):
        MvgParams(2, theta={(1, 2): 0.5}, exchangeable_levels=[0.5, 0.5])
    with pytest.raises(ValidationError):
        MvgParams(2, exchangeable_levels=[0.5])  # wrong length
    with pytest.raises(ValidationError):
        MvgParams(2, theta={(1, 2): 1.5})
    with pytest.raises(ValidationError):
        MvgParams(2, theta={(3,): 0.5})  # index outside 1..n


def test_params_drop_stored_ones():
    params = MvgParams(2, theta={(1,): 0.5, (2,): 0.5, (1, 2): 1.0})
    assert frozenset([1, 2]) not in params.theta
    assert len(params.theta) == 2
    with pytest.raises(TypeError):
        params.theta[frozenset([1])] = 0.9  # read-only view


# ---------------------------------------------------------------------------
# survival
# ---------------------------------------------------------------------------

def test_min_param_is_product_over_intersecting_sets():
    params = MvgParams(3, theta={(1,): 0.5, (2,): 0.6, (3,): 0.7, (1, 2): 0.9, (1, 2, 3): 0.8})
    assert mvg_min_param(params, (1,)) == pytest.approx(0.5 * 0.9 * 0.8)
    assert mvg_min_param(params, (3,)) == pytest.approx(0.7 * 0.8)
    assert mvg_min_param(params, (2, 3)) == pytest.approx(0.6 * 0.7 * 0.9 * 0.8)
    assert mvg_min_param(params, (1, 2, 3)) == pytest.approx(theta_all(params))


def test_joint_survival_worked_example():
    # one shared shock at 0.9 plus singletons 0.8: P(all three survive step 0)
    params = MvgParams(3, theta={(1,): 0.8, (2,): 0.8, (3,): 0.8, (1, 2, 3): 0.9})
    assert mvg_joint_survival(params, [0, 0, 0]) == pytest.approx(0.8**3 * 0.9, abs=1e-12)
    # the shared shock enters through the largest threshold only
    assert mvg_joint_survival(params, [2, 0, 0]) == pytest.approx(
        0.8**3 * 0.8**2 * 0.9**3, abs=1e-12
    )
    assert mvg_joint_survival(params, [-1, -1, -1]) == 1.0


def test_joint_survival_agrees_with_min_param():
    params = all_pairs_params(4, 0.85, 0.95)
    for K in [(1,), (2, 4), (1, 2, 3, 4)]:
        k = [3 if i in K else -1 for i in range(1, 5)]
        assert mvg_joint_survival(params, k) == pytest.approx(
            mvg_min_param(params, K) ** 4, rel=1e-12
        )


def test_joint_survival_exchangeable_matches_general():
    n = 5
    exch = MvgParams(n, exchangeable_levels=[0.9, 0.95, 1.0, 1.0, 0.99])
    theta = {frozenset([i]): 0.9 for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            theta[frozenset([i, j])] = 0.95
    theta[frozenset(range(1, n + 1))] = 0.99
    general = MvgParams(n, theta=theta)
    rng = np.random.default_rng(17)
    for _ in range(25):
        k = rng.integers(-1, 6, size=n).tolist()
        assert mvg_joint_survival(exch, k) == pytest.approx(
            mvg_joint_survival(general, k), rel=1e-12
        )
    for K in [(1,), (2, 3), (1, 4, 5)]:
        assert mvg_min_param(exch, K) == pytest.approx(mvg_min_param(general, K), rel=1e-12)


def test_joint_survival_validation():
    params = MvgParams(2, theta={(1, 2): 0.5})
    with pytest.raises(ValidationError):
        mvg_joint_survival(params, [0])
    with pytest.raises(ValidationError):
        mvg_joint_survival(params, [0, -2])


def test_joint_survival_against_simulation():
    params = MvgParams(3, theta={(1,): 0.8, (2,): 0.8, (3,): 0.8, (1, 2, 3): 0.9})
    want = mvg_joint_survival(params, [1, 0, 2])
    x = sample_mvg(params, 200_000, seed=2024)
    hit = (x[:, 0] > 1) & (x[:, 1] > 0) & (x[:, 2] > 2)
    phat = hit.mean()
    sigma = math.sqrt(want * (1 - want) / x.shape[0])
    assert abs(phat - want) <= 3 * sigma + 1e-12


# ---------------------------------------------------------------------------
# marginalization
# ---------------------------------------------------------------------------

def test_marginal_keeps_sub_vector_law():
    params = MvgParams(
        4,
        theta={(1,): 0.7, (2,): 0.8, (3,): 0.9, (4,): 0.6, (1, 3): 0.95, (2, 3, 4): 0.9},
    )
    sub = mvg_marginal(params, (2, 3))  # re-indexed to components 1, 2
    assert sub.n == 2
    for k2, k3 in product((-1, 0, 2, 5), repeat=2):
        full = mvg_joint_survival(params, [-1, k2, k3, -1])
        assert mvg_joint_survival(sub, [k2, k3]) == pytest.approx(full, rel=1e-12)


def test_marginal_exchangeable():
    params = MvgParams(4, exchangeable_levels=[0.9, 0.95, 1.0, 0.99])
    sub = mvg_marginal(params, (1, 4))
    assert sub.exchangeable
    for k in ([0, 0], [3, 1], [-1, 2]):
        full = mvg_joint_survival(params, [k[0], -1, -1, k[1]])
        assert mvg_joint_survival(sub, k) == pytest.approx(full, rel=1e-12)


def test_single_component_marginal_is_geometric():
    params = all_pairs_params(3, 0.8, 0.9)
    sub = mvg_marginal(params, (2,))
    theta = mvg_min_param(params, (2,))
    g = Geometric(1.0 - theta)
    for m in range(6):
        assert mvg_joint_survival(sub, [m]) == pytest.approx(g.survival(m), rel=1e-12)


# ---------------------------------------------------------------------------
# factorial moments
# ---------------------------------------------------------------------------

def test_geometric_factorial_moment_against_series():
    theta = 0.85
    pmf = (1 - theta) * theta ** np.arange(4000)
    xs = np.arange(4000, dtype=float)
    for p in (1, 2, 3):
        falling = np.ones_like(xs)
        for i in range(p):
            falling *= xs - i
        want = float(np.dot(falling, pmf))
        assert geometric_factorial_moment(theta, p) == pytest.approx(want, rel=1e-10)
    with pytest.raises(ValidationError):
        geometric_factorial_moment(1.0, 1)
    with pytest.raises(ValidationError):
        geometric_factorial_moment(0.5, 0)


def test_factorial_terms_structure():
    params = all_pairs_params(5, 0.9, 0.95)
    terms = factorial_moment_terms(params, r=3, n=5, p=2)
    assert isinstance(terms, FactorialMomentTerms)
    assert len(terms.S) == 3
    assert terms.value() == pytest.approx(mvg_orderstat_factorial_moment(params, 3, 5, 2))
    assert terms.value() == pytest.approx(math.fsum(terms.signed_terms()) * 2.0)
    assert terms.cancellation_ratio() >= 1.0


@pytest.mark.parametrize("n,seed,zero_shock", [(3, 1, False), (7, 2, True), (9, 3, False), (12, 4, False)])
def test_factorial_terms_match_per_subset_sums(n, seed, zero_shock):
    """Every S_j against its definition: one mvg_min_param per kept subset K."""
    params = sparse_general_params(np.random.default_rng(seed), n, zero_shock)
    for p in (1, 2):
        terms = factorial_moment_terms(params, r=n, n=n, p=p)
        for j, got in enumerate(terms.S):
            thetas = [mvg_min_param(params, K) for K in combinations(range(1, n + 1), n - j)]
            want = math.fsum((t / (1.0 - t)) ** p for t in thetas)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (p, j)


def test_factorial_terms_exchangeable_matches_general():
    exch = MvgParams(4, exchangeable_levels=[0.85, 0.97, 1.0, 0.995])
    theta = {frozenset([i]): 0.85 for i in range(1, 5)}
    for i in range(1, 5):
        for j in range(i + 1, 5):
            theta[frozenset([i, j])] = 0.97
    theta[frozenset([1, 2, 3, 4])] = 0.995
    general = MvgParams(4, theta=theta)
    for r in range(1, 5):
        for p in (1, 2, 3):
            a = mvg_orderstat_factorial_moment(exch, r, 4, p)
            b = mvg_orderstat_factorial_moment(general, r, 4, p)
            assert a == pytest.approx(b, rel=1e-11)


def test_minimum_rank_reduces_to_geometric():
    params = all_pairs_params(4, 0.8, 0.9)
    theta = mvg_min_param(params, (1, 2, 3, 4))
    for p in (1, 2):
        assert mvg_orderstat_factorial_moment(params, 1, 4, p) == pytest.approx(
            geometric_factorial_moment(theta, p), rel=1e-12
        )


def test_rank_sum_identity_for_means():
    # summing E X_{r:n} over r recovers the sum of marginal means
    params = MvgParams(
        3, theta={(1,): 0.6, (2,): 0.75, (3,): 0.8, (1, 2): 0.9, (1, 2, 3): 0.95}
    )
    total = math.fsum(mvg_orderstat_factorial_moment(params, r, 3, 1) for r in (1, 2, 3))
    marg = math.fsum(
        geometric_factorial_moment(mvg_min_param(params, (i,)), 1) for i in (1, 2, 3)
    )
    assert total == pytest.approx(marg, rel=1e-11)


def test_orderstat_survival_matches_rectangle_path():
    """Subset-minima expansion vs the generic dependent-model class split."""
    params = MvgParams(
        4, theta={(1,): 0.7, (2,): 0.75, (3,): 0.8, (4,): 0.7, (1, 2, 3, 4): 0.98}
    )
    model = MvgModel(params)
    for r in range(1, 5):
        for m in range(-1, 25):
            a = mvg_orderstat_survival(params, r, 4, m)
            for form in ("low", "high"):  # a forced form reads the rectangle class counts
                b = survival_orderstat(model, r, 4, m, form=form)
                assert a == pytest.approx(b, abs=1e-9)


def test_orderstat_survival_exchangeable_path():
    exch = MvgParams(5, exchangeable_levels=[0.8, 1.0, 1.0, 1.0, 0.99])
    model = MvgModel(exch)
    for r in (1, 3, 5):
        for m in range(0, 20, 3):
            for form in ("low", "high"):
                assert mvg_orderstat_survival(exch, r, 5, m) == pytest.approx(
                    survival_orderstat(model, r, 5, m, form=form), abs=1e-9
                )


def test_orderstat_survival_thresholds_at_once():
    rng = np.random.default_rng(7)
    ms = np.arange(-1, 30)
    for params in (
        sparse_general_params(rng, 6, zero_shock=True),
        MvgParams(5, exchangeable_levels=[0.8, 0.95, 1.0, 1.0, 0.99]),
    ):
        n = params.n
        for r in range(1, n + 1):
            got = mvg_orderstat_survival(params, r, n, ms)
            assert isinstance(got, np.ndarray)
            assert got.tolist() == [mvg_orderstat_survival(params, r, n, int(m)) for m in ms]
            assert got[0] == 1.0  # m = -1


def test_closed_form_vs_truncated_series():
    params = all_pairs_params(4, 0.85, 0.95)
    model = MvgModel(params)
    dist = Geometric(1.0 - max(mvg_min_param(params, (i,)) for i in range(1, 5)))
    for r in (1, 2, 4):
        for p in (1, 2):
            req = MomentRequest(r=r, n=4, p=p, d=5e-7)
            plan = plan_generic(lambda m: dist.tail_moment(p, m), req, j0=1)
            truncated = approx_moment(model, req, plan).value
            closed = factorial_to_raw(
                [mvg_orderstat_factorial_moment(params, r, 4, q) for q in range(1, p + 1)]
            )[p - 1]
            assert abs(closed - truncated) <= 1e-6, (r, p, closed - truncated)
            assert closed >= truncated - 1e-12  # partial sums sit below the series


def test_mean_var_golden_row_spot_values():
    # ten exchangeable components, singleton level 0.9 and pair level 0.99
    params = MvgParams(10, exchangeable_levels=[0.9, 0.99] + [1.0] * 8)
    mean1, var1 = mvg_orderstat_mean_var(params, 1, 10)
    assert mean1 == pytest.approx(0.285, abs=1e-3)
    assert var1 == pytest.approx(0.366, abs=1e-3)
    mean10, var10 = mvg_orderstat_mean_var(params, 10, 10)
    assert mean10 == pytest.approx(14.208, abs=1e-3)
    assert var10 == pytest.approx(42.216, abs=1e-3)


def test_moment_validation():
    params = MvgParams(2, theta={(1, 2): 0.5})
    with pytest.raises(ValidationError):
        mvg_orderstat_factorial_moment(params, 0, 2, 1)
    with pytest.raises(ValidationError):
        mvg_orderstat_factorial_moment(params, 1, 3, 1)
    with pytest.raises(ValidationError):
        mvg_orderstat_factorial_moment(params, 1, 2, 0)


# ---------------------------------------------------------------------------
# factorial -> raw conversion
# ---------------------------------------------------------------------------

def test_stirling2_rows():
    assert stirling2_row(0) == [1]
    assert stirling2_row(1) == [0, 1]
    assert stirling2_row(4) == [0, 1, 7, 6, 1]
    assert stirling2_row(6)[2] == 31


def test_factorial_to_raw_on_geometric():
    theta = 0.7
    g = Geometric(1.0 - theta)
    pmf = g.pmf_array(2000)
    xs = np.arange(2001, dtype=float)
    facts = [geometric_factorial_moment(theta, p) for p in (1, 2, 3)]
    raws = factorial_to_raw(facts)
    for p in (1, 2, 3):
        want = float(np.dot(xs**p, pmf))
        assert raws[p - 1] == pytest.approx(want, rel=1e-10)
    with pytest.raises(ValidationError):
        factorial_to_raw([])
