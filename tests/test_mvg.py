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
    NumericError,
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
from lifemoments import mvg
from lifemoments.mvg import _factorial_sum, _lattice, _level_product, _orderstat_weight, _subset_minima


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


def test_min_param_equals_the_subset_table_bit_for_bit():
    # tiny factors and a zero shock: one product rule, in stored-shock order,
    # for the single-subset definition and the 2^n table
    params = MvgParams(4, theta={
        (1,): 0.0005, (1, 2): 0.9, (2, 3): 0.7, (3,): 0.0, (4,): 0.95, (2, 4): 0.0002, (1, 2, 3, 4): 0.99,
    })
    for k in range(1, 5):
        table, mult = _subset_minima(params, k)
        # the table lists the size-k subsets in increasing bit-mask order
        subsets = [[i + 1 for i in range(4) if u >> i & 1] for u in range(16) if bin(u).count("1") == k]
        assert mult == 1
        assert [mvg_min_param(params, K) for K in subsets] == table.tolist()
    # exchangeable, with a zero level and levels of 1: every size-k subset has
    # the law of the prefix {1..k}, so one value stands for C(n, k) subsets
    params = MvgParams(6, exchangeable_levels=[0.8, 1.0, 0.95, 0.0, 1.0, 0.999])
    rng = np.random.default_rng(7)
    for k in range(1, 7):
        table, mult = _subset_minima(params, k)
        assert isinstance(table, np.ndarray) and mult == math.comb(6, k)
        K = rng.choice(np.arange(1, 7), size=k, replace=False).tolist()
        assert table.tolist() == [mvg_min_param(params, K)]
        assert _subset_minima(params, k)[0] is table  # kept, not rebuilt


@pytest.mark.parametrize("seed", range(3))
def test_lattice_with_forced_coordinates_reads_min_param(seed):
    """theta(forced | S) over the subsets S of coordinates in any order: bit
    for bit the single-subset definition when nothing is forced (products
    in stored-shock order either way), and to rounding otherwise."""
    rng = np.random.default_rng(seed)
    general = sparse_general_params(rng, 6, zero_shock=True)
    exch = MvgParams(6, exchangeable_levels=[0.8, 1.0, 0.95, 0.0, 1.0, 0.999])
    for params in (general, exch):
        for forced_size in (0, 1, 2):
            perm = (rng.permutation(6) + 1).tolist()
            forced, coords = perm[:forced_size], perm[forced_size : forced_size + int(rng.integers(0, 5))]
            table = _lattice(params, coords, forced)
            assert table.shape == (1 << len(coords),)
            for mask, got in enumerate(table.tolist()):
                K = set(forced) | {c for b, c in enumerate(coords) if mask >> b & 1}
                want = mvg_min_param(params, K) if K else 1.0
                if forced or params.exchangeable:
                    assert got == pytest.approx(want, rel=1e-14, abs=0.0)
                else:
                    assert got == want


def test_subset_tables_are_read_only():
    # the slices are the cache itself: a write through one would corrupt
    # every later sum on the parameter set
    general = sparse_general_params(np.random.default_rng(3), 5)
    exch = MvgParams(3, exchangeable_levels=[0.8, 0.9, 1.0])
    tables = [_subset_minima(general, k)[0] for k in range(6)] + [_subset_minima(exch, k)[0] for k in (1, 2, 3)]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[:] = 0.5


@pytest.mark.parametrize("n,seed", [(2, 1), (4, 2), (6, 3), (8, 4)])
def test_exchangeable_table_matches_the_equivalent_general_table(n, seed):
    rng = np.random.default_rng(seed)
    levels = [float(t) for t in rng.uniform(0.8, 1.0, size=n)]
    levels[int(rng.integers(n))] = 1.0
    exch = MvgParams(n, exchangeable_levels=levels)
    general = MvgParams(n, theta={
        K: levels[s - 1] for s in range(1, n + 1) for K in combinations(range(1, n + 1), s)
    })
    for k in range(1, n + 1):
        one, mult = _subset_minima(exch, k)
        table, ones = _subset_minima(general, k)
        assert (mult, ones, len(table)) == (math.comb(n, k), 1, math.comb(n, k))
        assert table.tolist() == pytest.approx([one[0]] * mult, rel=1e-12, abs=0.0)


def test_level_product_never_forms_the_exponent_of_a_level_of_one():
    levels = [0.7, 1.0, 0.9, 1.0, 0.0]

    def exponent(s):
        assert levels[s - 1] != 1.0, f"exponent of level {s} formed"
        return {1: 2, 3: 3, 5: 0}[s]

    assert _level_product(levels, exponent) == pytest.approx(0.7**2 * 0.9**3, rel=1e-15)
    # a zero level with a positive exponent, and a huge exponent, give 0
    assert _level_product(levels, lambda s: 1) == 0.0
    assert _level_product([0.5], lambda s: 1 << 61) == 0.0


def test_large_exchangeable_n_underflows_to_zero():
    # the exponents C(n, s) are far beyond the float range at n = 1100
    params = MvgParams(1100, exchangeable_levels=[0.5] * 1100)
    assert mvg_min_param(params, range(1, 1101)) == 0.0
    assert mvg_joint_survival(params, [0] * 1100) == 0.0
    assert mvg_marginal(params, [1]).exchangeable_levels == (0.0,)


def test_orderstat_closed_forms_refuse_counts_beyond_float():
    params = MvgParams(1100, exchangeable_levels=[0.7] + [1.0] * 1099)
    # the weight C(1099, 550) does not fit in a float
    with pytest.raises(NumericError, match="float range"):
        mvg_orderstat_factorial_moment(params, 550, 1100, 1)
    with pytest.raises(NumericError, match="float range"):
        mvg_orderstat_survival(params, 550, 1100, 5)
    # at r = n every weight is 1 but the count C(1100, j) leaves the float range
    with pytest.raises(NumericError, match="float range"):
        mvg_orderstat_mean_var(params, 1100, 1100)


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


def _minima_by_size(params: MvgParams) -> list[tuple[list[float], int]]:
    """theta(K) of the size-(n-j) subsets K, j = 0..n-1, one mvg_min_param per
    subset (one per size under exchangeable parameters), and how many subsets
    each value stands for."""
    n = params.n
    if params.exchangeable:
        return [([mvg_min_param(params, range(1, k + 1))], math.comb(n, k)) for k in range(n, 0, -1)]
    return [([mvg_min_param(params, K) for K in combinations(range(1, n + 1), k)], 1) for k in range(n, 0, -1)]


def _per_subset_sums(minima, term) -> list[float]:
    """The sum of ``term(theta(K))`` per size: one Python expression per subset,
    summed by math.fsum (the sums as written before the array kernels)."""
    return [float(mult) * math.fsum([term(t) for t in thetas]) for thetas, mult in minima]


@pytest.mark.parametrize("make", [
    *(lambda n=n: sparse_general_params(np.random.default_rng(100 + n), n) for n in (4, 8, 12, 16)),
    lambda: sparse_general_params(np.random.default_rng(108), 8, zero_shock=True),
    lambda: MvgParams(9, exchangeable_levels=[0.85, 0.97, 1.0, 0.995, 0.0, 1.0, 0.999, 0.9, 1.0]),
], ids=["n4", "n8", "n12", "n16", "n8_zero_shock", "exchangeable"])
def test_subset_sum_kernels_match_the_per_subset_formulas_bit_for_bit(make):
    """S_{j,p} and the survival expansion equal, to the last bit, the per-subset
    formulas g(theta)^p and 1 - theta^(m+1) summed by fsum."""
    params = make()
    n, minima = params.n, _minima_by_size(params)
    hexes = lambda xs: [float(x).hex() for x in xs]
    for p in (1, 2, 3):
        want = _per_subset_sums(minima, lambda t: (t / (1.0 - t)) ** p)
        for r in range(1, n + 1):
            assert hexes(factorial_moment_terms(params, r, n, p).S) == hexes(want[:r]), (p, r)
    ms = list(range(-1, 41))
    sums = [_per_subset_sums(minima, lambda t, e=max(m + 1, 0): 1.0 - t**e) for m in ms]
    for r in (1, 2, n // 2, n - 1, n) if n > 12 else range(1, n + 1):
        weights = [float((-1) ** (r - 1 - j) * math.comb(n - j - 1, n - r)) for j in range(r)]
        want = [min(1.0, max(0.0, 1.0 - math.fsum([w * s for w, s in zip(weights, row)]))) for row in sums]
        assert hexes(mvg_orderstat_survival(params, r, n, ms)) == hexes(want), r


def listed_factorial_sum(params: MvgParams, j: int, p: int) -> float:
    """``_factorial_sum`` as a list-fed reference: the size's terms copied
    into a list and summed by math.fsum."""
    thetas, mult = _subset_minima(params, params.n - j)
    g = thetas / (1.0 - thetas)
    return float(mult) * math.fsum((g if p == 1 else np.float_power(g, p)).tolist())


def listed_orderstat_survival(params: MvgParams, r: int, n: int, ms) -> list[float]:
    """``mvg_orderstat_survival`` as a list-fed reference: one float_power per
    threshold and size, each copied into a list and summed by math.fsum."""
    sizes = []
    for j in range(r):
        thetas, mult = _subset_minima(params, n - j)
        sums = [float(mult) * math.fsum((1.0 - np.float_power(thetas, m + 1)).tolist()) for m in ms]
        sizes.append((float(_orderstat_weight(r, n, j)), sums))
    return [min(1.0, max(0.0, 1.0 - math.fsum([w * sums[i] for w, sums in sizes]))) for i in range(len(ms))]


BELOW_ONE = float(np.nextafter(1.0, 0.0))


def edge_params(n: int) -> MvgParams:
    """Singleton shocks plus a shock of theta 0 and one just below 1."""
    theta = {(i,): 0.6 + 0.03 * i for i in range(1, n + 1)}
    theta[(1, n)] = 0.0
    theta[tuple(range(2, n))] = BELOW_ONE
    return MvgParams(n, theta=theta)


BIT_IDENTITY_PARAMS = {
    "ring12": lambda: ring_params(np.random.default_rng(212), 12),
    "ring16": lambda: ring_params(np.random.default_rng(216), 16),
    "exchangeable": lambda: MvgParams(9, exchangeable_levels=[0.85, 0.97, 1.0, 0.995, 0.0, 1.0, 0.999, 0.9, 1.0]),
    "exchangeable_edges": lambda: MvgParams(6, exchangeable_levels=[BELOW_ONE, 0.0, 1.0, 0.9, BELOW_ONE, 1.0]),
    "general_edges": lambda: edge_params(7),
}


@pytest.mark.parametrize("label", BIT_IDENTITY_PARAMS)
def test_buffer_sums_equal_the_list_fed_sums(label, monkeypatch):
    """The exact sums read from array buffers, and the survival powers taken a
    block of thresholds at a time, equal the list-fed, one-threshold-at-a-time
    reference to the last bit, in one block or in many."""
    make = BIT_IDENTITY_PARAMS[label]
    params = make()
    n = params.n
    for j in range(n):
        for p in (1, 2, 3):
            assert _factorial_sum(params, n, j, p) == listed_factorial_sum(params, j, p), (j, p)
    ranks = (1, 2, n // 2, n - 1, n)
    ms = list(range(-1, 60))
    whole = {r: mvg_orderstat_survival(make(), r, n, ms) for r in ranks}
    for r in ranks:
        assert np.array_equal(whole[r], listed_orderstat_survival(params, r, n, ms)), r
    # every size's terms in at least three blocks of thresholds
    blocks = []
    real = mvg._row_fsums
    monkeypatch.setattr(mvg, "_LATTICE_BLOCK", 16)
    monkeypatch.setattr(mvg, "_row_fsums", lambda block: blocks.append(len(block)) or real(block))
    for r in ranks:
        blocks.clear()
        assert np.array_equal(mvg_orderstat_survival(make(), r, n, ms), whole[r]), r
        assert len(blocks) >= 3 * r and sum(blocks) == r * len(ms)


def test_survival_thresholds_empty_minus_one_and_scalar():
    params = ring_params(np.random.default_rng(212), 12)
    for r in (1, 6, 12):
        empty = mvg_orderstat_survival(params, r, 12, [])
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        assert mvg_orderstat_survival(params, r, 12, -1) == 1.0
        for m in (0, 7, np.int64(7)):
            got = mvg_orderstat_survival(params, r, 12, m)
            assert type(got) is float and got == listed_orderstat_survival(params, r, 12, [int(m)])[0]


@pytest.mark.parametrize("m,shown", [(2.0, "2.0"), ([1, 2.5], "2.5"), ("3", "'3'")])
def test_threshold_errors_name_the_given_value(m, shown):
    params = MvgParams(3, exchangeable_levels=[0.9, 0.95, 0.99])
    with pytest.raises(ValidationError, match=rf"^threshold m={shown} is not an integer$"):
        mvg_orderstat_survival(params, 3, 3, m)
    with pytest.raises(ValidationError, match=r"^threshold m=-2 must be >= -1$"):
        mvg_orderstat_survival(params, 3, 3, [0, -2])


@pytest.mark.parametrize("n,r", [(1100, 300), (200, 100)])
def test_cancellation_ratio_is_not_fooled_by_a_value_beyond_the_bracket(n, r):
    # IID geometric, theta = 0.7: the alternating sum leaves a value far above
    # every moment, which alone would make the cancellation look mild
    params = MvgParams(n, exchangeable_levels=[0.7] + [1.0] * (n - 1))
    for p in (1, 2):
        terms = factorial_moment_terms(params, r, n, p)
        assert terms.bracket == pytest.approx(math.factorial(p) * n * (0.7 / 0.3) ** p, rel=1e-14)
        assert abs(terms.value()) > terms.bracket  # returned as computed
        assert terms.cancellation_ratio() > 1e16


def test_cancellation_ratio_of_values_within_the_bracket_is_unchanged():
    from test_acceptance import MVG_EXCH_ROWS, _levels_vector, _mvg_general_rows

    rows = [MvgParams(10, theta=theta) for theta in _mvg_general_rows()]
    rows += [MvgParams(10, exchangeable_levels=_levels_vector(levels)) for levels in MVG_EXCH_ROWS]
    for params in rows:
        for r in range(1, 11):
            for p in (1, 2):
                terms = factorial_moment_terms(params, r, 10, p)
                assert abs(terms.value()) <= terms.bracket
                peak = max(abs(t) for t in terms.signed_terms()) * math.factorial(p)
                assert terms.cancellation_ratio() == peak / abs(terms.value())


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


def ring_params(rng: np.random.Generator, n: int) -> MvgParams:
    """n singleton shocks plus n pair shocks around a random ring."""
    order = (rng.permutation(n) + 1).tolist()
    theta = {frozenset([i]): float(rng.uniform(0.85, 1.0)) for i in range(1, n + 1)}
    for k in range(n):
        theta[frozenset([order[k], order[(k + 1) % n]])] = float(rng.uniform(0.95, 1.0))
    return MvgParams(n, theta=theta)


def _warm_cold_params(label: str):
    """A constructor of fresh parameters for each case of the warm/cold test."""
    from test_acceptance import MVG_EXCH_ROWS, _levels_vector, _mvg_general_rows

    rows, levels = _mvg_general_rows(), _levels_vector(MVG_EXCH_ROWS[0])
    return {
        "c4_general1": lambda: MvgParams(10, theta=rows[0]),
        "c4_general2": lambda: MvgParams(10, theta=rows[1]),
        "c4_exch1": lambda: MvgParams(10, exchangeable_levels=levels),
        "ring16": lambda: ring_params(np.random.default_rng(16), 16),
        "exchangeable": lambda: MvgParams(9, exchangeable_levels=[0.85, 0.97, 1.0, 0.995, 0.0, 1.0, 0.999, 0.9, 1.0]),
    }[label]


@pytest.mark.parametrize("label", ["c4_general1", "c4_general2", "c4_exch1", "ring16", "exchangeable"])
def test_warm_and_cold_subset_sums_give_the_same_bits(label):
    """Ranks and orders in a scrambled sequence on one parameter set, whose
    per-(size, order) sums fill as they go, against fresh parameters per
    call, by float.hex."""
    make = _warm_cold_params(label)
    warm = make()
    n = warm.n
    ranks = (1, 2, n // 2, n - 1, n) if n > 12 else range(1, n + 1)
    calls = [("mean_var", r, 2) for r in ranks] + [("fm", r, p) for r in ranks for p in (1, 2, 3)]
    hexes = lambda xs: [float(x).hex() for x in xs]
    for i in np.random.default_rng(n).permutation(len(calls)):
        kind, r, p = calls[i]
        if kind == "mean_var":
            got, want = mvg_orderstat_mean_var(warm, r, n), mvg_orderstat_mean_var(make(), r, n)
        else:
            got, want = factorial_moment_terms(warm, r, n, p), factorial_moment_terms(make(), r, n, p)
            assert hexes([mvg_orderstat_factorial_moment(warm, r, n, p)]) == hexes([want.value()])
            got, want = (*got.S, got.bracket, got.value()), (*want.S, want.bracket, want.value())
        assert hexes(got) == hexes(want), (kind, r, p)
    # the p = 1 sums skip the pow: it returns its base exactly
    for k in range(1, n + 1):
        thetas = _subset_minima(warm, k)[0]
        g = thetas / (1.0 - thetas)
        assert np.float_power(g, 1).tobytes() == g.tobytes(), k


def test_a_rank_table_evaluates_each_size_sum_once(monkeypatch):
    """Mean and variance for every rank read each (size, order) sum from one
    evaluation; a second table and the factorial moments evaluate none."""
    import lifemoments.mvg as mvg

    params = sparse_general_params(np.random.default_rng(11), 10)
    sizes = []
    real = mvg._subset_minima

    def counting(params, k):
        sizes.append(k)
        return real(params, k)

    monkeypatch.setattr(mvg, "_subset_minima", counting)
    table = [mvg_orderstat_mean_var(params, r, 10) for r in range(1, 11)]
    assert sorted(sizes) == sorted(list(range(1, 11)) * 2)
    assert sorted(params._factorial_sums) == [(k, p) for k in range(1, 11) for p in (1, 2)]
    assert [mvg_orderstat_mean_var(params, r, 10) for r in range(1, 11)] == table
    for r in range(1, 11):
        mvg_orderstat_factorial_moment(params, r, 10, 1)
        mvg_orderstat_factorial_moment(params, r, 10, 2)
    assert len(sizes) == 20


def test_refusals_survive_a_warm_cache():
    levels = [0.7] + [1.0] * 1099
    warm = MvgParams(1100, exchangeable_levels=levels)
    mean, var = mvg_orderstat_mean_var(warm, 300, 1100)
    # cancellation debris, returned as computed until the closed forms
    # refuse it (ROADMAP item 3)
    assert math.isfinite(mean) and var == -math.inf
    # every size of r = 550 is kept from r = 300, but its weight C(1099, 550)
    # does not fit in a float, warm or cold
    for params in (warm, MvgParams(1100, exchangeable_levels=levels)):
        with pytest.raises(NumericError, match=r"weight C\(1099, 550\) or subset count C\(1100, 1100\)"):
            mvg_orderstat_mean_var(params, 550, 1100)
    # at r = n the first count beyond the float range is C(1100, 712); that
    # size is never kept, so asking again refuses again
    for _ in range(2):
        with pytest.raises(NumericError, match=r"subset count C\(1100, 712\) exceeds"):
            mvg_orderstat_mean_var(warm, 1100, 1100)
        assert (713, 1) in warm._factorial_sums and (712, 1) not in warm._factorial_sums


def test_a_rank_forms_its_weights_once(monkeypatch):
    """A rank's weights are formed once: its two moment orders, the bracket,
    a warm sum, the value, the cancellation ratio and the signed terms share
    them."""
    import lifemoments.mvg as mvg

    formed = []
    real = mvg._orderstat_weight
    monkeypatch.setattr(mvg, "_orderstat_weight", lambda r, n, j: formed.append((r, n, j)) or real(r, n, j))
    mvg._float_weights.cache_clear()
    params = MvgParams(200, exchangeable_levels=[0.7] + [1.0] * 199)
    mvg_orderstat_mean_var(params, 100, 200)
    assert formed == [(100, 200, j) for j in range(100)]
    formed.clear()
    terms = factorial_moment_terms(params, 100, 200, 2)
    terms.value(), terms.cancellation_ratio(), terms.signed_terms()
    assert formed == []
    # the public constructor gives the same bits
    fresh = FactorialMomentTerms(r=100, n=200, p=2, S=terms.S, bracket=terms.bracket)
    assert fresh == terms
    assert [t.hex() for t in fresh.signed_terms()] == [
        (real(100, 200, j) * s).hex() for j, s in enumerate(terms.S)
    ]
    assert fresh.cancellation_ratio() == terms.cancellation_ratio()


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
