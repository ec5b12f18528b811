"""Coherent structures, signatures, and system-lifetime moments."""

import math
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from lifemoments import (
    CapacityError,
    FinitePMF,
    Geometric,
    IndependentMarginals,
    JointModel,
    MarginalDist,
    MomentRequest,
    MomentResult,
    MvgModel,
    MvgParams,
    NegBin,
    Poisson,
    SystemStructure,
    TruncationPlan,
    ValidationError,
    alpha_coefficients,
    approx_moment,
    beta_coefficients,
    cut_sets_from_path_sets,
    enumerate_moment,
    exact_moment_finite,
    exchangeable_system_moment,
    factorial_to_raw,
    k_out_of_n_structure,
    maximal_signature,
    minimal_signature,
    moments,
    multinomial_pmf,
    mvg_orderstat_factorial_moment,
    rect_prob,
    signature_from_samaniego,
    signature_set,
    system_factorial_moments_mvg,
    system_mean_var_mvg,
    system_moment_approx,
    system_moment_approx_beta,
    system_moment_exact,
    system_moment_mvg,
    survival_orderstat,
    system_survival,
)
from lifemoments import distributions, systems
from lifemoments.orderstats import _moment, _OrderStat
from lifemoments.mvg import _lattice
from lifemoments.systems import _statistic, _System
from conftest import (
    BRIDGE_CUTS,
    BRIDGE_MINIMAL_SIGNATURE,
    BRIDGE_PATHS,
    random_explicit,
    random_independent,
)
from test_mvg import BIT_IDENTITY_PARAMS


def fair_bits(n: int, exchangeable: bool = False) -> IndependentMarginals:
    return IndependentMarginals([FinitePMF([0.5, 0.5])] * n, exchangeable=exchangeable)


def random_antichain(rng: np.random.Generator, n: int) -> list[frozenset[int]]:
    """Minimal sets of a random family over 1..n, with singletons for uncovered components."""
    drawn = {
        frozenset(int(i) for i in rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)), replace=False))
        for _ in range(int(rng.integers(1, 9)))
    }
    fam = [S for S in drawn if not any(T < S for T in drawn)]
    covered = frozenset().union(*fam)
    return fam + [frozenset([i]) for i in range(1, n + 1) if i not in covered]


def collection_coefficients(family) -> dict[frozenset[int], int]:
    """Inclusion-exclusion over all 2^s collections of the family."""
    coeff = Counter()
    for size in range(1, len(family) + 1):
        for C in combinations(family, size):
            coeff[frozenset().union(*C)] += (-1) ** (size + 1)
    return {K: c for K, c in coeff.items() if c}


def minimal_transversals(n: int, family) -> set[frozenset[int]]:
    """Brute force: subsets meeting every set, none of whose proper subsets does."""
    hits = [
        frozenset(C)
        for k in range(1, n + 1)
        for C in combinations(range(1, n + 1), k)
        if all(S & set(C) for S in family)
    ]
    return {T for T in hits if not any(U < T for U in hits)}


# ---------------------------------------------------------------------------
# structure declarations
# ---------------------------------------------------------------------------

def test_structure_validation():
    with pytest.raises(ValidationError):
        SystemStructure(3)  # no families at all
    with pytest.raises(ValidationError):
        SystemStructure(3, path_sets=[[1], [1, 2]])  # nested
    with pytest.raises(ValidationError):
        SystemStructure(3, path_sets=[[1, 2], [1, 2]])  # duplicate
    with pytest.raises(ValidationError):
        SystemStructure(3, path_sets=[[1, 2]])  # component 3 irrelevant
    with pytest.raises(ValidationError):
        SystemStructure(3, path_sets=[[1, 2, 3], []])
    with pytest.raises(ValidationError):
        SystemStructure(2, path_sets=[[1, 2, 3]])
    with pytest.raises(ValidationError):
        SystemStructure(0, path_sets=[[1]])


def test_integer_arguments_are_refused_not_truncated():
    # int() made these n = 2, 6 trials and a raw TypeError from combinations
    refused = [
        lambda: SystemStructure(2.5, path_sets=[[1, 2]]),
        lambda: SystemStructure(2, path_sets=[[1, 2.0]]),
        lambda: k_out_of_n_structure(4, 2.0),
        lambda: k_out_of_n_structure(4.0, 2),
        lambda: multinomial_pmf(6.5, [0.5, 0.5]),
        lambda: MvgParams(2.0, exchangeable_levels=[0.5, 0.9]),
        lambda: MvgParams(2, theta={(1, 2.0): 0.5}),
        lambda: rect_prob(multinomial_pmf(3, [0.5, 0.5]), [1.0], [], 1),
    ]
    for make in refused:
        with pytest.raises(ValidationError, match="not an integer"):
            make()
    assert SystemStructure(np.int64(2), path_sets=[[np.int64(1), 2]]) == SystemStructure(2, path_sets=[[1, 2]])
    assert k_out_of_n_structure(np.int64(4), np.int64(2)) == k_out_of_n_structure(4, 2)
    assert multinomial_pmf(np.int64(6), [0.5, 0.5]).trials == 6


def test_structure_rejects_contradictory_families():
    # parallel paths with series cuts: the alpha and beta routes disagreed (0.75 vs 0.25)
    with pytest.raises(ValidationError):
        SystemStructure(2, path_sets=[[1], [2]], cut_sets=[[1], [2]])
    with pytest.raises(ValidationError):
        SystemStructure(5, path_sets=BRIDGE_PATHS, cut_sets=BRIDGE_CUTS[:-1] + ({2, 4},))
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        paths = random_antichain(rng, n)
        SystemStructure(n, path_sets=paths, cut_sets=cut_sets_from_path_sets(n, paths))
    # above the lattice cap both families stay declarations
    singletons = [[i] for i in range(1, 22)]
    SystemStructure(21, path_sets=singletons, cut_sets=singletons)


def test_structure_equality_and_order_insensitivity():
    a = SystemStructure(5, path_sets=BRIDGE_PATHS)
    b = SystemStructure(5, path_sets=reversed([sorted(P) for P in BRIDGE_PATHS]))
    assert a == b
    assert hash(a) == hash(b)
    assert a != SystemStructure(5, path_sets=BRIDGE_PATHS, cut_sets=BRIDGE_CUTS)


def test_nested_check_crosses_sizes_only():
    # 12,870 path sets of one size and 11,440 cut sets of another: every pair
    # of one family was compared (10.8 s); sets of one size cannot nest
    start = time.perf_counter()
    k_out_of_n_structure(16, 8)
    assert time.perf_counter() - start < 2.0
    with pytest.raises(ValidationError, match=r"sets \[1, 2\] and \[1, 2, 4\] are nested"):
        SystemStructure(5, path_sets=[[1, 2, 4], [3, 4, 5], [2, 3], [1, 2]])
    with pytest.raises(ValidationError, match="are nested"):
        SystemStructure(4, cut_sets=[[1, 2], [3], [4], [1, 2, 3, 4]])


def test_k_out_of_n_families():
    s = k_out_of_n_structure(4, 2, kind="G")  # works while 2 work
    assert all(len(P) == 2 for P in s.path_sets)
    assert len(s.path_sets) == 6
    assert all(len(C) == 3 for C in s.cut_sets)
    f = k_out_of_n_structure(4, 2, kind="F")  # fails when 2 fail
    assert all(len(P) == 3 for P in f.path_sets)
    assert all(len(C) == 2 for C in f.cut_sets)
    with pytest.raises(ValidationError):
        k_out_of_n_structure(4, 5)
    with pytest.raises(ValidationError):
        k_out_of_n_structure(4, 2, kind="H")


# ---------------------------------------------------------------------------
# inclusion-exclusion coefficients and signatures
# ---------------------------------------------------------------------------

def test_alpha_series_parallel():
    series = SystemStructure(3, path_sets=[[1, 2, 3]])
    assert alpha_coefficients(series) == {frozenset([1, 2, 3]): 1}
    parallel = SystemStructure(3, path_sets=[[1], [2], [3]])
    assert alpha_coefficients(parallel) == {
        frozenset([1]): 1,
        frozenset([2]): 1,
        frozenset([3]): 1,
        frozenset([1, 2]): -1,
        frozenset([1, 3]): -1,
        frozenset([2, 3]): -1,
        frozenset([1, 2, 3]): 1,
    }
    assert minimal_signature(parallel) == (3, -3, 1)


def test_alpha_bridge_subsets(bridge):
    coeffs = alpha_coefficients(bridge)
    full = frozenset(range(1, 6))
    want = {frozenset(P): 1 for P in BRIDGE_PATHS}
    want[full] = 2
    for i in range(1, 6):
        want[full - {i}] = -1
    assert coeffs == want
    assert minimal_signature(bridge) == BRIDGE_MINIMAL_SIGNATURE
    assert sum(coeffs.values()) == 1


def test_beta_bridge_is_self_dual(bridge):
    # the bridge maps to itself under path/cut duality
    assert maximal_signature(bridge) == BRIDGE_MINIMAL_SIGNATURE


def test_two_of_three_signature():
    s = k_out_of_n_structure(3, 2, kind="G")
    assert minimal_signature(s) == (0, 3, -2)
    assert sum(minimal_signature(s)) == 1


def test_signatures_normalize_on_random_structures():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        s = k_out_of_n_structure(n, k)
        assert sum(minimal_signature(s)) == 1
        assert sum(maximal_signature(s)) == 1


def test_coefficients_match_collection_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        paths, cuts = random_antichain(rng, n), random_antichain(rng, n)
        by_paths, by_cuts = SystemStructure(n, path_sets=paths), SystemStructure(n, cut_sets=cuts)
        assert alpha_coefficients(by_paths) == collection_coefficients(by_paths.path_sets)
        assert beta_coefficients(by_cuts) == collection_coefficients(by_cuts.cut_sets)


def test_collection_cap():
    n = 26
    s = SystemStructure(n, path_sets=[[i] for i in range(1, n + 1)])
    with pytest.raises(CapacityError):
        alpha_coefficients(s)
    three_of_seven = k_out_of_n_structure(7, 3)  # 35 path sets
    with pytest.raises(CapacityError):
        alpha_coefficients(three_of_seven)
    with pytest.raises(CapacityError):
        signature_set(three_of_seven)


def test_lattice_cap():
    """Coefficient tables span all 2^n component subsets, so n is capped even
    for a family of one set."""
    series_20 = SystemStructure(20, path_sets=[range(1, 21)], cut_sets=[[i] for i in range(1, 21)])
    assert alpha_coefficients(series_20) == {frozenset(range(1, 21)): 1}
    parallel_20 = SystemStructure(20, path_sets=[[i] for i in range(1, 21)], cut_sets=[range(1, 21)])
    assert beta_coefficients(parallel_20) == {frozenset(range(1, 21)): 1}
    with pytest.raises(CapacityError):
        alpha_coefficients(SystemStructure(21, path_sets=[range(1, 22)]))
    with pytest.raises(CapacityError):
        beta_coefficients(SystemStructure(21, cut_sets=[range(1, 22)]))


def test_samaniego_conversion_bridge():
    sam = [0, Fraction(1, 5), Fraction(3, 5), Fraction(1, 5), 0]
    assert signature_from_samaniego(sam, 5) == BRIDGE_MINIMAL_SIGNATURE
    # floats snap to the same rationals
    assert signature_from_samaniego([0.0, 0.2, 0.6, 0.2, 0.0], 5) == BRIDGE_MINIMAL_SIGNATURE


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (5, 3), (6, 4)])
def test_samaniego_conversion_k_out_of_n(n, k):
    # the k-out-of-n:G lifetime is X_{n-k+1:n}: the system dies at that failure
    sam = [Fraction(0)] * n
    sam[n - k] = Fraction(1)
    assert signature_from_samaniego(sam, n) == minimal_signature(k_out_of_n_structure(n, k))


def test_samaniego_validation():
    with pytest.raises(ValidationError):
        signature_from_samaniego([1, 0], 3)
    with pytest.raises(ValidationError):
        signature_from_samaniego([Fraction(1, 2), Fraction(1, 4)], 2)
    with pytest.raises(ValidationError):
        signature_from_samaniego([2, -1], 2)


def test_signature_set_bundle(bridge):
    sig = signature_set(bridge, samaniego=[0, Fraction(1, 5), Fraction(3, 5), Fraction(1, 5), 0])
    assert sig.alpha == BRIDGE_MINIMAL_SIGNATURE
    assert sig.beta == BRIDGE_MINIMAL_SIGNATURE
    assert sig.alpha_subsets[frozenset([1, 2])] == 1
    assert sig.samaniego[2] == Fraction(3, 5)
    with pytest.raises(TypeError):
        sig.alpha_subsets[frozenset([1])] = 5
    cuts_only = signature_set(SystemStructure(2, cut_sets=[[1], [2]]))
    assert cuts_only.alpha is None
    assert cuts_only.beta == (2, -1)


def test_cut_sets_from_path_sets():
    got = cut_sets_from_path_sets(5, BRIDGE_PATHS)
    assert set(got) == {frozenset(C) for C in BRIDGE_CUTS}
    assert cut_sets_from_path_sets(3, [[1, 2, 3]]) == (
        frozenset([1]),
        frozenset([2]),
        frozenset([3]),
    )
    assert cut_sets_from_path_sets(3, [[1], [2], [3]]) == (frozenset([1, 2, 3]),)
    knn = k_out_of_n_structure(5, 2)
    assert set(cut_sets_from_path_sets(5, knn.path_sets)) == set(knn.cut_sets)
    with pytest.raises(CapacityError):
        cut_sets_from_path_sets(21, [[i] for i in range(1, 22)])
    rng = np.random.default_rng(43)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        paths = random_antichain(rng, n)
        got = cut_sets_from_path_sets(n, paths)
        assert set(got) == minimal_transversals(n, paths)
        assert list(got) == sorted(got, key=lambda S: (len(S), sorted(S)))


# ---------------------------------------------------------------------------
# system survival
# ---------------------------------------------------------------------------

def test_parallel_survival_fair_bits():
    parallel = SystemStructure(2, path_sets=[[1], [2]])
    assert system_survival(fair_bits(2), parallel, 0) == pytest.approx(0.75, abs=1e-12)
    assert system_survival(fair_bits(2), parallel, 1) == 0.0
    assert system_survival(fair_bits(2), parallel, -1) == 1.0
    with pytest.raises(ValidationError):
        system_survival(fair_bits(2), parallel, -3)


def test_alpha_beta_survival_agree(bridge):
    rng = np.random.default_rng(8)
    for model in (random_explicit(rng, 5, m_max=2), random_independent(rng, 5)):
        for m in range(0, 4):
            a = system_survival(model, bridge, m, form="alpha")
            b = system_survival(model, bridge, m, form="beta")
            assert a == pytest.approx(b, abs=1e-10)
    with pytest.raises(ValidationError):
        system_survival(fair_bits(5), bridge, 0, form="gamma")
    with pytest.raises(ValidationError):
        system_survival(fair_bits(3), bridge, 0)


def test_survival_checks_form_below_zero(bridge):
    """A bad form is refused at every threshold, also where P = 1 needs no series."""
    for form in ("auto", "alpha", "beta"):
        assert system_survival(fair_bits(5), bridge, -1, form=form) == 1.0
    with pytest.raises(ValidationError):
        system_survival(fair_bits(5), bridge, -1, form="gamma")


@pytest.mark.parametrize(
    "model",
    [multinomial_pmf(4, [0.1, 0.2, 0.3, 0.15, 0.25]), random_independent(np.random.default_rng(5), 5)],
    ids=["multinomial", "independent_finite"],
)
def test_survival_past_the_support_reads_its_end(bridge, model):
    # a threshold of 10**12 must not build a 10**12-entry series
    end = model.support_max()
    for form in ("alpha", "beta"):
        assert system_survival(model, bridge, 10**12, form=form) == system_survival(model, bridge, end, form=form)


RANGE_MODELS = {
    "independent": lambda: IndependentMarginals([Poisson(1.0 + 0.3 * j) for j in range(4)] + [NegBin(2.5, 0.4)]),
    "mvg_general": lambda: MvgModel(MvgParams(5, theta={(1,): 0.9, (3,): 0.8, (2, 4): 0.7, (1, 4, 5): 0.95, (2, 3, 5): 0.9})),
    "mvg_exchangeable": lambda: MvgModel(MvgParams(5, exchangeable_levels=[0.8, 0.95, 0.97, 0.99, 0.9])),
    "multinomial": lambda: multinomial_pmf(6, [0.1, 0.2, 0.3, 0.15, 0.25]),
    "explicit": lambda: random_explicit(np.random.default_rng(61), 5, m_max=3),
}


@pytest.mark.parametrize("kind", RANGE_MODELS)
def test_threshold_range_is_the_slice_of_the_series(bridge, kind):
    """Rows m_lo..m_hi of every read equal the series from 0, sliced, bit for
    bit: both statistic kinds in every form, ``counts`` and ``rect_series``."""
    model = RANGE_MODELS[kind]()
    stats = [_OrderStat(model, r, 5, form) for r in range(1, 6) for form in ("auto", "low", "high")]
    stats += [_System(model, form, bridge) for form in ("auto", "alpha", "beta")]
    marks = {2: "count", 1: "low", 4: "up", 5: "count"}
    for m_hi in (0, 4, 9, 40):
        for m_lo in sorted({m for m in (0, 1, m_hi // 3, m_hi - 1, m_hi) if 0 <= m <= m_hi}):
            for stat in stats:
                assert np.array_equal(stat.series(model, m_hi, m_lo), stat.series(model, m_hi)[m_lo:])
            assert np.array_equal(model.counts(marks, m_hi, m_lo), model.counts(marks, m_hi)[m_lo:])
            for low, up in ((frozenset(), frozenset({1, 3})), (frozenset({2, 5}), frozenset({4}))):
                assert np.array_equal(model.rect_series(low, up, m_hi, m_lo), model.rect_series(low, up, m_hi)[m_lo:])


def test_mvg_single_threshold_reads_skip_the_series(bridge):
    # each read built the whole series 0..m: 773 ms and 149 ms at m = 10**6
    model = MvgModel(MvgParams(5, theta={(1,): 0.9, (3,): 0.8, (1, 4, 5): 0.99, (2, 3, 5): 0.99}))
    m = 10**6
    for read in (lambda: system_survival(model, bridge, m), lambda: rect_prob(model, (1, 2), (3,), m)):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            read()
            best = min(best, time.perf_counter() - start)
        assert best < 0.05


def test_survival_against_statistic_enumeration(bridge):
    model = random_explicit(np.random.default_rng(21), 5, m_max=2)
    mins = [model.points[:, sorted(i - 1 for i in P)].min(axis=1) for P in BRIDGE_PATHS]
    t = np.maximum.reduce(mins)
    for m in range(3):
        want = float(model.probs[t > m].sum())
        assert system_survival(model, bridge, m) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------

def test_series_exact_moment():
    series = SystemStructure(2, path_sets=[[1, 2]])
    res = system_moment_exact(fair_bits(2), series, 1)
    assert res.exact
    assert res.value == pytest.approx(0.25, abs=1e-12)


def test_exact_moment_vs_enumeration(bridge):
    rng = np.random.default_rng(14)
    model = random_explicit(rng, 5, m_max=3)
    for p in (1, 2):
        got = system_moment_exact(model, bridge, p).value
        want = enumerate_moment(model, bridge, p)
        assert got == pytest.approx(want, abs=1e-12)
    cuts_only = SystemStructure(5, cut_sets=BRIDGE_CUTS)
    for p in (1, 2):
        got = system_moment_exact(model, cuts_only, p).value
        assert got == pytest.approx(enumerate_moment(model, bridge, p), abs=1e-12)


def test_k_out_of_n_reduces_to_order_statistic():
    rng = np.random.default_rng(6)
    model = random_independent(rng, 4)
    for k in (1, 2, 4):
        g = system_moment_exact(model, k_out_of_n_structure(4, k, "G"), 2).value
        want_g = exact_moment_finite(model, MomentRequest(r=4 - k + 1, n=4, p=2)).value
        assert g == pytest.approx(want_g, abs=1e-10)
        f = system_moment_exact(model, k_out_of_n_structure(4, k, "F"), 2).value
        want_f = exact_moment_finite(model, MomentRequest(r=k, n=4, p=2)).value
        assert f == pytest.approx(want_f, abs=1e-10)


def test_exact_moment_validation(bridge):
    with pytest.raises(ValidationError):
        system_moment_exact(fair_bits(4), bridge, 1)
    with pytest.raises(ValidationError):
        system_moment_exact(fair_bits(5), bridge, 0)
    with pytest.raises(ValidationError):
        system_moment_exact(IndependentMarginals([Poisson(1.0)] * 5), bridge, 1)


# ---------------------------------------------------------------------------
# truncated moments
# ---------------------------------------------------------------------------

def test_approx_poisson_bridge_row(bridge):
    model = IndependentMarginals([Poisson(1.0)] * 5)
    res1 = system_moment_approx(model, bridge, 1, 0.0005)
    assert res1.M0_used == 6
    assert res1.value == pytest.approx(0.877, abs=1e-3)
    res2 = system_moment_approx(model, bridge, 2, 0.0005)
    assert res2.M0_used == 8
    assert res2.value == pytest.approx(1.246, abs=1e-3)


def test_approx_builds_the_cdf_matrix_once(bridge, monkeypatch):
    builds = Counter()
    read = distributions._PrefixCache.read

    def counted(cache, m_max, build):
        return read(cache, m_max, lambda m: builds.update([build.__qualname__]) or build(m))

    monkeypatch.setattr(distributions._PrefixCache, "read", counted)
    got = system_moment_approx(IndependentMarginals([Poisson(1.0)] * 5), bridge, 2, 0.0005)
    # one cdf table and one log pmf per marginal object (the five coordinates
    # share the cdf, and the planner's quantile the log pmf), no class counts
    assert builds == {"MarginalDist.cdf_array": 1, "Poisson._logpmf_table": 1}

    # the default route contracts the structure function and reads no
    # rectangle series: its cdfs are checked against fresh builds, and the
    # forced-alpha expansion against an uncached rect_series
    def fresh_cdf(dist, m_max):
        return Poisson(dist.lam).cdf_array(m_max)

    with monkeypatch.context() as patch:
        patch.setattr(MarginalDist, "_cdf_prefix", fresh_cdf)
        assert system_moment_approx(IndependentMarginals([Poisson(1.0)] * 5), bridge, 2, 0.0005) == got

    def uncached(model, low, up, m_hi, m_lo=0):
        def cdf(i):  # a fresh marginal keeps nothing from earlier reads
            return Poisson(model.marginals[i - 1].lam).cdf_array(m_hi)

        return np.column_stack([cdf(i) for i in sorted(low)] + [1.0 - cdf(j) for j in sorted(up)]).prod(axis=1)[m_lo:]

    def forced_alpha():
        model = IndependentMarginals([Poisson(1.0)] * 5)
        return _moment(model, _System(model, "alpha", bridge), 2, 0.0005)

    cached = forced_alpha()
    monkeypatch.setattr(IndependentMarginals, "rect_series", uncached)
    assert forced_alpha() == cached
    assert cached.M0_used == got.M0_used and cached.value == pytest.approx(got.value, abs=1e-12)


def test_approx_beta_form_agrees(bridge):
    model = IndependentMarginals([Poisson(1.0)] * 5)
    a = system_moment_approx(model, bridge, 1, 0.0005)
    b = system_moment_approx_beta(model, bridge, 1, 0.0005)
    # both certify the same d, so the two partial sums differ by at most d
    assert abs(a.value - b.value) <= 0.0005
    assert b.M0_used >= a.M0_used  # the 2^n - 1 factor delays the beta cutoff


def test_approx_truncation_sign(bridge):
    model = IndependentMarginals([Poisson(2.0)] * 5)
    d = 1e-4
    approx = system_moment_approx(model, bridge, 2, d)
    ref = system_moment_approx(
        model, bridge, 2, d, plan=TruncationPlan(M0=4 * approx.M0_used + 8, j0=1, threshold=0.0)
    )
    assert -1e-12 <= ref.value - approx.value <= d


def test_approx_degenerate_allowance(bridge):
    model = IndependentMarginals([Poisson(1.0)] * 5)
    res = system_moment_approx(model, bridge, 1, 1e9)
    assert res.M0_used == -1
    assert res.value == 0.0


def test_approx_validation(bridge):
    model = IndependentMarginals([Poisson(1.0)] * 5)
    with pytest.raises(ValidationError):
        system_moment_approx(model, bridge, 1, -0.1)
    with pytest.raises(ValidationError):
        system_moment_approx(model, bridge, 0, 0.1)
    with pytest.raises(ValidationError):
        system_moment_approx(IndependentMarginals([Poisson(1.0)] * 4), bridge, 1, 0.1)
    for approx in (system_moment_approx, system_moment_approx_beta):
        for without_bound in (model, fair_bits(5)):
            with pytest.raises(ValidationError):
                approx(without_bound, bridge, 1, None)


def test_approx_routes_negbin_and_finite(bridge):
    nb = IndependentMarginals([NegBin(2, 0.3)] * 5)
    res = system_moment_approx(nb, bridge, 1, 1e-3)
    ref = system_moment_approx(
        nb, bridge, 1, 1e-3, plan=TruncationPlan(M0=4 * res.M0_used + 8, j0=1, threshold=0.0)
    )
    assert -1e-12 <= ref.value - res.value <= 1e-3
    fin = fair_bits(5)
    exact = system_moment_exact(fin, bridge, 1).value
    assert system_moment_approx(fin, bridge, 1, 1e-9).value == pytest.approx(exact, abs=1e-12)


# ---------------------------------------------------------------------------
# MVG closed forms
# ---------------------------------------------------------------------------

def bridge_theta(setting: int) -> dict:
    """Shock parameter sets for the golden bridge cases."""
    if setting == 1:
        return {(1,): 0.9, (3,): 0.8, (1, 4, 5): 0.99, (2, 3, 5): 0.99}
    if setting == 3:
        return {(1,): 0.9, (2,): 0.9, (3,): 0.8, (4,): 0.8, (5,): 0.8}
    raise ValueError(setting)


def test_system_mvg_golden_pairs(bridge):
    m1, var1 = system_mean_var_mvg(MvgParams(5, theta=bridge_theta(1)), bridge)
    assert m1 == pytest.approx(49.251, abs=1e-3)
    assert var1 == pytest.approx(2474.938, abs=1e-3)
    m3, var3 = system_mean_var_mvg(MvgParams(5, theta=bridge_theta(3)), bridge)
    assert m3 == pytest.approx(5.237, abs=1e-3)
    assert var3 == pytest.approx(20.001, abs=1e-3)


def test_system_mvg_iid_geometric_closed_sum(bridge):
    # IID fair-coin geometric components: the alpha mixture of subset minima
    params = MvgParams(5, theta={(i,): 0.5 for i in range(1, 6)})
    want = 2 * (0.25 / 0.75) + 2 * (0.125 / 0.875) - 5 * (0.0625 / 0.9375) + 2 * (
        0.03125 / 0.96875
    )
    assert system_moment_mvg(params, bridge, 1) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.683564, abs=1e-6)


def test_system_mvg_exchangeable_matches_general(bridge):
    exch = MvgParams(5, exchangeable_levels=[0.9, 0.95, 1.0, 1.0, 1.0])
    theta = {(i,): 0.9 for i in range(1, 6)}
    for i in range(1, 6):
        for j in range(i + 1, 6):
            theta[(i, j)] = 0.95
    general = MvgParams(5, theta=theta)
    for p in (1, 2):
        assert system_moment_mvg(exch, bridge, p) == pytest.approx(
            system_moment_mvg(general, bridge, p), rel=1e-11
        )


def test_system_mvg_vs_truncated_series(bridge):
    params = MvgParams(5, theta=bridge_theta(3))
    model = MvgModel(params)
    closed_fact = [system_moment_mvg(params, bridge, p) for p in (1, 2)]
    closed_raw = [closed_fact[0], closed_fact[1] + closed_fact[0]]
    for p in (1, 2):
        res = system_moment_approx(model, bridge, p, 5e-7)
        assert abs(closed_raw[p - 1] - res.value) <= 1e-6


def test_mvg_system_moments_share_one_coefficient_table(bridge, monkeypatch):
    """Factorial moments 1..p come from one Mobius transform per structure and
    equal the one-order calls bit for bit."""
    transforms = []
    collection = systems._collection_coefficients
    monkeypatch.setattr(systems, "_collection_coefficients", lambda *a: transforms.append(a) or collection(*a))
    for params in (MvgParams(5, theta=bridge_theta(1)), MvgParams(5, exchangeable_levels=[0.9, 0.95, 1.0, 1.0, 1.0])):
        one_order = [system_moment_mvg(params, bridge, q) for q in (1, 2, 3, 4)]
        transforms.clear()
        assert system_factorial_moments_mvg(params, bridge, 4) == tuple(one_order)
        assert len(transforms) == 1
        transforms.clear()
        mean, var = system_mean_var_mvg(params, bridge)
        assert len(transforms) == 1
        assert (mean, var) == (one_order[0], one_order[1] + one_order[0] * (1.0 - one_order[0]))
    with pytest.raises(ValidationError):
        system_factorial_moments_mvg(params, bridge, 0)


def listed_mvg_terms(params: MvgParams, structure: SystemStructure):
    """The non-zero alpha coefficients of ``structure`` and theta(K) of their subsets."""
    masks, coeffs = structure._alpha_terms()
    return coeffs, _lattice(params, range(1, params.n + 1))[masks]


def listed_system_factorial_moments(params: MvgParams, structure: SystemStructure, p: int) -> tuple[float, ...]:
    """``system_factorial_moments_mvg`` as a list-fed reference: each order's
    terms copied into a list and summed by math.fsum."""
    coeffs, thetas = listed_mvg_terms(params, structure)
    g = thetas / (1.0 - thetas)
    return tuple(math.fsum((coeffs * (g if q == 1 else math.factorial(q) * np.float_power(g, q))).tolist())
                 for q in range(1, p + 1))


def listed_system_survival(params: MvgParams, structure: SystemStructure, ms) -> list[float]:
    """``MvgModel.system_survival_series`` as a list-fed reference: one
    float_power per threshold, its terms copied into a list and summed by
    math.fsum."""
    coeffs, thetas = listed_mvg_terms(params, structure)
    return [min(1.0, max(0.0, math.fsum((coeffs * np.float_power(thetas, m + 1.0)).tolist()))) for m in ms]


def consecutive_pairs(n: int) -> SystemStructure:
    """Path sets {i, i+1} around a ring of n components."""
    return SystemStructure(n, path_sets=[(i, i % n + 1) for i in range(1, n + 1)])


@pytest.mark.parametrize("label", BIT_IDENTITY_PARAMS)
def test_mvg_system_buffer_sums_equal_the_list_fed_sums(label, monkeypatch):
    """The closed-form factorial moments and the survival series, summed from
    array buffers and in blocks of thresholds, equal the list-fed reference
    to the last bit."""
    params = BIT_IDENTITY_PARAMS[label]()
    model, n = MvgModel(params), params.n
    paths = random_antichain(np.random.default_rng(n), n)
    for structure in (consecutive_pairs(n), SystemStructure(n, path_sets=paths), k_out_of_n_structure(n, n - 1)):
        assert system_factorial_moments_mvg(params, structure, 3) == listed_system_factorial_moments(params, structure, 3)
        whole = model.system_survival_series(structure, 60)
        assert np.array_equal(whole, listed_system_survival(params, structure, range(61)))
        blocks = []
        real = distributions._row_fsums
        with monkeypatch.context() as patch:
            patch.setattr(distributions, "_LATTICE_BLOCK", 1)  # one row per block
            patch.setattr(distributions, "_row_fsums", lambda block: blocks.append(len(block)) or real(block))
            assert np.array_equal(model.system_survival_series(structure, 60, m_lo=5), whole[5:])
        assert blocks == [1] * 56


def test_cut_sets_alone_are_planned_as_path_sets(bridge):
    """Cut sets alone give the same "auto" series as the path sets, so the
    same d-scale (the positive alpha terms of phi) and the same cutoffs; a
    forced beta form keeps the beta scale."""
    model = IndependentMarginals([Poisson(1.0 + 0.5 * j) for j in range(5)])
    cuts_only, paths_only = SystemStructure(5, cut_sets=BRIDGE_CUTS), SystemStructure(5, path_sets=BRIDGE_PATHS)
    got = moments(model, cuts_only, (1, 2), 1e-6)
    assert [res.M0_used for res in got] == [16, 18]  # 18 and 20 on the beta scale
    assert got == moments(model, paths_only, (1, 2), 1e-6)
    assert _System(model, "auto", cuts_only).scale == _System(model, "auto", paths_only).scale == 6
    assert _System(model, "beta", cuts_only).scale == _System(model, "beta", bridge).scale == 6 * 31


def test_system_mvg_validation(bridge):
    with pytest.raises(ValidationError):
        system_moment_mvg(MvgParams(4, theta={(1, 2, 3, 4): 0.5}), bridge, 1)
    with pytest.raises(ValidationError):
        system_moment_mvg(MvgParams(5, theta=bridge_theta(3)), bridge, 0)


# ---------------------------------------------------------------------------
# exchangeable shortcut
# ---------------------------------------------------------------------------

def test_exchangeable_parallel_fair_bits():
    model = fair_bits(2, exchangeable=True)
    res = exchangeable_system_moment(model, (2, -1), 1)
    assert res.exact
    assert res.value == pytest.approx(0.75, abs=1e-12)


def test_exchangeable_matches_general_on_finite(bridge):
    model = fair_bits(5, exchangeable=True)
    for p in (1, 2):
        a = exchangeable_system_moment(model, BRIDGE_MINIMAL_SIGNATURE, p)
        b = system_moment_exact(model, bridge, p)
        assert a.value == pytest.approx(b.value, abs=1e-10)
        c = exchangeable_system_moment(model, maximal_signature(bridge), p, form="beta")
        assert c.value == pytest.approx(b.value, abs=1e-10)


def test_exchangeable_matches_general_truncated(bridge):
    model = IndependentMarginals([Poisson(1.0)] * 5, exchangeable=True)
    a = exchangeable_system_moment(model, BRIDGE_MINIMAL_SIGNATURE, 1, d=0.0005)
    b = system_moment_approx(IndependentMarginals([Poisson(1.0)] * 5), bridge, 1, 0.0005)
    assert a.M0_used == b.M0_used  # identical positive-part scaling
    assert a.value == pytest.approx(b.value, abs=1e-10)


def test_exchangeable_k_out_of_n_identity():
    model = fair_bits(5, exchangeable=True)
    for k in (1, 3, 5):
        sig = minimal_signature(k_out_of_n_structure(5, k))
        got = exchangeable_system_moment(model, sig, 2).value
        want = exact_moment_finite(model, MomentRequest(r=5 - k + 1, n=5, p=2)).value
        assert got == pytest.approx(want, abs=1e-10)


def test_exchangeable_signature_must_sum_to_one():
    with pytest.raises(ValidationError, match="sums to"):
        exchangeable_system_moment(IndependentMarginals([Poisson(1.0)] * 2, exchangeable=True), (0, 0), 1, d=1e-3)
    with pytest.raises(ValidationError, match="sums to"):
        exchangeable_system_moment(fair_bits(2, exchangeable=True), (0.3, 0.3), 1)
    with pytest.raises(ValidationError, match="sums to"):
        exchangeable_system_moment(fair_bits(2, exchangeable=True), (Fraction(1, 2), Fraction(1, 3)), 1)
    # floats within rounding of 1 are accepted
    res = exchangeable_system_moment(fair_bits(2, exchangeable=True), (2.0, -1.0 + 1e-14), 1)
    assert res.value == pytest.approx(0.75, abs=1e-12)


def test_non_finite_signature_entries_are_refused():
    # NaN passes every sum check: the moment read nan, Fraction raised a bare ValueError
    model = IndependentMarginals([Poisson(1.0)] * 3, exchangeable=True)
    for bad in ([math.nan, 1.0, 0.0], [math.inf, -math.inf, 1.0], [0.0, 1.0, np.float32("nan")]):
        with pytest.raises(ValidationError, match="must be finite"):
            exchangeable_system_moment(model, bad, 1, d=1e-6)
        with pytest.raises(ValidationError, match="must be finite"):
            signature_from_samaniego(bad, 3)


def test_exchangeable_validation(bridge):
    undeclared = fair_bits(5)
    with pytest.raises(ValidationError):
        exchangeable_system_moment(undeclared, BRIDGE_MINIMAL_SIGNATURE, 1)
    model = fair_bits(5, exchangeable=True)
    with pytest.raises(ValidationError):
        exchangeable_system_moment(model, (1, 0), 1)
    with pytest.raises(ValidationError):
        exchangeable_system_moment(model, BRIDGE_MINIMAL_SIGNATURE, 1, form="delta")
    infinite = IndependentMarginals([Poisson(1.0)] * 5, exchangeable=True)
    with pytest.raises(ValidationError):
        exchangeable_system_moment(infinite, BRIDGE_MINIMAL_SIGNATURE, 1)  # d missing


def test_exchangeable_fraction_int_and_float_signatures_agree():
    # 2-of-3:G, and its mixture with the parallel system in equal parts
    sigs = [
        [(0, 3, -2), (Fraction(0), Fraction(3), Fraction(-2)), (0, Fraction(3), -2), (0.0, 3.0, -2.0)],
        [(Fraction(3, 2), 0, Fraction(-1, 2)), (1.5, 0.0, -0.5)],
    ]
    models = [(fair_bits(3, exchangeable=True), None),
              (IndependentMarginals([Poisson(1.5)] * 3, exchangeable=True), 1e-6)]
    for model, d in models:
        for form in ("alpha", "beta"):
            for group in sigs:
                results = {exchangeable_system_moment(model, sig, 2, d=d, form=form) for sig in group}
                assert len(results) == 1, (form, group)
            two_of_three, parallel = (exchangeable_system_moment(model, sig, 2, d=d, form=form).value
                                      for sig in ((0, 3, -2), (3, -3, 1)))
            mixture = exchangeable_system_moment(model, sigs[1][0], 2, d=d, form=form).value
            # truncated runs each certify [0, d], each with its own cutoff
            assert mixture == pytest.approx((two_of_three + parallel) / 2, abs=d or 1e-12)


# ---------------------------------------------------------------------------
# order statistics are k-out-of-n systems
# ---------------------------------------------------------------------------

def kofn_models():
    rng = np.random.default_rng(61)
    theta = {(1,): 0.8, (2,): 0.7, (3,): 0.85, (4,): 0.9, (1, 2): 0.95, (2, 3, 4): 0.97, (1, 2, 3, 4): 0.99}
    return {
        "explicit": random_explicit(rng, 4),
        "multinomial": multinomial_pmf(6, [0.1, 0.2, 0.3, 0.4]),
        "independent_finite": random_independent(rng, 4),
        "independent_poisson": IndependentMarginals([Poisson(lam) for lam in (0.8, 1.5, 2.0, 3.1)]),
        "mvg": MvgModel(MvgParams(4, theta=theta)),
        "mvg_exchangeable": MvgModel(MvgParams(4, exchangeable_levels=[0.8, 0.9, 0.95, 0.99])),
    }


@pytest.mark.parametrize("kind", list(kofn_models()))
def test_order_statistics_are_k_out_of_n_systems(kind):
    model = kofn_models()[kind]
    n = 4
    points = np.array(list(product(range(4), repeat=n)))
    for r in range(1, n + 1):
        systems_of_r = [k_out_of_n_structure(n, n - r + 1), k_out_of_n_structure(n, r, "F")]
        for structure in systems_of_r:
            for form in ("alpha", "beta"):
                for m in range(12):
                    want = survival_orderstat(model, r, n, m)
                    assert system_survival(model, structure, m, form) == pytest.approx(want, abs=1e-12)
            assert np.array_equal(_statistic(model, structure).values(points.T), _statistic(model, r).values(points.T))
            factorials = model.factorial_moments(_statistic(model, r), 3)
            if kind.startswith("mvg"):
                want = [system_moment_mvg(model.params, structure, q) for q in (1, 2, 3)]
                assert factorials == pytest.approx(want, rel=1e-12)
            else:
                assert factorials is None


# ---------------------------------------------------------------------------
# the one moment entry
# ---------------------------------------------------------------------------

def entry_models():
    rng = np.random.default_rng(73)
    return {
        "poisson": IndependentMarginals([Poisson(lam) for lam in (0.8, 1.5, 2.0, 3.1, 1.1)]),
        "mixed": IndependentMarginals(
            [Poisson(1.3), NegBin(3, 0.6), Geometric(0.4), FinitePMF([0.2, 0.5, 0.3]), Poisson(2.0)]
        ),
        "explicit": random_explicit(rng, 5, m_max=3),
        "multinomial": multinomial_pmf(6, [0.2, 0.3, 0.1, 0.25, 0.15]),
        "mvg": MvgModel(MvgParams(5, theta=bridge_theta(1))),
        "mvg_exchangeable": MvgModel(MvgParams(5, exchangeable_levels=[0.7, 0.9, 0.95, 0.97, 0.99])),
    }


@pytest.mark.parametrize("statistic", [1, 3, 5, "bridge"])
@pytest.mark.parametrize("kind", list(entry_models()))
def test_moments_takes_each_kinds_own_route(kind, statistic, bridge, monkeypatch):
    # the series entries on infinite and finite supports, the closed forms
    # on MVG: the same values, cutoffs and flags, bit for bit
    model, d, orders = entry_models()[kind], 1e-4, (2, 1)
    stat = bridge if statistic == "bridge" else statistic
    if kind.startswith("mvg"):
        if stat is bridge:
            factorials = system_factorial_moments_mvg(model.params, bridge, 2)
        else:
            factorials = [mvg_orderstat_factorial_moment(model.params, stat, 5, q) for q in (1, 2)]
        raws = factorial_to_raw(factorials)
        want = tuple(MomentResult(raws[p - 1], exact=False) for p in orders)
    elif kind in ("poisson", "mixed"):
        if stat is bridge:
            want = tuple(system_moment_approx(model, bridge, p, d) for p in orders)
        else:
            want = tuple(approx_moment(model, MomentRequest(r=stat, n=5, p=p, d=d)) for p in orders)
    elif stat is bridge:
        want = tuple(system_moment_exact(model, bridge, p) for p in orders)
    else:
        want = tuple(exact_moment_finite(model, MomentRequest(r=stat, n=5, p=p)) for p in orders)
    got = moments(model, stat, orders, d)
    assert [(r.value.hex(), r.exact, r.M0_used, r.error_bound) for r in got] == [
        (r.value.hex(), r.exact, r.M0_used, r.error_bound) for r in want
    ]
    # refusals come before any route runs
    monkeypatch.setattr(type(model), "factorial_moments", lambda *args: pytest.fail("a route ran"))
    for bad_orders, bad_d in (((), d), ((1, 0), d), ((1, 2), 0.0), ((1,), -1e-3)):
        with pytest.raises(ValidationError):
            moments(model, stat, bad_orders, bad_d)
    monkeypatch.undo()
    if model.support_max() is None and not kind.startswith("mvg"):
        # a library message: no CLI flag in it
        with pytest.raises(ValidationError, match=r"^p=1: infinite support needs an error bound d$"):
            moments(model, stat, (1,))
    else:
        assert moments(model, stat, (1,)) == moments(model, stat, (1,), d)


def test_moments_takes_one_bound_per_order(bridge):
    models = entry_models()
    infinite, finite, mvg = models["mixed"], models["explicit"], models["mvg"]
    for stat in (2, bridge):
        got = moments(infinite, stat, (1, 2, 1), (1e-2, 1e-4, 1e-6))
        assert got == tuple(moments(infinite, stat, (p,), d)[0] for p, d in ((1, 1e-2), (2, 1e-4), (1, 1e-6)))
        assert got[0].M0_used < got[2].M0_used
        # a bound per order is checked, and ignored by the exact and closed-form routes
        for model in (finite, mvg):
            assert moments(model, stat, (1, 2), [None, 1e-3]) == moments(model, stat, (1, 2))
    for model in (infinite, finite, mvg):
        with pytest.raises(ValidationError, match="d gives 2 bounds for 3 orders"):
            moments(model, 1, (1, 2, 3), (0.1, 0.1))
        with pytest.raises(ValidationError, match="must be positive"):
            moments(model, 1, (1, 2), (0.1, -1.0))
    with pytest.raises(ValidationError, match=r"^p=2: infinite support needs an error bound d$"):
        moments(infinite, 1, (1, 2), (0.1, None))


# ---------------------------------------------------------------------------
# system series routes of the model kinds
# ---------------------------------------------------------------------------

def random_infinite(rng: np.random.Generator, n: int) -> IndependentMarginals:
    """Independent Poisson, negative binomial and geometric components."""
    families = (
        lambda: Poisson(rng.uniform(0.5, 3.0)),
        lambda: NegBin(rng.uniform(0.5, 3.0), rng.uniform(0.2, 0.7)),
        lambda: Geometric(rng.uniform(0.2, 0.7)),
    )
    return IndependentMarginals([families[int(rng.integers(3))]() for _ in range(n)])


def test_contraction_agrees_with_both_expansions():
    rng = np.random.default_rng(97)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        paths = random_antichain(rng, n)
        both = SystemStructure(n, path_sets=paths, cut_sets=cut_sets_from_path_sets(n, paths))
        cuts_only = SystemStructure(n, cut_sets=both.cut_sets)
        infinite, finite = random_infinite(rng, n), random_independent(rng, n)
        for model in (infinite, finite):
            auto = model.system_survival_series(both, 30)
            # phi is the same table from either family
            assert np.array_equal(model.system_survival_series(cuts_only, 30), auto)
            for form in ("alpha", "beta"):
                assert np.max(np.abs(model.system_survival_series(both, 30, form) - auto)) <= 1e-12
        for p in (1, 2):
            assert system_moment_exact(finite, both, p).value == pytest.approx(
                enumerate_moment(finite, both, p), abs=1e-12)
            want = _moment(infinite, _System(infinite, "alpha", both), p, 1e-4)
            got = system_moment_approx(infinite, both, p, 1e-4)
            assert got.M0_used == want.M0_used and got.value == pytest.approx(want.value, abs=1e-12)


@pytest.mark.parametrize("kind", ["independent", "mvg_general", "mvg_exchangeable"])
def test_system_series_in_blocks_of_rows_changes_no_bit(bridge, kind, monkeypatch):
    model = RANGE_MODELS[kind]()
    whole = model.system_survival_series(bridge, 40)
    monkeypatch.setattr(distributions, "_LATTICE_BLOCK", 64)  # a few rows per block
    assert np.array_equal(model.system_survival_series(bridge, 40), whole)
    assert np.array_equal(model.system_survival_series(bridge, 40, m_lo=7), whole[7:])


def test_independent_auto_route_runs_no_counts_and_one_transform_per_structure(bridge, monkeypatch):
    model = IndependentMarginals([Poisson(1.0), Poisson(1.5), NegBin(2, 0.4), Poisson(0.7), Poisson(2.2)])
    calls = Counter()

    def counted(key, fn):
        return lambda *args: calls.update([key(*args)]) or fn(*args)

    monkeypatch.setattr(IndependentMarginals, "counts", counted(lambda *a: "counts", IndependentMarginals.counts))
    monkeypatch.setattr(JointModel, "_expansion_series",
                        counted(lambda *a: "expansion", JointModel._expansion_series))
    monkeypatch.setattr(systems, "_collection_coefficients",
                        counted(lambda structure, form: (id(structure), form), systems._collection_coefficients))
    structures = [bridge, k_out_of_n_structure(5, 3), SystemStructure(5, path_sets=[[i] for i in range(1, 6)])]
    for _ in range(3):
        for structure in structures:
            for p in (1, 2, 3):
                system_moment_approx(model, structure, p, 1e-4)
            system_survival(model, structure, 4)
    assert calls == {(id(structure), "alpha"): 1 for structure in structures}
    # the forced forms still read the signed expansion over rectangle series
    calls.clear()
    for form in ("alpha", "beta"):
        system_survival(model, bridge, 4, form=form)
    assert calls["expansion"] == 2
    assert calls["counts"] == len(alpha_coefficients(bridge)) + len(beta_coefficients(bridge))


def test_mvg_system_series_builds_one_lattice(bridge, monkeypatch):
    lattices = []
    lattice = distributions._lattice
    monkeypatch.setattr(distributions, "_lattice", lambda *args: lattices.append(args) or lattice(*args))
    for kind in ("mvg_general", "mvg_exchangeable"):
        model = RANGE_MODELS[kind]()
        two_of_five = k_out_of_n_structure(5, 2).path_sets
        for paths in (BRIDGE_PATHS, [[1, 2, 3, 4, 5]], [[i] for i in range(1, 6)], two_of_five):
            with_paths = SystemStructure(5, path_sets=paths)
            cuts_only = SystemStructure(5, cut_sets=cut_sets_from_path_sets(5, paths))
            lattices.clear()
            want = model.system_survival_series(with_paths, 60, "alpha")
            assert len(lattices) == len(alpha_coefficients(with_paths))  # one per rectangle series
            for structure in (with_paths, cuts_only):
                lattices.clear()
                got = model.system_survival_series(structure, 60)
                assert len(lattices) == 1
                assert np.max(np.abs(got - want)) <= 1e-15
            lattices.clear()
            system_survival(model, with_paths, 7)
            assert len(lattices) == 1
