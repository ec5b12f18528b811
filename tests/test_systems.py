"""Coherent structures, signatures, and system-lifetime moments."""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from lifemoments import (
    CapacityError,
    FinitePMF,
    IndependentMarginals,
    MarginalDist,
    MomentRequest,
    MvgModel,
    MvgParams,
    NegBin,
    NumericError,
    Poisson,
    SystemStructure,
    TruncationPlan,
    ValidationError,
    alpha_coefficients,
    beta_coefficients,
    cut_sets_from_path_sets,
    enumerate_moment,
    exact_moment_finite,
    exchangeable_system_moment,
    geometric_factorial_moment,
    k_out_of_n_structure,
    maximal_signature,
    minimal_signature,
    mvg_min_param,
    signature_from_samaniego,
    signature_set,
    system_mean_var_mvg,
    system_moment_approx,
    system_moment_approx_beta,
    system_moment_exact,
    system_moment_from_max_moments,
    system_moment_from_min_moments,
    system_moment_mvg,
    system_survival,
)
from conftest import (
    BRIDGE_CUTS,
    BRIDGE_MINIMAL_SIGNATURE,
    BRIDGE_PATHS,
    random_explicit,
    random_independent,
)


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


def test_structure_equality_and_order_insensitivity():
    a = SystemStructure(5, path_sets=BRIDGE_PATHS)
    b = SystemStructure(5, path_sets=reversed([sorted(P) for P in BRIDGE_PATHS]))
    assert a == b
    assert hash(a) == hash(b)
    assert a != SystemStructure(5, path_sets=BRIDGE_PATHS, cut_sets=BRIDGE_CUTS)


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
        s = SystemStructure(n, path_sets=paths, cut_sets=cuts)
        assert alpha_coefficients(s) == collection_coefficients(s.path_sets)
        assert beta_coefficients(s) == collection_coefficients(s.cut_sets)


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
    assert system_survival(fair_bits(2), parallel, -3) == 1.0


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
    builds = []
    cdf_array = MarginalDist.cdf_array
    monkeypatch.setattr(MarginalDist, "cdf_array", lambda d, m: builds.append(m) or cdf_array(d, m))
    got = system_moment_approx(IndependentMarginals([Poisson(1.0)] * 5), bridge, 2, 0.0005)
    assert len(builds) == 5  # one matrix: one column per marginal
    monkeypatch.setattr(
        IndependentMarginals,
        "cdf_matrix",
        lambda model, m: np.column_stack([d.cdf_array(m) for d in model.marginals]),
    )
    want = system_moment_approx(IndependentMarginals([Poisson(1.0)] * 5), bridge, 2, 0.0005)
    assert got == want


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


def test_system_mvg_validation(bridge):
    with pytest.raises(ValidationError):
        system_moment_mvg(MvgParams(4, theta={(1, 2, 3, 4): 0.5}), bridge, 1)
    with pytest.raises(ValidationError):
        system_moment_mvg(MvgParams(5, theta=bridge_theta(3)), bridge, 0)


# ---------------------------------------------------------------------------
# moment combination from subset providers
# ---------------------------------------------------------------------------

def test_from_min_moments_mvg_provider(bridge):
    params = MvgParams(5, theta=bridge_theta(1))

    def provider(K, p):
        return geometric_factorial_moment(mvg_min_param(params, K), p)

    for p in (1, 2):
        assert system_moment_from_min_moments(provider, bridge, p) == pytest.approx(
            system_moment_mvg(params, bridge, p), rel=1e-12
        )


def test_from_min_and_max_moments_finite_provider(bridge):
    model = random_explicit(np.random.default_rng(44), 5, m_max=3)
    pts = model.points.astype(float)

    def min_provider(K, p):
        cols = sorted(i - 1 for i in K)
        return float(np.dot(model.probs, pts[:, cols].min(axis=1) ** p))

    def max_provider(K, p):
        cols = sorted(i - 1 for i in K)
        return float(np.dot(model.probs, pts[:, cols].max(axis=1) ** p))

    for p in (1, 2):
        want = system_moment_exact(model, bridge, p).value
        assert system_moment_from_min_moments(min_provider, bridge, p) == pytest.approx(
            want, abs=1e-9
        )
        # the beta expansion needs E T^p = sum beta_K E max_K^p only after
        # moving the complement; combine and compare through the identity
        got = system_moment_from_max_moments(max_provider, bridge, p)
        beta_total = math.fsum(beta_coefficients(bridge).values())
        assert beta_total == 1
        # E max over K weighting with beta sums to E T^p for self-dual bridge
        assert got == pytest.approx(want, abs=1e-9)


def test_from_min_moments_rejects_divergent_provider(bridge):
    with pytest.raises(NumericError):
        system_moment_from_min_moments(lambda K, p: math.inf, bridge, 1)
    with pytest.raises(NumericError):
        system_moment_from_max_moments(lambda K, p: math.nan, bridge, 1)


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
