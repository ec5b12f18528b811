"""Enumeration and Monte Carlo reference calculators."""

import hashlib
import math
from functools import reduce

import numpy as np
import pytest

from lifemoments import (
    CapacityError,
    ConvergenceError,
    FinitePMF,
    Geometric,
    IndependentMarginals,
    McEstimate,
    MomentRequest,
    MvgModel,
    MvgParams,
    NegBin,
    Poisson,
    SystemStructure,
    ValidationError,
    enumerate_moment,
    exact_moment_finite,
    k_out_of_n_structure,
    mc_moment,
    multinomial_pmf,
    sample_mvg,
)
from lifemoments import distributions, oracle, systems
from lifemoments.systems import _statistic
from conftest import BRIDGE_CUTS, BRIDGE_PATHS, random_explicit


def test_enumerate_parallel_fair_bits():
    model = IndependentMarginals([FinitePMF([0.5, 0.5])] * 2)
    parallel = SystemStructure(2, path_sets=[[1], [2]])
    assert enumerate_moment(model, parallel, 1) == pytest.approx(0.75, abs=1e-12)
    # max of two fair bits: E T^2 = P(max = 1) as well
    assert enumerate_moment(model, parallel, 2) == pytest.approx(0.75, abs=1e-12)


def test_enumerate_rank_statistic():
    rng = np.random.default_rng(5)
    model = random_explicit(rng, 3, m_max=2)
    pts = model.points
    for r in (1, 2, 3):
        want = float(np.dot(model.probs, np.sort(pts, axis=1)[:, r - 1] ** 2))
        assert enumerate_moment(model, r, 2) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValidationError):
        enumerate_moment(model, 4, 1)
    with pytest.raises(ValidationError):
        enumerate_moment(model, 0, 1)


def test_enumerate_capacity():
    # 12 ternary marginals: 3^12 joint points exceeds the enumeration budget
    big = IndependentMarginals([FinitePMF([0.4, 0.3, 0.3])] * 15)
    with pytest.raises(CapacityError):
        enumerate_moment(big, 1, 1)


def test_sample_shapes_and_bounds():
    params = MvgParams(3, theta={(1,): 0.6, (2,): 0.7, (3,): 0.5, (1, 2, 3): 0.9})
    x = sample_mvg(params, 5000, seed=7)
    assert x.shape == (5000, 3)
    assert x.dtype.kind == "i"
    assert (x >= 0).all()


def test_sample_degenerate_component():
    # theta 0 for the singleton shock forces X_1 = 0 every draw
    params = MvgParams(2, theta={(1,): 1e-300, (2,): 0.5})
    x = sample_mvg(params, 2000, seed=1)
    assert (x[:, 0] == 0).all()
    assert (x[:, 1] > 0).any()


def test_sample_common_shock_ties_components():
    params = MvgParams(3, theta={(1, 2, 3): 0.8})
    x = sample_mvg(params, 1000, seed=3)
    assert (x[:, 0] == x[:, 1]).all()
    assert (x[:, 1] == x[:, 2]).all()


def test_sample_methods_agree_in_distribution():
    params = MvgParams(2, theta={(1,): 0.7, (2,): 0.8, (1, 2): 0.9})
    n = 120_000
    a = sample_mvg(params, n, seed=11, method="min")
    b = sample_mvg(params, n, seed=12, method="cycle")
    for col in (0, 1):
        ma, mb = a[:, col].mean(), b[:, col].mean()
        sa = a[:, col].std(ddof=1) / np.sqrt(n)
        sb = b[:, col].std(ddof=1) / np.sqrt(n)
        assert abs(ma - mb) < 3.0 * np.hypot(sa, sb)
    with pytest.raises(ValidationError):
        sample_mvg(params, 100, seed=0, method="walk")


def test_mc_moment_deterministic_and_calibrated():
    model = IndependentMarginals([FinitePMF([0.5, 0.5])] * 2)
    parallel = SystemStructure(2, path_sets=[[1], [2]])
    est1 = mc_moment(model, parallel, 1, n_samples=50_000, seed=99)
    est2 = mc_moment(model, parallel, 1, n_samples=50_000, seed=99)
    assert est1.mean == est2.mean
    assert est1.stderr == est2.stderr
    assert est1.samples == 50_000
    assert abs(est1.mean - 0.75) < 3.0 * est1.stderr


def test_mc_moment_rank_and_mvg():
    rng = np.random.default_rng(17)
    model = random_explicit(rng, 3, m_max=3)
    want = enumerate_moment(model, 2, 1)
    est = mc_moment(model, 2, 1, n_samples=80_000, seed=5)
    assert abs(est.mean - want) < 3.0 * est.stderr


def test_mc_samples_a_multinomial_too_large_to_list(monkeypatch):
    def refuse(*_args):
        raise AssertionError("support points were enumerated")

    monkeypatch.setattr(distributions, "_compositions", refuse)
    big = multinomial_pmf(30, [1 / 12] * 12)  # C(41, 11) ~ 2.3e9 count vectors
    want = exact_moment_finite(big, MomentRequest(r=1, n=12, p=1)).value
    est = mc_moment(big, 1, 1, n_samples=2000, seed=11)
    assert abs(est.mean - want) < 5.0 * est.stderr


def test_mc_sample_floor():
    model = IndependentMarginals([FinitePMF([0.5, 0.5])] * 2)
    with pytest.raises(ValidationError):
        mc_moment(model, 1, 1, n_samples=999, seed=0)


def test_estimate_record_validation():
    with pytest.raises(ValidationError):
        McEstimate(mean=1.0, stderr=-0.1, samples=10)
    with pytest.raises(ValidationError):
        McEstimate(mean=1.0, stderr=0.1, samples=0)
    ok = McEstimate(mean=1.0, stderr=0.0, samples=1)
    assert ok.stderr == 0.0


# ---------------------------------------------------------------------------
# the pinned Monte Carlo stream
# ---------------------------------------------------------------------------

_PATH = SystemStructure(5, path_sets=BRIDGE_PATHS)
_CUT = SystemStructure(5, cut_sets=BRIDGE_CUTS)
_GENERAL = MvgParams(5, theta={
    (1,): 0.6, (2,): 0.7, (3,): 0.5, (4,): 0.8, (5,): 0.65, (1, 2): 0.9, (2, 3, 4): 0.85, (1, 2, 3, 4, 5): 0.95,
})


def _pinned_models():
    return {
        "mixed": IndependentMarginals(
            [Poisson(1.3), NegBin(3, 0.6), Geometric(0.4), FinitePMF([0.2, 0.5, 0.3]), Poisson(2.0)]
        ),
        "general": MvgModel(_GENERAL),
        "exchangeable": MvgModel(MvgParams(4, exchangeable_levels=[0.7, 0.9, 1.0, 0.95])),
        "explicit": random_explicit(np.random.default_rng(17), 3, m_max=3),
        "multinomial": multinomial_pmf(6, [0.2, 0.3, 0.1, 0.25, 0.15]),
        "over_cap": multinomial_pmf(30, [1 / 12] * 12),  # sampled without listing its support
    }


# (model, statistic, p, samples) -> float.hex of the mean and the stderr at
# seed 2024, recorded from the row-major oracle that the coordinate-major one
# replaced; a change to any draw stream or reduction order shows here
PINNED_STREAM = [
    ("mixed", _PATH, 1, 20_000, "0x1.419ce075f6fd2p+0", "0x1.71427f779bc72p-8"),
    ("mixed", _CUT, 2, 20_000, "0x1.1b4a2339c0ebfp+1", "0x1.25e46f66c1e16p-6"),
    ("mixed", 3, 1, 20_000, "0x1.53afb7e90ff97p+0", "0x1.50041114ce4e2p-8"),
    ("mixed", 1, 1, 20_000, "0x1.f126e978d4fdfp-3", "0x1.a6523d14642e3p-9"),
    ("mixed", 5, 2, 20_000, "0x1.e5df3b645a1cbp+3", "0x1.0343a8230e1bep-3"),
    ("general", _PATH, 1, 20_000, "0x1.c886594af4f0ep-1", "0x1.da30531ad16ecp-8"),
    ("general", 2, 2, 20_000, "0x1.0d97f62b6ae7dp-1", "0x1.304ccd1d31a5ep-7"),
    ("exchangeable", 2, 1, 20_000, "0x1.b6a161e4f7660p-2", "0x1.439f103041fc2p-8"),
    ("exchangeable", 4, 1, 20_000, "0x1.17dbf487fcb92p+1", "0x1.93fa6c3920911p-7"),
    ("explicit", 2, 1, 20_000, "0x1.74189374bc6a8p+0", "0x1.ab230e74d827dp-8"),
    ("multinomial", 3, 2, 20_000, "0x1.1e1e4f765fd8bp+0", "0x1.6c757db260620p-8"),
    ("multinomial", _CUT, 1, 20_000, "0x1.18068db8bac71p+0", "0x1.fdcc79a6036aep-9"),
    ("over_cap", 1, 1, 2000, "0x1.7be76c8b43958p-2", "0x1.65d0cd8dd729cp-7"),
    ("over_cap", 6, 1, 2000, "0x1.11fbe76c8b439p+1", "0x1.26c4561bf4a6dp-7"),
]

# sha256 of sample_mvg(_GENERAL, 1000, seed=3) as C-ordered int64 bytes
PINNED_MVG_DRAWS = "7b6271b93846f591ac80a1aabe9bb64ce206591d731bc8dbb6d9b2c569fc2107"


def test_monte_carlo_stream_is_pinned():
    models = _pinned_models()
    got = [
        (name, stat, p, samples, est.mean.hex(), est.stderr.hex())
        for name, stat, p, samples, *_ in PINNED_STREAM
        for est in [mc_moment(models[name], stat, p, n_samples=samples, seed=2024)]
    ]
    assert got == PINNED_STREAM
    draws = sample_mvg(_GENERAL, 1000, seed=3)
    assert draws.shape == (1000, 5)
    assert hashlib.sha256(np.ascontiguousarray(draws, dtype=np.int64).tobytes()).hexdigest() == PINNED_MVG_DRAWS


# more than one chunk: 255 shock sets give chunks of 15,686 draws, so 40,000
# samples are three chunks, the last one shorter; recorded at seed 2024 from
# the oracle that filled a sentinel block and reduced with fresh arrays
_CHUNKED = MvgModel(MvgParams(8, exchangeable_levels=[0.9, 0.99, 0.995, 0.998, 0.998, 0.998, 0.99, 0.98]))
PINNED_CHUNKED_STREAM = [
    (3, 2, "0x1.2cfc504816f00p+0", "0x1.c66b2eb0a8783p-7"),
    (k_out_of_n_structure(8, 6), 1, "0x1.3edc5d6388659p-1", "0x1.22dc39bb45bcdp-8"),
]


def test_monte_carlo_stream_is_pinned_across_chunks():
    assert 2 * oracle._chunk_size(_CHUNKED) < 40_000 < 3 * oracle._chunk_size(_CHUNKED)
    for stat, p, mean, stderr in PINNED_CHUNKED_STREAM:
        est = mc_moment(_CHUNKED, stat, p, n_samples=40_000, seed=2024)
        assert (est.mean.hex(), est.stderr.hex()) == (mean, stderr)


def test_enumeration_is_pinned():
    models = _pinned_models()
    independent = IndependentMarginals([FinitePMF([0.2, 0.5, 0.3])] * 5)
    got = [
        enumerate_moment(models["explicit"], 2, 2).hex(),
        enumerate_moment(models["multinomial"], _CUT, 2).hex(),
        enumerate_moment(independent, _PATH, 2).hex(),
    ]
    assert got == ["0x1.781a5ffc56827p+1", "0x1.7f386e3b46fdfp+0", "0x1.81a60d4562e0ap+0"]


# ---------------------------------------------------------------------------
# statistic values on coordinate-major points
# ---------------------------------------------------------------------------

def _max_of_mins(point, sets) -> int:
    return max(min(point[i - 1] for i in S) for S in sets)


def _min_of_maxes(point, sets) -> int:
    return min(max(point[i - 1] for i in S) for S in sets)


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_values_match_a_per_point_reference(dtype):
    n, N = 5, 2000
    rng = np.random.default_rng(29)
    cols = rng.integers(0, 100, size=(n, N)).astype(dtype)
    points = cols.T.tolist()  # one plain list per point
    model = IndependentMarginals([FinitePMF([0.5, 0.5])] * n)  # fixes n only
    for r in range(1, n + 1):
        want = [sorted(x)[r - 1] for x in points]
        assert _statistic(model, r).values(cols).tolist() == want
        assert _statistic(model, r).values(list(cols)).tolist() == want
        # the same rank as the (n-r+1)-out-of-n:G system, in path and in cut form
        k_of_n = k_out_of_n_structure(n, n - r + 1)
        path = SystemStructure(n, path_sets=k_of_n.path_sets)
        cut = SystemStructure(n, cut_sets=k_of_n.cut_sets)
        assert [_max_of_mins(x, k_of_n.path_sets) for x in points] == want
        assert [_min_of_maxes(x, k_of_n.cut_sets) for x in points] == want
        assert _statistic(model, path).values(cols).tolist() == want
        assert _statistic(model, cut).values(cols).tolist() == want
    assert _statistic(model, _PATH).values(cols).tolist() == [_max_of_mins(x, BRIDGE_PATHS) for x in points]
    assert _statistic(model, _CUT).values(cols).tolist() == [_min_of_maxes(x, BRIDGE_CUTS) for x in points]


def _reduce_reference(cols, structure):
    """The statistic as nested reductions with a fresh array per step."""
    if structure.path_sets is not None:
        return reduce(np.maximum, [reduce(np.minimum, [cols[i - 1] for i in sorted(P)]) for P in structure.path_sets])
    return reduce(np.minimum, [reduce(np.maximum, [cols[i - 1] for i in sorted(C)]) for C in structure.cut_sets])


def _random_family(rng, n: int) -> list[frozenset[int]]:
    """A random antichain over 1..n, with singletons for uncovered components."""
    drawn = {frozenset(int(i) for i in rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)), replace=False))
             for _ in range(int(rng.integers(1, 5)))}
    family = [S for S in drawn if not any(T < S for T in drawn)]
    covered = frozenset().union(*family)
    return family + [frozenset([i]) for i in range(1, n + 1) if i not in covered]


def test_system_values_match_fresh_array_reductions():
    rng = np.random.default_rng(31)
    for trial in range(60):
        n = int(rng.integers(1, 7))
        N = int(rng.integers(1, 300)) if trial % 3 else 2 * systems._ROW_BLOCK + int(rng.integers(1, 300))
        model = IndependentMarginals([FinitePMF([0.5, 0.5])] * n)  # fixes n only
        cols = rng.integers(0, 50, size=(n, N))
        family = [range(1, n + 1)] if trial % 4 == 0 else _random_family(rng, n)  # a single set, or several
        for structure in (SystemStructure(n, path_sets=family), SystemStructure(n, cut_sets=family)):
            before = cols.copy()
            got = _statistic(model, structure).values(cols)
            assert np.array_equal(got, _reduce_reference(cols, structure))
            assert np.array_equal(_statistic(model, structure).values(list(cols)), got)  # rows as samplers pass them
            assert np.array_equal(cols, before)  # the points are only read
            assert not np.shares_memory(got, cols)


def test_explicit_mc_evaluates_the_statistic_once_per_support_point(monkeypatch):
    model = random_explicit(np.random.default_rng(17), 3, m_max=3)
    stat = _statistic(model, 2)
    widths = []
    values = type(stat).values
    monkeypatch.setattr(type(stat), "values", lambda self, cols: widths.append(cols.shape) or values(self, cols))
    mc_moment(model, 2, 1, n_samples=20_000, seed=2024)
    assert widths == [(3, model.points.shape[0])]


@pytest.mark.parametrize("stat, p", [(2, 1), (SystemStructure(5, path_sets=BRIDGE_PATHS), 2)], ids=["rank", "bridge"])
def test_explicit_mc_below_the_support_size_evaluates_the_drawn_points(monkeypatch, stat, p):
    # 4^5 = 1024 listed points and 1000 draws: no per-point table, and the
    # estimate is the per-point table gathered by the same draws, bit for bit
    model = random_explicit(np.random.default_rng(19), 5, m_max=3)
    n_samples = 1000
    assert n_samples < model.support_size() and n_samples <= oracle._chunk_size(model)
    statistic = _statistic(model, stat)
    rng = np.random.default_rng(2024)
    table = statistic.values(model.points.T).astype(float) ** p
    vals = table[rng.choice(model.support_size(), size=n_samples, p=model.probs)]
    mean = float(vals.sum()) / n_samples
    var = max(float(np.dot(vals, vals)) - n_samples * mean * mean, 0.0) / (n_samples - 1)
    widths = []
    values = type(statistic).values
    monkeypatch.setattr(type(statistic), "values", lambda self, cols: widths.append(len(cols[0])) or values(self, cols))
    est = mc_moment(model, stat, p, n_samples=n_samples, seed=2024)
    assert widths and max(widths) <= n_samples
    assert (est.mean.hex(), est.stderr.hex()) == (mean.hex(), math.sqrt(var / n_samples).hex())


def test_sample_mvg_refuses_an_uncovered_component_before_drawing(monkeypatch):
    monkeypatch.setattr(oracle, "_shock_sets", lambda params: (((0, 1), 0.5),))
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ConvergenceError):
        sample_mvg(MvgParams(3, theta={(1, 2, 3): 0.5}), 100, seed=rng)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# the finite-support sampler: the indices Generator.choice draws
# ---------------------------------------------------------------------------

def _zeroed_pmf(seed: int, size: int, lead: int = 0, trail: int = 0) -> np.ndarray:
    """A seeded pmf on ``size`` points with scattered zeros, and ``lead``
    leading and ``trail`` trailing zeros."""
    rng = np.random.default_rng(seed)
    w = rng.random(size) * (rng.random(size) < 0.7)
    w[:lead] = 0.0
    w[size - trail:] = 0.0
    w[lead] += 0.5  # one positive entry at least
    return w / w.sum()


# (probs, n_samples, draw sizes, bucket count): a bucket count below the
# support size means a search per draw
_SAMPLER_CASES = {
    "zeros": (_zeroed_pmf(1, 50), 20_000, [20_000], 1 << 10),
    "leading_zeros": (_zeroed_pmf(2, 40, lead=7), 5000, [1, 999, 4000], 1 << 10),
    "trailing_zeros": (_zeroed_pmf(3, 40, trail=9), 5000, [2500, 2500], 1 << 10),
    "both_ends_zero": (_zeroed_pmf(4, 200, lead=60, trail=60), 50_000, [50_000], 1 << 11),
    "one_point": (np.array([1.0]), 1000, [1000], 1 << 10),
    "sizes_below_the_bucket_count": (_zeroed_pmf(5, 28), 1000, [1, 7, 100, 892], 1 << 10),
    "more_points_than_buckets": (_zeroed_pmf(6, 3000, lead=100, trail=100), 1000, [600, 400], 1 << 10),
    "many_buckets": (_zeroed_pmf(7, 3000), 100_000, [100_000], 1 << 15),
}


@pytest.mark.parametrize("case", list(_SAMPLER_CASES))
def test_the_index_sampler_draws_what_choice_draws(case):
    probs, n_samples, sizes, buckets = _SAMPLER_CASES[case]
    assert oracle._guide_buckets(probs.size, n_samples) == buckets
    draw = oracle._index_sampler(probs, n_samples)
    got, want = np.random.default_rng(2024), np.random.default_rng(2024)
    for size in sizes:
        idx = draw(size, got)
        ref = want.choice(probs.size, size=size, p=probs)
        assert idx.dtype == ref.dtype and np.array_equal(idx, ref), size
    assert got.random() == want.random()


class _DyadicUniforms(np.random.Generator):
    """Uniforms on the grid k/64, a cdf value whenever the cdf is dyadic."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.arange(size) % 64 / 64.0


@pytest.mark.parametrize("probs, n_samples, head", [
    # cdf 0, 1/4, 1/4, 3/8, 1/2, 1, 1 in a table of 2^10 buckets
    (np.array([0.0, 0.25, 0.0, 0.125, 0.125, 0.5, 0.0]), 1000, [1] * 16 + [3] * 8 + [4] * 8 + [5] * 32),
    # cdf k/2048, more points than buckets
    (np.full(2048, 1 / 2048), 1000, list(range(0, 2048, 32))),
], ids=["guide_table", "searched"])
def test_a_uniform_equal_to_a_cdf_value_draws_the_next_index(probs, n_samples, head):
    # the uniforms hit cdf values exactly; as in choice, the index counts
    # the cdf values <= u
    want = _DyadicUniforms(np.random.PCG64(0)).choice(probs.size, size=640, p=probs)
    got = oracle._index_sampler(probs, n_samples)(640, _DyadicUniforms(np.random.PCG64(0)))
    assert want[:64].tolist() == head
    assert np.array_equal(got, want)


def test_the_bucket_count_rule():
    # about 8 per point, a power of two within 2^10..2^20, and never above
    # the power of two at or above the sample count
    assert oracle._guide_buckets(28, 10**6) == 1 << 10
    assert oracle._guide_buckets(129, 10**6) == 1 << 11
    assert oracle._guide_buckets(200_000, 10**7) == 1 << 20
    assert oracle._guide_buckets(200_000, 5000) == 1 << 13
    assert oracle._guide_buckets(2_042_975, 1000) == 1 << 10


class _NoChoice(np.random.Generator):
    def choice(self, *args, **kwargs):
        raise AssertionError("Generator.choice was called")


def _finite_models():
    return {
        "explicit": random_explicit(np.random.default_rng(17), 3, m_max=3),
        "explicit_drawn_points": random_explicit(np.random.default_rng(19), 5, m_max=3),  # 1024 points
        "multinomial": multinomial_pmf(6, [0.2, 0.3, 0.1, 0.25, 0.15]),
        "finite_marginals": IndependentMarginals([FinitePMF([0.2, 0.5, 0.3]), FinitePMF([0.0, 0.4, 0.0, 0.6])] * 2),
    }


@pytest.mark.parametrize("name", list(_finite_models()))
def test_finite_supports_never_call_choice(name):
    model = _finite_models()[name]
    n_samples = 1000 if name == "explicit_drawn_points" else 20_000
    est = mc_moment(model, 2, 1, n_samples=n_samples, seed=_NoChoice(np.random.PCG64(2024)))
    want = mc_moment(model, 2, 1, n_samples=n_samples, seed=2024)
    assert (est.mean.hex(), est.stderr.hex()) == (want.mean.hex(), want.stderr.hex())


@pytest.mark.parametrize("name, n_samples", [("explicit", 12_000), ("explicit_drawn_points", 1000)])
def test_explicit_mc_across_chunks_gathers_what_choice_draws_per_chunk(monkeypatch, name, n_samples):
    model = _finite_models()[name]
    monkeypatch.setattr(oracle, "_CHUNK_BUDGET", 401 * model.n)  # chunks of 401 draws
    chunk = oracle._chunk_size(model)
    assert 2 * chunk < n_samples
    table = _statistic(model, 2).values(model.points.T).astype(float)
    rng = np.random.default_rng(2024)
    total = total_sq = 0.0
    for start in range(0, n_samples, chunk):
        vals = table[rng.choice(model.support_size(), size=min(chunk, n_samples - start), p=model.probs)]
        total += float(vals.sum())
        total_sq += float(np.dot(vals, vals))
    mean = total / n_samples
    stderr = math.sqrt(max(total_sq - n_samples * mean * mean, 0.0) / (n_samples - 1) / n_samples)
    seed = np.random.default_rng(2024)
    est = mc_moment(model, 2, 1, n_samples=n_samples, seed=seed)
    assert (est.mean.hex(), est.stderr.hex()) == (mean.hex(), stderr.hex())
    assert seed.random() == rng.random()


# ---------------------------------------------------------------------------
# the integer rule for sample counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_samples", [2000.0, 2000.5, "2000"])
def test_sample_counts_that_are_not_integers_are_refused(n_samples):
    with pytest.raises(ValidationError, match="n_samples"):
        mc_moment(IndependentMarginals([Poisson(1.0)] * 2), 1, 1, n_samples, 0)
    with pytest.raises(ValidationError, match="n_samples"):
        sample_mvg(MvgParams(2, theta={(1,): 0.7, (2,): 0.8}), n_samples)


def test_an_integer_sample_count_of_numpy_type_is_a_python_int():
    model = IndependentMarginals([Poisson(1.0)] * 2)
    est = mc_moment(model, 1, 1, np.int64(2000), 0)
    want = mc_moment(model, 1, 1, 2000, 0)
    assert type(est.samples) is int and est.samples == 2000
    assert type(est.mean) is float and (est.mean.hex(), est.stderr.hex()) == (want.mean.hex(), want.stderr.hex())
    params = MvgParams(2, theta={(1,): 0.7, (2,): 0.8})
    assert np.array_equal(sample_mvg(params, np.int64(10), seed=1), sample_mvg(params, 10, seed=1))
