"""Acceptance gate.

Each test covers one golden-data or property criterion and prints a
single ``criterion N (...): PASS`` or ``FAIL`` line (run with ``-s`` to see
them).  Tolerances and time budgets are asserted inside the tests.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from lifemoments import (
    FinitePMF,
    Geometric,
    IndependentMarginals,
    MarginalDist,
    MomentRequest,
    MvgModel,
    MvgParams,
    NegBin,
    Poisson,
    SystemStructure,
    TruncationPlan,
    approx_moment,
    enumerate_moment,
    exact_moment_finite,
    factorial_to_raw,
    mc_moment,
    minimal_signature,
    multinomial_pmf,
    mvg_orderstat_factorial_moment,
    mvg_orderstat_mean_var,
    plan_generic,
    plan_negbin,
    plan_poisson,
    signature_from_samaniego,
    survival_orderstat,
    system_mean_var_mvg,
    system_moment_approx,
    system_moment_mvg,
)
from lifemoments import distributions
from conftest import (
    BRIDGE_MINIMAL_SIGNATURE,
    BRIDGE_PATHS,
    random_explicit,
    random_independent,
)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num} ({label}): FAIL", flush=True)
        raise
    print(f"\ncriterion {num} ({label}): PASS", flush=True)


def bridge() -> SystemStructure:
    return SystemStructure(5, path_sets=BRIDGE_PATHS)


# ---------------------------------------------------------------------------
# criterion 1: multinomial order-statistic table (exact, batched)
# ---------------------------------------------------------------------------

MULT_MEANS = [0.215, 0.654, 0.991, 1.325, 1.733, 2.011, 2.368, 2.873, 3.421, 4.410]
MULT_M2 = [0.215, 0.662, 1.120, 1.987, 3.203, 4.148, 5.847, 8.477, 12.048, 20.292]
MULT_VARS = [0.169, 0.234, 0.139, 0.233, 0.199, 0.104, 0.240, 0.226, 0.343, 0.846]


def test_criterion_1_multinomial_table():
    with criterion(1, "multinomial exact table, 30 values within 0.001"):
        t0 = time.perf_counter()
        model = multinomial_pmf(20, [0.1] * 10)
        means, m2s = [], []
        for r in range(1, 11):
            means.append(exact_moment_finite(model, MomentRequest(r=r, n=10, p=1)).value)
            m2s.append(exact_moment_finite(model, MomentRequest(r=r, n=10, p=2)).value)
        elapsed = time.perf_counter() - t0
        for r in range(10):
            assert abs(means[r] - MULT_MEANS[r]) <= 1e-3, f"mean r={r+1}"
            assert abs(m2s[r] - MULT_M2[r]) <= 1e-3, f"m2 r={r+1}"
            assert abs(m2s[r] - means[r] ** 2 - MULT_VARS[r]) <= 1e-3, f"var r={r+1}"
        assert elapsed <= 5.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: Poisson configurations (certified truncation)
# ---------------------------------------------------------------------------

POIS_ROWS = [
    [1.0] * 10,
    [1, 1, 1, 1, 1, 2, 3, 4, 5, 6],
    [1, 1, 1, 1, 1, 10, 10, 10, 10, 10],
    list(range(1, 11)),
    [3, 5, 7, 9, 10, 10, 10, 10, 10, 10],
    [10, 10, 10, 20, 20, 20, 30, 30, 30, 50],
]
POIS_MEANS = [
    [0.010, 0.070, 0.225, 0.471, 0.737, 0.979, 1.230, 1.551, 1.990, 2.738],
    [0.081, 0.343, 0.722, 1.117, 1.557, 2.116, 2.864, 3.851, 5.155, 7.193],
    [0.102, 0.414, 0.860, 1.389, 2.220, 6.497, 8.367, 9.879, 11.483, 13.788],
    [0.620, 1.598, 2.587, 3.585, 4.601, 5.653, 6.774, 8.030, 9.578, 11.974],
    [2.482, 4.354, 5.806, 6.969, 7.980, 8.934, 9.901, 10.963, 12.272, 14.339],
    [7.375, 9.844, 12.339, 16.587, 19.696, 22.727, 26.539, 30.155, 34.638, 50.099],
]
POIS_MEANS_M0 = [
    [6, 7, 8, 8, 8, 9, 9, 9, 9, 9],
    [17, 19, 20, 21, 22, 22, 23, 23, 23, 23],
    [24, 27, 28, 29, 30, 31, 31, 31, 31, 31],
    [24, 27, 28, 29, 30, 31, 31, 31, 31, 31],
    [24, 27, 28, 29, 30, 31, 31, 31, 31, 31],
    [83, 87, 90, 92, 93, 94, 94, 94, 94, 94],
]
POIS_M2 = [
    [0.010, 0.070, 0.227, 0.480, 0.789, 1.173, 1.770, 2.751, 4.412, 8.319],
    [0.082, 0.360, 0.839, 1.585, 2.848, 5.042, 9.030, 16.084, 28.522, 55.608],
    [0.105, 0.453, 1.116, 2.419, 5.809, 45.464, 72.835, 100.538, 135.397, 195.864],
    [0.870, 3.318, 7.636, 13.961, 22.455, 33.449, 47.660, 66.701, 94.812, 149.138],
    [7.922, 20.733, 35.407, 50.229, 65.376, 81.593, 99.979, 122.459, 153.556, 210.746],
    [58.889, 101.184, 157.427, 282.417, 395.389, 524.549, 714.111, 921.182, 1217.132, 2557.719],
]
POIS_M2_M0 = [
    [7, 8, 9, 9, 10, 10, 10, 10, 10, 10],
    [20, 22, 23, 24, 25, 25, 25, 25, 25, 25],
    [28, 31, 32, 33, 34, 34, 34, 34, 34, 34],
    [28, 31, 32, 33, 34, 34, 34, 34, 34, 34],
    [28, 31, 32, 33, 34, 34, 34, 34, 34, 34],
    [92, 96, 98, 100, 101, 102, 102, 102, 102, 102],
]


def test_criterion_2_poisson_tables():
    with criterion(2, "Poisson rows, values within 0.001 and exact M0"):
        t0 = time.perf_counter()
        d = 0.0005
        for ri, lams in enumerate(POIS_ROWS):
            model = IndependentMarginals([Poisson(float(l)) for l in lams])
            for p, want_vals, want_m0 in (
                (1, POIS_MEANS[ri], POIS_MEANS_M0[ri]),
                (2, POIS_M2[ri], POIS_M2_M0[ri]),
            ):
                for r in range(1, 11):
                    req = MomentRequest(r=r, n=10, p=p, d=d)
                    plan = plan_poisson([float(l) for l in lams], req)
                    assert plan.M0 == want_m0[r - 1], f"row {ri+1} p={p} r={r}"
                    got = approx_moment(model, req, plan).value
                    assert abs(got - want_vals[r - 1]) <= 1e-3, f"row {ri+1} p={p} r={r}"
        elapsed = time.perf_counter() - t0
        assert elapsed <= 30.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 3: negative binomial configurations
# ---------------------------------------------------------------------------

NB_ROWS = [
    (2, [0.1 * i - 0.05 for i in range(1, 11)]),
    (2, [0.25] * 10),
    (2, [0.25] * 8 + [0.5] * 2),
    (2, [0.25] * 8 + [0.75] * 2),
    (5, [0.1 * i - 0.05 for i in range(1, 11)]),
    (5, [0.25] * 10),
    (5, [0.25] * 8 + [0.5] * 2),
    (5, [0.25] * 8 + [0.75] * 2),
]
NB_MEANS = [
    [0.003, 0.049, 0.248, 0.665, 1.268, 2.129, 3.500, 6.017, 12.024, 39.429],
    [0.768, 1.708, 2.617, 3.534, 4.512, 5.603, 6.883, 8.497, 10.788, 15.090],
    [0.409, 1.112, 1.888, 2.716, 3.633, 4.685, 5.946, 7.556, 9.859, 14.194],
    [0.121, 0.562, 1.353, 2.279, 3.304, 4.455, 5.797, 7.469, 9.816, 14.179],
    [0.080, 0.519, 1.302, 2.350, 3.791, 5.889, 9.210, 15.240, 29.435, 95.509],
    [5.295, 7.732, 9.639, 11.387, 13.123, 14.953, 16.998, 19.454, 22.774, 28.644],
    [2.843, 4.983, 7.084, 9.072, 11.031, 13.057, 15.276, 17.892, 21.363, 27.398],
    [0.852, 2.296, 5.987, 8.589, 10.806, 12.952, 15.228, 17.872, 21.356, 27.396],
]
NB_MEANS_M0 = [
    [271, 321, 354, 378, 394, 404, 410, 413, 414, 414],
    [41, 50, 56, 60, 63, 64, 66, 66, 66, 66],
    [41, 50, 56, 60, 63, 64, 66, 66, 66, 66],
    [41, 50, 56, 60, 63, 64, 66, 66, 66, 66],
    [415, 471, 509, 535, 553, 564, 570, 573, 574, 575],
    [64, 74, 81, 86, 89, 91, 92, 93, 93, 93],
    [64, 74, 81, 86, 89, 91, 92, 93, 93, 93],
    [64, 74, 81, 86, 89, 91, 92, 93, 93, 93],
]
NB_M2 = [
    [0.003, 0.050, 0.271, 0.874, 2.327, 5.918, 15.425, 45.583, 189.511, 2254.318],
    [1.407, 4.245, 8.571, 14.671, 23.111, 34.924, 52.086, 78.900, 127.351, 254.734],
    [0.579, 2.068, 4.737, 8.976, 15.375, 24.943, 39.576, 63.396, 107.904, 228.447],
    [0.134, 0.772, 2.808, 6.782, 13.235, 23.067, 38.084, 62.335, 107.267, 228.182],
    [0.084, 0.667, 2.456, 6.867, 16.860, 39.644, 96.143, 264.684, 1011.931, 10968.740],
    [33.944, 65.736, 99.251, 136.645, 180.123, 232.831, 300.169, 393.140, 540.481, 867.679],
    [11.095, 28.637, 55.155, 88.494, 129.197, 179.639, 244.761, 335.147, 478.848, 799.026],
    [1.562, 7.117, 42.120, 81.087, 125.032, 177.352, 243.566, 334.577, 478.621, 798.965],
]
NB_M2_M0 = [
    [369, 418, 451, 474, 490, 500, 506, 509, 510, 510],
    [51, 60, 66, 70, 73, 75, 76, 77, 77, 77],
    [51, 60, 66, 70, 73, 75, 76, 77, 77, 77],
    [51, 60, 66, 70, 73, 75, 76, 77, 77, 77],
    [541, 595, 631, 656, 673, 684, 691, 693, 694, 695],
    [79, 89, 96, 100, 103, 105, 107, 107, 107, 107],
    [79, 89, 96, 100, 103, 105, 107, 107, 107, 107],
    [79, 89, 96, 100, 103, 105, 107, 107, 107, 107],
]


def test_criterion_3_negbin_tables():
    with criterion(3, "negative binomial rows, values within 0.001 and exact M0"):
        t0 = time.perf_counter()
        d = 0.0005
        for ri, (R, ps) in enumerate(NB_ROWS):
            model = IndependentMarginals([NegBin(R, q) for q in ps])
            for p, want_vals, want_m0 in (
                (1, NB_MEANS[ri], NB_MEANS_M0[ri]),
                (2, NB_M2[ri], NB_M2_M0[ri]),
            ):
                for r in range(1, 11):
                    req = MomentRequest(r=r, n=10, p=p, d=d)
                    plan = plan_negbin(R, ps, req)
                    assert plan.M0 == want_m0[r - 1], f"row {ri+1} p={p} r={r}"
                    got = approx_moment(model, req, plan).value
                    assert abs(got - want_vals[r - 1]) <= 1e-3, f"row {ri+1} p={p} r={r}"
        elapsed = time.perf_counter() - t0
        assert elapsed <= 120.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 4: multivariate geometric closed forms
# ---------------------------------------------------------------------------

def _mvg_general_rows():
    base = {(i,): 0.9 for i in range(1, 9)}
    base[(9,)] = 0.8
    base[(10,)] = 0.8
    row1 = dict(base)
    row1[tuple(range(1, 11))] = 0.99
    row2 = dict(base)
    for i in range(1, 11):
        for j in range(i + 1, 11):
            row2[(i, j)] = 0.99
    row3 = dict(base)
    for j in range(2, 11):
        row3[(1, j)] = 0.99
    row4 = dict(row3)
    row4[tuple(range(1, 11))] = 0.95
    return [row1, row2, row3, row4]


MVG_GENERAL_MEANS = [
    [0.375, 1.138, 2.110, 3.239, 4.563, 6.157, 8.149, 10.784, 14.644, 21.851],
    [0.213, 0.583, 1.115, 1.760, 2.525, 3.450, 4.614, 6.184, 8.566, 13.406],
    [0.336, 0.997, 1.850, 2.860, 4.061, 5.535, 7.424, 10.016, 14.030, 22.350],
    [0.314, 0.919, 1.674, 2.524, 3.478, 4.565, 5.835, 7.372, 9.344, 12.209],
]
MVG_GENERAL_VARS = [
    [0.516, 1.407, 2.456, 3.876, 5.978, 9.271, 14.827, 25.311, 49.390, 137.343],
    [0.258, 0.681, 1.194, 1.787, 2.546, 3.623, 5.287, 8.202, 14.656, 40.025],
    [0.449, 1.221, 2.121, 3.258, 4.849, 7.238, 11.153, 18.502, 35.978, 109.293],
    [0.413, 1.118, 1.960, 3.088, 4.779, 7.469, 11.993, 20.185, 36.868, 80.375],
]
MVG_EXCH_ROWS = [
    {1: 0.9, 2: 0.99},
    {1: 0.9, 2: 0.95},
    {1: 0.9, 2: 0.95, 10: 0.99},
    {2: 0.95},
    {8: 0.95},
]
MVG_EXCH_MEANS = [
    [0.285, 0.705, 1.303, 2.008, 2.839, 3.835, 5.080, 6.740, 9.229, 14.208],
    [0.036, 0.077, 0.211, 0.387, 0.656, 0.992, 1.420, 1.984, 2.828, 4.515],
    [0.036, 0.077, 0.209, 0.382, 0.648, 0.979, 1.398, 1.948, 2.764, 4.367],
    [0.110, 0.110, 0.403, 0.560, 0.948, 1.332, 1.857, 2.540, 3.567, 5.619],
    [0.110] * 8 + [0.403, 0.587],
]
MVG_EXCH_VARS = [
    [0.366, 0.885, 1.499, 2.208, 3.101, 4.338, 6.197, 9.366, 16.184, 42.216],
    [0.037, 0.080, 0.203, 0.345, 0.513, 0.694, 0.927, 1.317, 2.150, 5.244],
    [0.037, 0.080, 0.201, 0.341, 0.509, 0.690, 0.926, 1.324, 2.177, 5.293],
    [0.123, 0.123, 0.398, 0.546, 0.791, 1.065, 1.425, 2.040, 3.312, 7.967],
    [0.123] * 8 + [0.398, 0.592],
]


def _levels_vector(level_map: dict) -> list:
    levels = [1.0] * 10
    for k, v in level_map.items():
        levels[k - 1] = v
    return levels


def test_criterion_4_mvg_tables():
    with criterion(4, "MVG order-statistic tables via closed form"):
        t0 = time.perf_counter()
        for ri, theta in enumerate(_mvg_general_rows()):
            params = MvgParams(10, theta=theta)
            for r in range(1, 11):
                mean, var = mvg_orderstat_mean_var(params, r, 10)
                assert abs(mean - MVG_GENERAL_MEANS[ri][r - 1]) <= 1e-3, f"row {ri+1} r={r}"
                assert abs(var - MVG_GENERAL_VARS[ri][r - 1]) <= 1e-3, f"row {ri+1} r={r}"
        for ri, level_map in enumerate(MVG_EXCH_ROWS):
            params = MvgParams(10, exchangeable_levels=_levels_vector(level_map))
            for r in range(1, 11):
                mean, var = mvg_orderstat_mean_var(params, r, 10)
                assert abs(mean - MVG_EXCH_MEANS[ri][r - 1]) <= 1e-3, f"exch row {ri+1} r={r}"
                assert abs(var - MVG_EXCH_VARS[ri][r - 1]) <= 1e-3, f"exch row {ri+1} r={r}"
        elapsed = time.perf_counter() - t0
        assert elapsed <= 10.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 5: bridge-system tables
# ---------------------------------------------------------------------------

def _bridge_theta(setting: int) -> dict:
    if setting == 1:
        return {(1,): 0.9, (3,): 0.8, (1, 4, 5): 0.99, (2, 3, 5): 0.99}
    if setting == 2:
        return {
            (1,): 0.9, (2,): 0.9, (3,): 0.8, (4,): 0.8, (5,): 0.8,
            (1, 4, 5): 0.99, (2, 3, 5): 0.99,
        }
    if setting == 3:
        return {(1,): 0.9, (2,): 0.9, (3,): 0.8, (4,): 0.8, (5,): 0.8}
    theta = {(i,): 0.9 for i in range(1, 6)}
    for i in range(1, 6):
        for j in range(i + 1, 6):
            theta[(i, j)] = 0.95
    if setting == 5:
        theta[tuple(range(1, 6))] = 0.99
    return theta


BRIDGE_MVG = [
    (1, 49.251, 2474.938),
    (2, 4.751, 16.996),
    (3, 5.237, 20.001),
    (4, 2.163, 4.167),
    (5, 2.109, 4.034),
]
BRIDGE_POISSON = [
    ([1] * 5, 0.877, 6, 1.246, 8),
    ([1, 2, 3, 4, 5], 2.728, 17, 8.935, 19),
    ([5, 4, 3, 2, 1], 3.458, 17, 13.980, 19),
    ([10, 10, 20, 20, 50], 17.600, 86, 321.251, 95),
    ([20, 50, 10, 20, 10], 20.103, 86, 422.855, 95),
]


def test_criterion_5_bridge_tables():
    with criterion(5, "bridge MVG pairs and bridge Poisson pairs"):
        structure = bridge()
        for setting, want_et, want_var in BRIDGE_MVG:
            et, var = system_mean_var_mvg(MvgParams(5, theta=_bridge_theta(setting)), structure)
            assert abs(et - want_et) <= 1e-3, f"setting {setting} mean"
            assert abs(var - want_var) <= 1e-3, f"setting {setting} var"
        for lams, want_et, want_m0a, want_et2, want_m0b in BRIDGE_POISSON:
            model = IndependentMarginals([Poisson(float(l)) for l in lams])
            res1 = system_moment_approx(model, structure, 1, 0.0005)
            res2 = system_moment_approx(model, structure, 2, 0.0005)
            assert res1.M0_used == want_m0a, f"{lams} M0 p=1"
            assert res2.M0_used == want_m0b, f"{lams} M0 p=2"
            assert abs(res1.value - want_et) <= 1e-3, f"{lams} ET"
            assert abs(res2.value - want_et2) <= 1e-3, f"{lams} ET2"


def _quantile_per_x(dist: MarginalDist, q: float) -> int:
    """The library's quantile decision on a pmf built one ``logpmf`` call at a time."""
    eps = 1.0 - q
    x_hi, rho = dist._tail_cutoff(eps * distributions._TAIL_SLACK, 0)
    pmfs = np.exp([dist.logpmf(x) for x in range(x_hi + 1)])
    tail = np.concatenate([np.cumsum(pmfs[::-1])[::-1][1:], [0.0]])
    rem = pmfs[x_hi] * rho / (1.0 - rho)
    return int(np.nonzero(tail + rem <= eps)[0][0])


def test_golden_truncation_indices_match_a_per_x_quantile(monkeypatch):
    """A last-bit change in an array pmf could flip a quantile decision: every
    M0 of criteria 2, 3 and 5 is re-derived with per-x pmfs and must agree."""
    requests = [MomentRequest(r=r, n=10, p=p, d=0.0005) for p in (1, 2) for r in range(1, 11)]

    def m0s():
        out = [plan_poisson([float(l) for l in lams], req).M0 for lams in POIS_ROWS for req in requests]
        out += [plan_negbin(R, ps, req).M0 for R, ps in NB_ROWS for req in requests]
        for lams, *_ in BRIDGE_POISSON:
            model = IndependentMarginals([Poisson(float(l)) for l in lams])
            out += [system_moment_approx(model, bridge(), p, 0.0005).M0_used for p in (1, 2)]
        return out

    golden = [m for table in zip(POIS_MEANS_M0, POIS_M2_M0) for row in table for m in row]
    golden += [m for table in zip(NB_MEANS_M0, NB_M2_M0) for row in table for m in row]
    golden += [m for _, _, m0a, _, m0b in BRIDGE_POISSON for m in (m0a, m0b)]
    assert m0s() == golden
    monkeypatch.setattr(MarginalDist, "quantile", _quantile_per_x)
    assert m0s() == golden


# ---------------------------------------------------------------------------
# criterion 6: bridge signature by three routes
# ---------------------------------------------------------------------------

def test_criterion_6_signature_routes():
    with criterion(6, "bridge signature by three independent routes"):
        from_subsets = minimal_signature(bridge())
        from_samaniego = signature_from_samaniego(
            [Fraction(0), Fraction(1, 5), Fraction(3, 5), Fraction(1, 5), Fraction(0)], 5
        )
        from_fixture = BRIDGE_MINIMAL_SIGNATURE
        assert from_subsets == from_samaniego == from_fixture == (0, 2, 2, -5, 2)
        assert all(isinstance(a, int) for a in from_subsets)
        assert all(isinstance(a, int) for a in from_samaniego)


# ---------------------------------------------------------------------------
# criterion 7: property suite
# ---------------------------------------------------------------------------

def _property_low_high_forms():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        model = random_explicit(rng, n, m_max=int(rng.integers(1, 4)))
        r = int(rng.integers(1, n + 1))
        m = int(rng.integers(-1, model.support_max() + 1))
        low = survival_orderstat(model, r, n, m, form="low")
        high = survival_orderstat(model, r, n, m, form="high")
        assert abs(low - high) <= 1e-9, f"trial {trial}"


def _property_rearrangement():
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        model = random_explicit(rng, n, m_max=3)
        for p in (1, 2):
            total_ranks = math.fsum(
                exact_moment_finite(model, MomentRequest(r=r, n=n, p=p)).value
                for r in range(1, n + 1)
            )
            pts = model.points.astype(float)
            total_marginals = float(np.dot(model.probs, (pts**p).sum(axis=1)))
            assert abs(total_ranks - total_marginals) <= 1e-9


def _property_truncation_error():
    d = 2e-4
    cases = []
    for lams in ([1.0] * 4, [0.5, 1.5, 2.5, 3.5]):
        model = IndependentMarginals([Poisson(l) for l in lams])
        for r in (1, 3):
            for p in (1, 2):
                req = MomentRequest(r=r, n=4, p=p, d=d)
                cases.append((model, req, plan_poisson(lams, req)))
    ps = [0.3, 0.5, 0.6, 0.7]
    model = IndependentMarginals([NegBin(2, q) for q in ps])
    for r in (2, 4):
        req = MomentRequest(r=r, n=4, p=1, d=d)
        cases.append((model, req, plan_negbin(2, ps, req)))
    for model, req, plan in cases:
        approx = approx_moment(model, req, plan).value
        ref_plan = TruncationPlan(M0=4 * max(plan.M0, 1) + 8, j0=plan.j0, threshold=plan.threshold)
        ref = approx_moment(model, req, ref_plan).value
        err = ref - approx
        assert -1e-12 <= err <= d, f"err={err} for r={req.r} p={req.p}"


def _property_mvg_closed_vs_truncated():
    params = MvgParams(
        4, theta={(1,): 0.7, (2,): 0.8, (3,): 0.75, (4,): 0.85, (1, 2, 3, 4): 0.95}
    )
    model = MvgModel(params)
    d = 5e-7
    # every subset-minimum is geometric; the slowest one dominates the tail
    slow = Geometric(1.0 - 0.85 * 0.95)
    for r in (1, 3, 4):
        for p in (1, 2):
            fms = [mvg_orderstat_factorial_moment(params, r, 4, q) for q in range(1, p + 1)]
            closed = factorial_to_raw(fms)[p - 1]
            req = MomentRequest(r=r, n=4, p=p, d=d)
            plan = plan_generic(lambda m: slow.tail_moment(p, m), req, j0=4)
            got = approx_moment(model, req, plan).value
            assert abs(closed - got) <= 1e-6, f"r={r} p={p}"


def _property_exhaustive_oracle():
    rng = np.random.default_rng(11)
    for trial in range(12):
        n = int(rng.integers(2, 5))
        model = random_explicit(rng, n, m_max=3) if trial % 2 else random_independent(rng, n)
        r = int(rng.integers(1, n + 1))
        for p in (1, 2):
            got = exact_moment_finite(model, MomentRequest(r=r, n=n, p=p)).value
            want = enumerate_moment(model, r, p)
            assert abs(got - want) <= 1e-10


def _property_mc_coverage():
    hits = 0
    bits = IndependentMarginals([FinitePMF([0.5, 0.5])] * 2)
    parallel = SystemStructure(2, path_sets=[[1], [2]])
    for seed in range(25):
        est = mc_moment(bits, parallel, 1, n_samples=20_000, seed=seed)
        if abs(est.mean - 0.75) <= 3.0 * est.stderr:
            hits += 1
    params = MvgParams(5, theta={(i,): 0.5 for i in range(1, 6)})
    truth = system_moment_mvg(params, bridge(), 1)
    mvg_model = MvgModel(params)
    for seed in range(25, 50):
        est = mc_moment(mvg_model, bridge(), 1, n_samples=20_000, seed=seed)
        if abs(est.mean - truth) <= 3.0 * est.stderr:
            hits += 1
    assert hits >= 45, f"coverage {hits}/50"


def test_criterion_7_property_suite():
    with criterion(7, "property suite"):
        t0 = time.perf_counter()
        _property_low_high_forms()
        _property_rearrangement()
        _property_truncation_error()
        _property_mvg_closed_vs_truncated()
        _property_exhaustive_oracle()
        _property_mc_coverage()
        elapsed = time.perf_counter() - t0
        assert elapsed <= 600.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 8: sweep behaviour
# ---------------------------------------------------------------------------

def test_criterion_8_sweeps():
    with criterion(8, "bridge sweeps: Poisson gap shrinks, geometric decreasing"):
        structure = bridge()
        gaps = []
        for lam in (10.0, 20.0, 50.0):
            model = IndependentMarginals([Poisson(lam)] * 5, exchangeable=True)
            et = system_moment_approx(model, structure, 1, 0.0005).value
            gaps.append(abs(et - lam))
        assert gaps[0] > gaps[1] > gaps[2], f"gaps {gaps}"
        ets = []
        for pi in np.linspace(0.005, 0.245, 50):
            params = MvgParams(5, theta={(i,): 1.0 - float(pi) for i in range(1, 6)})
            ets.append(system_moment_mvg(params, structure, 1))
        assert all(math.isfinite(v) for v in ets)
        assert all(a > b for a, b in zip(ets, ets[1:])), "not strictly decreasing"
