"""Enumeration and Monte Carlo reference calculators."""

import numpy as np
import pytest

from lifemoments import (
    CapacityError,
    FinitePMF,
    IndependentMarginals,
    McEstimate,
    MomentRequest,
    MvgParams,
    SystemStructure,
    ValidationError,
    enumerate_moment,
    exact_moment_finite,
    mc_moment,
    multinomial_pmf,
    sample_mvg,
)
from lifemoments import distributions
from conftest import random_explicit


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
