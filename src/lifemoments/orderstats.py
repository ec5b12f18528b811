"""Moments of order statistics X_{r:n} from dependent discrete vectors.

Every moment here and in `systems` comes from the survival-series identity

    E T^p = sum_m ((m+1)^p - m^p) P(T > m)

for T a statistic of the vector: an order statistic X_{r:n} (`_OrderStat`,
here) or a coherent-system lifetime (`_System`, in `systems`); X_{r:n} is
the (n-r+1)-out-of-n:G system.  A statistic gives its survival series
P(T > m) for m = m_lo..m_hi (``series``), its d-scale (``scale``) and its
value at given points (``values``, for the oracles).  `_moment` sums the
series from m = 0 and `_survival` reads the one-row range m..m, for every
statistic; `systems.moments`, the public entry for any statistic, sums
through `_moment` unless the model kind has a closed form.  Finite supports
run to the end of the support; infinite supports are truncated at an index
M0 chosen so the discarded tail is provably at most a requested d > 0 (the
partial sums always underestimate, so the error sign is known).  The
d-scale tightens a single marginal's tail condition: `binomial_head(n, r)`
for X_{r:n}, the positive subset coefficients for systems.  Closed-form M0
planners cover Poisson and negative binomial marginals; a generic planner
searches any user-supplied tail oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .distributions import _TAIL_SLACK, IndependentMarginals, JointModel, NegBin, Poisson, _support_clamp
from .errors import (
    ConvergenceError,
    NumericError,
    UnsupportedModelError,
    ValidationError,
    _as_int,
    _as_order,
)
from .mvg import MvgParams, mvg_orderstat_factorial_moment

__all__ = [
    "MomentRequest",
    "TruncationPlan",
    "MomentResult",
    "survival_orderstat",
    "exact_moment_finite",
    "approx_moment",
    "plan_poisson",
    "plan_negbin",
    "plan_generic",
    "plan_for",
]

@dataclass(frozen=True)
class MomentRequest:
    """Which moment: rank r of n, order p, and (for truncation) error bound d."""

    r: int
    n: int
    p: int
    d: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "r", _as_int(self.r, "rank r"))
        object.__setattr__(self, "n", _as_int(self.n, "n"))
        object.__setattr__(self, "p", _as_order(self.p))
        if not 1 <= self.r <= self.n:
            raise ValidationError(f"rank r={self.r} outside 1..{self.n}")
        _check_request(self.p, self.d)


@dataclass(frozen=True)
class TruncationPlan:
    """A truncation index M0, the dominating marginal j0, and the threshold used."""

    M0: int
    j0: int
    threshold: float

    def __post_init__(self):
        if self.M0 < -1:
            raise ValidationError(f"M0={self.M0} must be >= -1")


@dataclass(frozen=True)
class MomentResult:
    """A moment and its route.  A series summed to the end of a finite
    support without a d or a plan is ``exact`` and has neither field.  A
    series given a d or a plan is not exact: ``M0_used`` is its last index
    and ``error_bound`` the d, if any, so the moment lies in [value,
    value + d].  A closed form (`systems.moments` on multivariate geometric
    components) is not exact, from rounding in its signed sum, and has
    neither field."""

    value: float
    exact: bool
    M0_used: int | None = None
    error_bound: float | None = None

    def __post_init__(self):
        if self.exact and (self.M0_used is not None or self.error_bound is not None):
            raise ValidationError("exact results carry no truncation metadata")


# ---------------------------------------------------------------------------
# the statistic entries
# ---------------------------------------------------------------------------

class _OrderStat:
    """T = X_{r:n}, read from the model's class counts; ``form`` as in `survival_orderstat`."""

    def __init__(self, model: JointModel, r, n: int, form: str = "auto"):
        if n != model.n:
            raise ValidationError(f"n={n} does not match model.n={model.n}")
        r = _as_int(r, "rank r")
        if not 1 <= r <= n:
            raise ValidationError(f"rank r={r} outside 1..{n}")
        if form not in ("auto", "low", "high"):
            raise ValidationError(f"form must be auto, low, or high, not {form!r}")
        self.n, self.r, self.form = n, r, form

    @property
    def scale(self) -> int:
        return binomial_head(self.n, self.r)

    def series(self, model: JointModel, m_hi: int, m_lo: int = 0) -> np.ndarray:
        return model.orderstat_survival_series(self.r, m_hi, self.form, m_lo)

    def values(self, cols: np.ndarray) -> np.ndarray:
        """T at each of N points given coordinate-major, ``cols`` an (n, N)
        array or a list of n rows."""
        cols = np.asarray(cols)
        if self.r == 1:
            return cols.min(axis=0)
        if self.r == self.n:
            return cols.max(axis=0)
        # partitioning each point's n values beats partitioning along axis 0
        return np.partition(cols.T, self.r - 1, axis=1)[:, self.r - 1]

    def mvg_factorial_moments(self, params: MvgParams, p: int) -> list[float]:
        return [mvg_orderstat_factorial_moment(params, self.r, self.n, q) for q in range(1, p + 1)]


def _check_request(p: int, d: float | None):
    _as_order(p)
    if d is not None and not d > 0.0:
        raise ValidationError(f"error bound d={d} must be positive")


def _survival(model: JointModel, stat, m: int) -> float:
    """P(T > m) for a threshold m >= -1: 1 at -1, else the series row of the
    clamped threshold alone."""
    m = _as_int(m, "threshold m", -1)
    if m < 0:
        return 1.0
    m = _support_clamp(model, m)
    return float(stat.series(model, m, m_lo=m)[0])


def _moment(
    model: JointModel, stat, p: int, d: float | None = None, plan: TruncationPlan | None = None
) -> MomentResult:
    """E T^p for the statistic ``stat`` from its survival series.

    The series stops at plan.M0, else at the end of a finite support, else
    at the index planned for d / stat.scale.  The result is exact only when
    neither d nor a plan is given.
    """
    _check_request(p, d)
    if plan is not None:
        m_hi = plan.M0
    elif (m_max := model.support_max()) is not None:
        m_hi = m_max - 1
    else:
        m_hi = plan_for(model, p, _require_d(d) / stat.scale).M0
    value = 0.0
    if m_hi >= 0:
        ms = np.arange(m_hi + 1, dtype=float)
        value = float(np.dot((ms + 1.0) ** p - ms**p, stat.series(model, m_hi)))
    if d is None and plan is None:
        return MomentResult(value=value, exact=True)
    return MomentResult(value=value, exact=False, M0_used=m_hi, error_bound=d)


def survival_orderstat(model: JointModel, r: int, n: int, m: int, form: str = "auto") -> float:
    """P(X_{r:n} > m) for a threshold m >= -1.

    The event splits over how many coordinates fall at or below m: either sum
    the classes with fewer than r low coordinates, or complement the classes
    with at least r.  ``form="auto"`` takes the model's own route (the fewer
    classes, or a closed form where the model has one); "low"/"high" force a
    side of the class counts, which is useful for cross-checking the
    evaluations against each other.
    """
    return _survival(model, _OrderStat(model, r, n, form), m)


def exact_moment_finite(model: JointModel, req: MomentRequest) -> MomentResult:
    """E X_{r:n}^p for a finite-support model, summed to the end of the support."""
    if model.support_max() is None:
        raise UnsupportedModelError(
            "model has infinite support; plan a truncation and call approx_moment"
        )
    return _moment(model, _OrderStat(model, req.r, req.n), req.p)


def approx_moment(
    model: JointModel, req: MomentRequest, plan: TruncationPlan | None = None
) -> MomentResult:
    """Partial sum of the moment series up to plan.M0.

    Without a plan the series stops at the end of a finite support, or at
    the index `plan_for` gives for req.d / binomial_head(n, r).  The true
    moment exceeds the returned value by at most the planned d and never by
    a negative amount: dropped terms are non-negative.
    """
    return _moment(model, _OrderStat(model, req.r, req.n), req.p, req.d, plan)


# ---------------------------------------------------------------------------
# truncation planners
# ---------------------------------------------------------------------------

def binomial_head(n: int, r: int) -> int:
    """sum of C(n, s) for s = 0..r-1: the class count of the low-form survival."""
    return sum(math.comb(n, s) for s in range(r))


def _require_d(d: float | None) -> float:
    if d is None:
        raise ValidationError("planning needs an error bound d in the request")
    return d


def _check_threshold(q: float):
    # 1 - tiny rounds to 1.0 in floats; a quantile at 1 does not exist
    if q >= 1.0:
        raise NumericError(
            "requested error bound is too small: the quantile target rounds to 1"
        )


def poisson_truncation_index(dist: Poisson, p: int, d_scaled: float) -> tuple[int, float]:
    """(M0, threshold) certifying tail error <= the pre-scaled bound d_scaled
    for the dominating marginal ``dist`` = Pois(lam).

    The p-th tail moment of Pois(lam) is bounded through the identity
    x(x-1)...(x-p+1) pmf(x) = lam^p pmf(x-p) plus x^p <= 2^(p(p-1)/2) x!/(x-p)!
    for x >= 2(p-1), so the condition reduces to a Poisson quantile at
    1 - d_scaled / (2^(p(p-1)/2) lam^p), read from ``dist`` itself.
    """
    q = 1.0 - d_scaled * 2.0 ** (-(p * (p - 1)) // 2) / dist.lam**p
    if q <= 0.0:
        return p - 2, q
    _check_threshold(q)
    return dist.quantile(q) + p - 1, q


@lru_cache(maxsize=64)  # one model per parameter set: a table row's ranks and orders share its tail work
def _implied_model(family: type, params: tuple[tuple[float, ...], ...]) -> IndependentMarginals:
    """Independent ``family(*args)`` marginals, one per entry of ``params``."""
    return IndependentMarginals([family(*args) for args in params])


def plan_poisson(lambdas: list[float], req: MomentRequest) -> TruncationPlan:
    """Truncation plan for independent Poisson(lambda_j) marginals: `plan_for`
    on the implied model, with d scaled by binomial_head(n, r).  The model is
    kept per tuple of rates (the 64 latest), so every rank and order planned
    for one rate vector reads one dominating marginal's kept cutoff steps
    and tail tables."""
    if len(lambdas) != req.n:
        raise ValidationError(f"need {req.n} rates, got {len(lambdas)}")
    model = _implied_model(Poisson, tuple((float(lam),) for lam in lambdas))
    return plan_for(model, req.p, _require_d(req.d) / binomial_head(req.n, req.r))


def negbin_truncation_index(dist: NegBin, p: int, d_scaled: float) -> tuple[int, float]:
    """(M0, threshold) for the dominating marginal ``dist`` = NBin(R, p0).

    The threshold scales the allowed error by the p-th ascending-factorial
    constant of the marginal, 2^(p(p-1)/2) R(R+1)...(R+p-1) ((1-p0)/p0)^p, and
    M0 is the quantile of the marginal itself at that level.  This is the
    paper's cutoff, kept because it reproduces the golden M0 columns of the
    negative binomial tables.  It is not a certificate for small R: it reads
    the tail condition through NBin(R, p0) rather than through the
    size-shifted NBin(R+p, p0) (which `plan_generic` with a negative
    binomial tail oracle reproduces), and for R <= 3 the realized error can
    exceed d by two orders of magnitude.
    """
    odds = dist.p / (1.0 - dist.p)
    rising = 1.0
    for i in range(p):
        rising *= dist.R + i
    q = 1.0 - d_scaled * odds**p / (2.0 ** ((p * (p - 1)) // 2) * rising)
    if q <= 0.0:
        return p - 2, q
    _check_threshold(q)
    return dist.quantile(q), q


def plan_negbin(R: float, ps: list[float], req: MomentRequest) -> TruncationPlan:
    """Truncation plan for independent NBin(R, p_j) marginals (shared R):
    `plan_for` on the implied model, with d scaled by binomial_head(n, r).
    The model is kept per (R, probabilities), as in `plan_poisson`."""
    if len(ps) != req.n:
        raise ValidationError(f"need {req.n} probabilities, got {len(ps)}")
    model = _implied_model(NegBin, tuple((float(R), float(pj)) for pj in ps))
    return plan_for(model, req.p, _require_d(req.d) / binomial_head(req.n, req.r))


def generic_truncation_index(tail_oracle: Callable[[int], float], p: int, bound: float) -> int:
    """Smallest M0 >= p-2 with tail_oracle(M0) <= bound, by doubling then bisection.

    ``tail_oracle(m)`` must return sum over x > m+1 of x^p pmf(x) for the
    dominating marginal and must be non-increasing in m.  The search gives
    up with ConvergenceError once M0 would pass 2^62.
    """
    # work on t = M0 + 2 >= p so the doubling has a positive anchor
    t_lo = max(p, 1)
    if tail_oracle(t_lo - 2) <= bound:
        return t_lo - 2
    t_hi = t_lo
    while True:
        t_hi *= 2
        if t_hi > 1 << 62:
            raise ConvergenceError("tail never dropped below the bound")
        if tail_oracle(t_hi - 2) <= bound:
            break
    while t_hi - t_lo > 1:
        mid = (t_lo + t_hi) // 2
        if tail_oracle(mid - 2) <= bound:
            t_hi = mid
        else:
            t_lo = mid
    return t_hi - 2


def plan_generic(tail_oracle: Callable[[int], float], req: MomentRequest, j0: int) -> TruncationPlan:
    """Truncation plan from a caller-supplied tail oracle.

    The caller certifies that marginal j0 is stochastically largest at every
    threshold and that its p-th moment is finite; the oracle must compute
    (or upper-bound) sum over x > m+1 of x^p P(X_{j0} = x).
    """
    bound = _require_d(req.d) / binomial_head(req.n, req.r)
    M0 = generic_truncation_index(tail_oracle, req.p, bound)
    return TruncationPlan(M0=M0, j0=j0, threshold=bound)


def plan_for(model: JointModel, p: int, scaled_d: float) -> TruncationPlan:
    """Truncation index for the model's stochastically largest marginal.

    Poisson and shared-size negative binomial families use their closed-form
    planners with j0 the largest rate or the smallest success probability;
    everything else searches the tail moment of the largest-mean marginal
    (smallest index on ties) in one tail table of it.  The caller is
    responsible for the premise that one marginal dominates at every
    threshold (automatic in the two closed-form families).  `_moment` calls
    this with d over the statistic's d-scale.
    """
    margs = model.marginals
    if margs is None:
        raise UnsupportedModelError(f"no truncation planner for {type(model).__name__}")
    if all(isinstance(m, Poisson) for m in margs):
        lams = [m.lam for m in margs]
        j0 = max(range(len(lams)), key=lambda j: (lams[j], -j)) + 1
        M0, q = poisson_truncation_index(margs[j0 - 1], p, scaled_d)
        return TruncationPlan(M0=M0, j0=j0, threshold=q)
    if all(isinstance(m, NegBin) for m in margs) and len({m.R for m in margs}) == 1:
        ps = [m.p for m in margs]
        j0 = min(range(len(ps)), key=lambda j: (ps[j], j)) + 1
        M0, q = negbin_truncation_index(margs[j0 - 1], p, scaled_d)
        return TruncationPlan(M0=M0, j0=j0, threshold=q)
    j0 = max(range(len(margs)), key=lambda j: (margs[j].mean(), -j)) + 1
    # one tail table at the decision's own weight answers every probe of the
    # search: entry m + 2 bounds tail_moment(p, m) (the last, the rest alone)
    tail = margs[j0 - 1]._tail_bounds(p, scaled_d * _TAIL_SLACK)
    M0 = generic_truncation_index(lambda m: tail[min(m + 2, len(tail) - 1)], p, scaled_d)
    return TruncationPlan(M0=M0, j0=j0, threshold=scaled_d)
