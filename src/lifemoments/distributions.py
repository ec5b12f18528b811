"""Discrete marginals and joint models of dependent integer random vectors.

Every moment formula in this package reads a joint model through one query:
the probability that each coordinate in one index set is <= m while each
coordinate in another is > m (``rect_prob``).  Three model kinds implement
it: an explicit finite pmf, a product of independent marginals, and the
common-shock geometric model of module ``mvg``.  The quantities the moment
series consume (class counts, subset min/max series, order-statistic
survival) are methods of the model, with rectangle-query defaults on
``JointModel`` that each kind overrides where it has a faster form.

Marginal pmf/cdf work is done in log space via ``math.lgamma`` so that large
rates and far tail indices neither overflow nor lose the leading digits.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations
from math import exp, lgamma, log
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CapacityError,
    ConvergenceError,
    UnsupportedModelError,
    ValidationError,
)
from .mvg import MvgParams, mvg_min_param, mvg_orderstat_survival

__all__ = [
    "MarginalDist",
    "Poisson",
    "NegBin",
    "Geometric",
    "FinitePMF",
    "JointModel",
    "ExplicitFinitePMF",
    "MultinomialModel",
    "IndependentMarginals",
    "MvgModel",
    "rect_prob",
    "marginal_survival",
    "quantile",
    "multinomial_pmf",
]

# Relative slack left between the truncated tail remainder and the decision
# threshold in quantile/tail searches; keeps cutoff error far below the
# quantity being compared.
_TAIL_SLACK = 1e-8
_DOUBLING_CAP = 200

SUBSET_N_CAP = 20  # subset enumeration over C(n, s) sets beyond this is refused


# ---------------------------------------------------------------------------
# marginal distributions
# ---------------------------------------------------------------------------

class MarginalDist:
    """A univariate distribution on the non-negative integers."""

    def logpmf(self, x: int) -> float:
        raise NotImplementedError

    def pmf(self, x: int) -> float:
        return exp(self.logpmf(x)) if x >= 0 else 0.0

    def pmf_array(self, m_max: int) -> np.ndarray:
        """pmf on 0..m_max as a float vector."""
        return np.exp([self.logpmf(x) for x in range(m_max + 1)])

    def cdf_array(self, m_max: int) -> np.ndarray:
        return np.minimum(np.cumsum(self.pmf_array(m_max)), 1.0)

    def cdf(self, m: int) -> float:
        if m < 0:
            return 0.0
        return float(self.cdf_array(m)[-1])

    def survival(self, m: int) -> float:
        if m < 0:
            return 1.0
        return max(0.0, 1.0 - self.cdf(m))

    def mean(self) -> float:
        raise NotImplementedError

    def support_max(self) -> int | None:
        """Largest support point, or None for infinite support."""
        return None

    def ratio_bound(self, x: int) -> float:
        """An upper bound on pmf(y+1)/pmf(y) valid for every y >= x."""
        raise NotImplementedError

    # -- tail machinery ----------------------------------------------------

    def _tail_cutoff(self, weight: float, p: int) -> tuple[int, float]:
        """Find X with x^p pmf(x) summable beyond X to below ``weight``.

        Returns (X, rho) where rho < 1 bounds the term ratio beyond X, so the
        discarded remainder is at most term(X) * rho / (1 - rho) < weight.
        """
        x = 1
        for _ in range(_DOUBLING_CAP):
            rho = self.ratio_bound(x) * ((x + 1) / x) ** p
            if rho < 1.0:
                term = exp(self.logpmf(x) + p * log(x))
                if term * rho / (1.0 - rho) < weight:
                    return x, rho
            x *= 2
        raise ConvergenceError("tail of x^p pmf(x) never became summably small")

    def quantile(self, q: float) -> int:
        """Smallest x with P(X <= x) >= q, i.e. with P(X > x) <= 1 - q.

        The decision runs on backward partial sums of the pmf, which stay
        accurate when 1 - q is many orders of magnitude below 1; a forward
        cdf would lose exactly those digits.
        """
        if not 0.0 < q < 1.0:
            raise ValidationError(f"quantile level q={q} outside (0, 1)")
        eps = 1.0 - q
        x_hi, rho = self._tail_cutoff(eps * _TAIL_SLACK, 0)
        pmfs = self.pmf_array(x_hi)
        # tail[m] = P(m < X <= x_hi); adding rem bounds P(X > m) from above
        tail = np.concatenate([np.cumsum(pmfs[::-1])[::-1][1:], [0.0]])
        rem = pmfs[x_hi] * rho / (1.0 - rho)
        hits = np.nonzero(tail + rem <= eps)[0]
        if hits.size == 0:
            raise ConvergenceError("tail never dropped below the quantile level")
        return int(hits[0])

    def tail_moment(self, p: int, m: int) -> float:
        """sum over x > m+1 of x^p pmf(x), including a bound on the cutoff rest.

        The numeric cutoff is chosen so the discarded rest is below 1e-8 of
        the leading tail term; the rest bound itself is added back, so the
        result never underestimates the representable tail.
        """
        if p < 1:
            raise ValidationError("p must be a positive integer")
        lo = max(m + 2, 1)
        first = exp(self.logpmf(lo) + p * log(lo))
        x_hi, rho = self._tail_cutoff(max(first, 1e-300) * _TAIL_SLACK, p)
        x_hi = max(x_hi, lo)
        terms = np.exp([self.logpmf(x) + p * log(x) for x in range(lo, x_hi + 1)])
        rem = terms[-1] * rho / (1.0 - rho)
        return float(np.sum(terms)) + rem


class Poisson(MarginalDist):
    """Poisson(lam) on {0, 1, ...}."""

    def __init__(self, lam: float):
        lam = float(lam)
        if not lam > 0.0 or not math.isfinite(lam):
            raise ValidationError(f"Poisson rate lam={lam} must be positive and finite")
        self.lam = lam

    def logpmf(self, x: int) -> float:
        if x < 0:
            return -math.inf
        return -self.lam + x * log(self.lam) - lgamma(x + 1)

    def mean(self) -> float:
        return self.lam

    def ratio_bound(self, x: int) -> float:
        # pmf(y+1)/pmf(y) = lam/(y+1), decreasing
        return self.lam / (x + 1)

    def __repr__(self) -> str:
        return f"Poisson(lam={self.lam})"


class NegBin(MarginalDist):
    """Negative binomial on {0, 1, ...}: pmf(x) = Gamma(x+R)/(x! Gamma(R)) (1-p)^x p^R.

    R may be any positive real (the pmf is defined through the Gamma
    function); p in (0, 1) is the success probability.
    """

    def __init__(self, R: float, p: float):
        R, p = float(R), float(p)
        if not R > 0.0 or not math.isfinite(R):
            raise ValidationError(f"NegBin size R={R} must be positive and finite")
        if not 0.0 < p < 1.0:
            raise ValidationError(f"NegBin probability p={p} outside (0, 1)")
        self.R = R
        self.p = p

    def logpmf(self, x: int) -> float:
        if x < 0:
            return -math.inf
        return (
            lgamma(x + self.R)
            - lgamma(x + 1)
            - lgamma(self.R)
            + x * math.log1p(-self.p)
            + self.R * log(self.p)
        )

    def mean(self) -> float:
        return self.R * (1.0 - self.p) / self.p

    def ratio_bound(self, x: int) -> float:
        # pmf(y+1)/pmf(y) = (y+R)/(y+1) (1-p): monotone toward 1-p, so the
        # sup over y >= x is the larger of the value at x and the limit
        return max((x + self.R) / (x + 1) * (1.0 - self.p), 1.0 - self.p)

    def __repr__(self) -> str:
        return f"NegBin(R={self.R}, p={self.p})"


class Geometric(MarginalDist):
    """Geometric on {0, 1, ...}: pmf(x) = pi (1-pi)^x, survival (1-pi)^(m+1).

    pi = 0 is rejected: it puts all mass at infinity and no moment exists.
    """

    def __init__(self, pi: float):
        pi = float(pi)
        if not 0.0 < pi <= 1.0:
            raise ValidationError(f"Geometric parameter pi={pi} outside (0, 1]")
        self.pi = pi

    def logpmf(self, x: int) -> float:
        if x < 0:
            return -math.inf
        if self.pi == 1.0:
            return 0.0 if x == 0 else -math.inf
        return log(self.pi) + x * math.log1p(-self.pi)

    def survival(self, m: int) -> float:
        if m < 0:
            return 1.0
        return (1.0 - self.pi) ** (m + 1)

    def cdf(self, m: int) -> float:
        return 1.0 - self.survival(m)

    def mean(self) -> float:
        return (1.0 - self.pi) / self.pi

    def support_max(self) -> int | None:
        return 0 if self.pi == 1.0 else None

    def ratio_bound(self, x: int) -> float:
        return 1.0 - self.pi

    def __repr__(self) -> str:
        return f"Geometric(pi={self.pi})"


class FinitePMF(MarginalDist):
    """Explicit pmf on {0, ..., K}."""

    def __init__(self, probs: Sequence[float]):
        arr = np.asarray(probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("FinitePMF needs a non-empty probability vector")
        if np.any(arr < 0.0):
            raise ValidationError("FinitePMF entries must be non-negative")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise ValidationError(f"FinitePMF sums to {arr.sum()!r}, not 1")
        self.probs = arr
        self._cdf = np.minimum(np.cumsum(arr), 1.0)

    def logpmf(self, x: int) -> float:
        if 0 <= x < self.probs.size and self.probs[x] > 0.0:
            return log(self.probs[x])
        return -math.inf

    def pmf_array(self, m_max: int) -> np.ndarray:
        out = np.zeros(m_max + 1)
        k = min(m_max + 1, self.probs.size)
        out[:k] = self.probs[:k]
        return out

    def cdf(self, m: int) -> float:
        if m < 0:
            return 0.0
        return float(self._cdf[min(m, self.probs.size - 1)])

    def mean(self) -> float:
        return float(np.dot(self.probs, np.arange(self.probs.size)))

    def support_max(self) -> int | None:
        nz = np.nonzero(self.probs)[0]
        return int(nz[-1]) if nz.size else 0

    def quantile(self, q: float) -> int:
        if not 0.0 < q < 1.0:
            raise ValidationError(f"quantile level q={q} outside (0, 1)")
        return int(np.searchsorted(self._cdf, q, side="left"))

    def tail_moment(self, p: int, m: int) -> float:
        if p < 1:
            raise ValidationError("p must be a positive integer")
        lo = m + 2
        if lo >= self.probs.size:
            return 0.0
        xs = np.arange(lo, self.probs.size, dtype=float)
        return float(np.dot(xs**p, self.probs[lo:]))

    def __repr__(self) -> str:
        return f"FinitePMF(K={self.probs.size - 1})"


# ---------------------------------------------------------------------------
# joint models
# ---------------------------------------------------------------------------

class JointModel:
    """A distribution on non-negative-integer vectors of fixed length n.

    Each model kind answers the rectangle query ``rect_prob``; the class
    counts, the subset min/max series and the order-statistic survival have
    defaults built on it, which a kind overrides where it has a faster or
    closed form.  Index sets are frozensets of 1-based coordinates, already
    validated, and thresholds are >= -1.
    """

    n: int
    exchangeable: bool
    # per-coordinate marginal laws when the model has them (the truncation
    # planner reads them); None otherwise
    marginals: tuple[MarginalDist, ...] | None = None

    def support_max(self) -> int | None:
        return None

    def rect_prob(self, low: frozenset[int], up: frozenset[int], m: int) -> float:
        """P(X_i <= m for i in low, X_j > m for j in up)."""
        raise UnsupportedModelError(f"unknown model kind {type(self).__name__}")

    def class_counts(self, m_max: int) -> np.ndarray:
        """(m_max+1, n+1) matrix: row m holds P(exactly s coordinates <= m), s = 0..n.

        Each class is split over its index sets, one rectangle query each;
        under exchangeability one set per class stands for all C(n, s).
        """
        n = self.n
        if not self.exchangeable and n > SUBSET_N_CAP:
            raise CapacityError(
                f"subset enumeration needs C({n}, s) rectangle queries; "
                f"n exceeds the cap {SUBSET_N_CAP}"
            )
        idx = frozenset(range(1, n + 1))
        out = np.empty((m_max + 1, n + 1))
        for m in range(m_max + 1):
            for s in range(n + 1):
                if self.exchangeable:
                    low = frozenset(range(1, s + 1))
                    out[m, s] = math.comb(n, s) * self.rect_prob(low, idx - low, m)
                else:
                    out[m, s] = math.fsum(
                        self.rect_prob(frozenset(S), idx.difference(S), m)
                        for S in combinations(range(1, n + 1), s)
                    )
        return out

    def orderstat_survival_series(self, r: int, m_max: int, form: str = "auto") -> np.ndarray:
        """P(X_{r:n} > m) for m = 0..m_max, read from the class counts.

        The event splits over how many coordinates fall at or below m: either
        sum the classes with fewer than r low coordinates ("low"), or
        complement the classes with at least r ("high").  "auto" picks
        whichever needs fewer classes (ties go to the low form).
        """
        if form == "auto":
            form = "low" if r <= (self.n + 1) / 2 else "high"
        if form not in ("low", "high"):
            raise ValidationError(f"form must be auto, low, or high, not {form!r}")
        counts = self.class_counts(m_max)
        if form == "low":
            return np.array([math.fsum(row[:r]) for row in counts])
        return np.array([1.0 - math.fsum(row[r:]) for row in counts])

    def min_survival_series(self, K: frozenset[int], m_hi: int) -> np.ndarray:
        """P(min over K > m) for m = 0..m_hi."""
        return np.array([self.rect_prob(frozenset(), K, m) for m in range(m_hi + 1)])

    def max_cdf_series(self, K: frozenset[int], m_hi: int) -> np.ndarray:
        """P(max over K <= m) for m = 0..m_hi."""
        return np.array([self.rect_prob(K, frozenset(), m) for m in range(m_hi + 1)])


class ExplicitFinitePMF(JointModel):
    """Finite support listed point by point.

    ``points`` is an (N, n) integer array, ``probs`` the matching weights.
    Probabilities must be non-negative and sum to 1 within 1e-12; duplicate
    support points are rejected.  ``exchangeable`` is a declaration by the
    caller, never detected.
    """

    def __init__(self, points, probs, exchangeable: bool = False):
        pts = np.asarray(points)
        w = np.asarray(probs, dtype=float)
        if pts.ndim != 2 or pts.shape[0] != w.shape[0] or w.ndim != 1:
            raise ValidationError("points must be (N, n) with N matching probs")
        if pts.shape[0] == 0:
            raise ValidationError("empty support")
        if not np.issubdtype(pts.dtype, np.integer):
            if not np.all(pts == np.floor(pts)):
                raise ValidationError("support points must be integers")
            pts = pts.astype(np.int64)
        if np.any(pts < 0):
            raise ValidationError("support points must be non-negative")
        if np.any(w < 0.0):
            raise ValidationError("probabilities must be non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValidationError(f"probabilities sum to {w.sum()!r}, not 1")
        if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
            raise ValidationError("duplicate support points")
        self.points = pts
        self.probs = w
        self.n = int(pts.shape[1])
        self.exchangeable = bool(exchangeable)
        self._counts_table: np.ndarray | None = None

    def support_max(self) -> int:
        return int(self.points.max())

    def support_size(self) -> int:
        """Number of support points."""
        return int(self.probs.shape[0])

    def counts_table(self) -> np.ndarray:
        """(m_max+2, n+1) table of P(exactly s coordinates <= m), m = -1..m_max.

        Built once and cached; every order-statistic quantity for every rank
        is then read from this table.  Row 0 is m = -1 (all mass at s = 0).
        """
        if self._counts_table is None:
            self._counts_table = self._build_counts_table()
        return self._counts_table

    def _build_counts_table(self) -> np.ndarray:
        """One pass over the support per threshold m."""
        m_max = self.support_max()
        table = np.zeros((m_max + 2, self.n + 1))
        table[0, 0] = 1.0
        counts = np.zeros(self.points.shape[0], dtype=np.int64)
        for m in range(m_max + 1):
            counts += (self.points == m).sum(axis=1)
            table[m + 1] = np.bincount(counts, weights=self.probs, minlength=self.n + 1)
        return table

    def class_counts(self, m_max: int) -> np.ndarray:
        table = self.counts_table()  # rows m = -1..support_max; later rows repeat the last
        return table[np.minimum(np.arange(m_max + 1), table.shape[0] - 2) + 1]

    def rect_prob(self, low: frozenset[int], up: frozenset[int], m: int) -> float:
        mask = np.ones(self.points.shape[0], dtype=bool)
        for i in low:
            mask &= self.points[:, i - 1] <= m
        for j in up:
            mask &= self.points[:, j - 1] > m
        return float(self.probs[mask].sum())

    def min_survival_series(self, K: frozenset[int], m_hi: int) -> np.ndarray:
        mins = self.points[:, sorted(i - 1 for i in K)].min(axis=1)
        pmf = np.bincount(mins.astype(np.intp), weights=self.probs, minlength=m_hi + 2)
        surv = np.concatenate([np.cumsum(pmf[::-1])[::-1][1:], [0.0]])
        return surv[: m_hi + 1]

    def max_cdf_series(self, K: frozenset[int], m_hi: int) -> np.ndarray:
        maxs = self.points[:, sorted(i - 1 for i in K)].max(axis=1)
        pmf = np.bincount(maxs.astype(np.intp), weights=self.probs, minlength=m_hi + 1)
        return np.cumsum(pmf)[: m_hi + 1]


class IndependentMarginals(JointModel):
    """Independent coordinates with per-coordinate marginal laws."""

    def __init__(self, marginals: Sequence[MarginalDist], exchangeable: bool = False):
        ms = tuple(marginals)
        if not ms:
            raise ValidationError("need at least one marginal")
        for j, d in enumerate(ms, start=1):
            if not isinstance(d, MarginalDist):
                raise ValidationError(f"marginal {j} is not a MarginalDist: {d!r}")
        self.marginals = ms
        self.n = len(ms)
        self.exchangeable = bool(exchangeable)
        self._cdfs: np.ndarray | None = None  # longest cdf_matrix built so far

    def support_max(self) -> int | None:
        sizes = [d.support_max() for d in self.marginals]
        if any(s is None for s in sizes):
            return None
        return max(sizes)

    def cdf_matrix(self, m_max: int) -> np.ndarray:
        """(m_max+1, n) matrix of F_j(m), read-only.

        The longest matrix asked for is kept and shorter ones are its first
        rows: a cumulated pmf's prefix is the cumulated prefix, so the values
        are those of a fresh build.
        """
        if self._cdfs is None or self._cdfs.shape[0] <= m_max:
            self._cdfs = np.column_stack([d.cdf_array(m_max) for d in self.marginals])
            self._cdfs.flags.writeable = False
        return self._cdfs[: m_max + 1]

    def class_counts(self, m_max: int) -> np.ndarray:
        """Poisson-binomial recursion over the coordinates, every threshold at once.

        Coordinate j moves a class up by one with probability F_j(m); every
        step mixes probabilities with non-negative weights, so nothing cancels
        (Hong 2013, Comput. Stat. Data Anal. 59:41-51).
        """
        cdfs = self.cdf_matrix(m_max)
        counts = np.zeros((m_max + 1, self.n + 1))
        counts[:, 0] = 1.0
        for j in range(self.n):
            q = cdfs[:, j : j + 1]
            counts[:, 1:] = counts[:, 1:] * (1.0 - q) + counts[:, :-1] * q
            counts[:, :1] *= 1.0 - q
        return counts

    def rect_prob(self, low: frozenset[int], up: frozenset[int], m: int) -> float:
        out = 1.0
        for i in low:
            out *= self.marginals[i - 1].cdf(m)
        for j in up:
            out *= self.marginals[j - 1].survival(m)
        return out

    def min_survival_series(self, K: frozenset[int], m_hi: int) -> np.ndarray:
        surv = 1.0 - self.cdf_matrix(m_hi)[:, sorted(i - 1 for i in K)]
        return surv.prod(axis=1)

    def max_cdf_series(self, K: frozenset[int], m_hi: int) -> np.ndarray:
        return self.cdf_matrix(m_hi)[:, sorted(i - 1 for i in K)].prod(axis=1)


class MvgModel(JointModel):
    """Joint model wrapper around MVG common-shock parameters.

    Every subset minimum is geometric, P(min over K > m) = theta(K)^(m+1),
    so rectangle queries expand over subset minima and the order-statistic
    survival has a closed form; the class counts keep the rectangle default.
    """

    def __init__(self, params: MvgParams):
        if not isinstance(params, MvgParams):
            raise ValidationError("params must be MvgParams")
        self.params = params
        self.n = params.n
        self.exchangeable = params.exchangeable

    @cached_property
    def marginals(self) -> tuple[Geometric, ...]:
        """X_i ~ ge(1 - theta_i) with theta_i the minimum parameter of {i}."""
        return tuple(Geometric(1.0 - mvg_min_param(self.params, (i,))) for i in range(1, self.n + 1))

    def rect_prob(self, low: frozenset[int], up: frozenset[int], m: int) -> float:
        # expand the <= m conditions by inclusion-exclusion over subsets of
        # low; each term is a pure survival probability of a subset minimum
        total = 0.0
        low_list = sorted(low)
        for mask in range(1 << len(low_list)):
            B = {low_list[b] for b in range(len(low_list)) if mask >> b & 1}
            sign = -1.0 if len(B) % 2 else 1.0
            K = up | B
            # m+1 = 0 handles m = -1: the survival factor degenerates to 1
            val = mvg_min_param(self.params, K) ** (m + 1) if K else 1.0
            total += sign * val
        return min(1.0, max(0.0, total))

    def orderstat_survival_series(self, r: int, m_max: int, form: str = "auto") -> np.ndarray:
        """The subset-minima closed form; a forced form reads the class counts."""
        if form != "auto":
            return super().orderstat_survival_series(r, m_max, form)
        return mvg_orderstat_survival(self.params, r, self.n, np.arange(m_max + 1))

    def min_survival_series(self, K: frozenset[int], m_hi: int) -> np.ndarray:
        return mvg_min_param(self.params, K) ** np.arange(1.0, m_hi + 2.0)


# ---------------------------------------------------------------------------
# the rectangle query and its relatives
# ---------------------------------------------------------------------------

def _check_index_sets(model: JointModel, low: Iterable[int], up: Iterable[int]):
    try:
        L = frozenset(int(i) for i in low)
        U = frozenset(int(i) for i in up)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"index sets must contain integers: {e}") from None
    if L & U:
        raise ValidationError(f"low and up overlap: {sorted(L & U)}")
    for i in L | U:
        if not 1 <= i <= model.n:
            raise ValidationError(f"index {i} outside 1..{model.n}")
    return L, U


def rect_prob(model: JointModel, low: Iterable[int], up: Iterable[int], m: int) -> float:
    """P(X_i <= m for i in low, X_j > m for j in up).

    The one probability query every moment formula consumes.  ``low`` and
    ``up`` are disjoint subsets of {1..n}; ``m`` may be -1 (every "<= m"
    condition is then impossible, every "> m" condition certain).
    """
    L, U = _check_index_sets(model, low, up)
    if m < -1:
        raise ValidationError(f"m={m} must be >= -1")
    if not L and not U:
        return 1.0
    return model.rect_prob(L, U, m)


def marginal_survival(model: JointModel, j: int, m: int) -> float:
    """P(X_j > m); equals rect_prob(model, {}, {j}, m)."""
    if not 1 <= j <= model.n:
        raise ValidationError(f"index {j} outside 1..{model.n}")
    if m < 0:
        return 1.0
    return rect_prob(model, (), (j,), m)


def quantile(dist: MarginalDist, q: float) -> int:
    """F^{<-}(q) = min{x : P(X <= x) >= q} for q in (0, 1)."""
    return dist.quantile(q)


# ---------------------------------------------------------------------------
# multinomial model
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int, dtype) -> np.ndarray:
    """All vectors of ``parts`` non-negative ints summing to ``total``.

    Memoized on (remaining total, remaining parts): the same suffix block is
    reused across all prefixes, which keeps the build linear in the output
    size instead of exponential in the recursion tree.
    """
    memo: dict[tuple[int, int], np.ndarray] = {}

    def build(t: int, k: int) -> np.ndarray:
        if k == 1:
            return np.array([[t]], dtype=dtype)
        got = memo.get((t, k))
        if got is None:
            blocks = []
            for v in range(t + 1):
                rest = build(t - v, k - 1)
                first = np.full((rest.shape[0], 1), v, dtype=dtype)
                blocks.append(np.hstack([first, rest]))
            got = memo[(t, k)] = np.vstack(blocks)
        return got

    return build(total, parts)


class MultinomialModel(ExplicitFinitePMF):
    """The count vector of ``trials`` balls dropped into cells with ``cell_probs``.

    The class-count table is computed from the parameters alone; ``points``
    and ``probs`` are enumerated only when a consumer first reads them.
    """

    def __init__(self, trials: int, cell_probs: Sequence[float], exchangeable: bool | None = None):
        ps = np.asarray(cell_probs, dtype=float)
        if trials < 1:
            raise ValidationError("trials must be at least 1")
        if ps.ndim != 1 or ps.size < 1:
            raise ValidationError("probs must be a non-empty vector")
        if np.any(ps <= 0.0):
            raise ValidationError("all cell probabilities must be positive")
        if abs(float(ps.sum()) - 1.0) > 1e-9:
            raise ValidationError(f"cell probabilities sum to {ps.sum()!r}, not 1")
        if exchangeable is None:
            exchangeable = bool(np.all(ps == ps[0]))
        self.trials = int(trials)
        self.cell_probs = ps
        self.n = int(ps.size)
        self.exchangeable = bool(exchangeable)
        self._counts_table: np.ndarray | None = None
        self._support: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def points(self) -> np.ndarray:
        return self._enumerate()[0]

    @property
    def probs(self) -> np.ndarray:
        return self._enumerate()[1]

    def _enumerate(self) -> tuple[np.ndarray, np.ndarray]:
        """All count vectors and their weights, from a log-factorial table."""
        if self._support is None:
            trials, ps = self.trials, self.cell_probs
            dtype = np.int8 if trials < 128 else np.int16
            points = _compositions(trials, self.n, dtype)
            lfact = np.array([lgamma(x + 1) for x in range(trials + 1)])
            # column-wise accumulation keeps the peak memory at O(N) extra
            logw = np.full(points.shape[0], lgamma(trials + 1.0))
            for j in range(self.n):
                col = points[:, j].astype(np.intp)
                logw += col * log(ps[j])
                logw -= lfact[col]
            w = np.exp(logw)
            w /= w.sum()
            self._support = (points, w)
        return self._support

    def support_max(self) -> int:
        return self.trials

    def support_size(self) -> int:
        return math.comb(self.trials + self.n - 1, self.n - 1)

    def _build_counts_table(self) -> np.ndarray:
        """Class counts by stick-breaking over the cells.

        Cell i takes Binom(N - t, p_i / (p_i + ... + p_n)) of the N - t
        trials the cells before it left over; the last cell takes the rest.
        ``A[m, t, s]`` is P(the cells seen so far hold t trials and s of them
        hold <= m), for every threshold m at once.  Every term is a product
        of probabilities, so nothing cancels and nothing overflows.
        """
        N, n, ps = self.trials, self.n, self.cell_probs
        # rest[i] = p_i + ... + p_n: a sum of positives, so 1 - q_i below is
        # the ratio rest[i+1] / rest[i] with no cancellation
        log_rest = np.log(np.cumsum(ps[::-1])[::-1])
        lfact = np.array([lgamma(x + 1.0) for x in range(N + 1)])
        t = np.arange(N + 1)
        left = (N - t)[:, None]  # trials still unplaced after t are placed
        x = t[None, :]
        fits = x <= left
        passed = np.where(fits, left - x, 0)
        A = np.zeros((N + 1, N + 1, n + 1))
        A[:, 0, 0] = 1.0
        for i in range(n - 1):
            # B[t, x] = P(Binom(N - t, q_i) = x)
            log_b = (
                lfact[left] - lfact[x] - lfact[passed]
                + x * (log(ps[i]) - log_rest[i])
                + passed * (log_rest[i + 1] - log_rest[i])
            )
            B = np.where(fits, np.exp(log_b), 0.0)  # log_b <= 0 off the fit
            # s <= i before cell i, so the last column of A is still empty
            new = np.zeros_like(A)
            for xi in range(N + 1):
                moved = A[:, : N + 1 - xi, :n] * B[: N + 1 - xi, xi, None]
                new[xi:, xi:, 1:] += moved[xi:]  # thresholds m >= xi: a low cell
                new[:xi, xi:, :n] += moved[:xi]
            A = new
        # the last cell holds the N - t unplaced trials: low when N - t <= m
        low = left.T <= np.arange(N + 1)[:, None]  # [m, t]
        table = np.zeros((N + 2, n + 1))
        table[0, 0] = 1.0
        table[1:, 1:] = np.einsum("mts,mt->ms", A[:, :, :n], low)
        table[1:] += np.einsum("mts,mt->ms", A, ~low)
        return table


def multinomial_pmf(trials: int, probs: Sequence[float], exchangeable: bool | None = None) -> MultinomialModel:
    """The full multinomial distribution Mult(trials, probs) as an explicit pmf.

    Order-statistic moments read only the class-count table, which is
    computed from (trials, probs) by a positive-term dynamic program in
    O(k^2 N^3) flops for the whole table (k cells, N trials), without
    listing the C(N + k - 1, k - 1) count vectors.  Consumers that need the
    support points enumerate them on first use, with a log-factorial table
    that keeps the weights exact to double precision: ``rect_prob``, the
    min/max series of the system moment functions, and the
    ``enumerate_moment`` and ``mc_moment`` oracles.  ``exchangeable``
    defaults to true exactly when all cell probabilities are equal (the
    construction is then symmetric under coordinate permutations).
    """
    return MultinomialModel(trials, probs, exchangeable)
