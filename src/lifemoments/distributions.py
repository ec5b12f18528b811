"""Discrete marginals and joint models of dependent integer random vectors.

Every moment formula in this package reads a joint model through one query
over marked coordinates, for every m in a threshold range (``counts``):
"low" ones are <= m, "up" ones > m, and exactly s "count" ones <= m.  The
rectangle series and the class counts are two reads of it.  Four model kinds each
implement it with one kernel: an explicit finite pmf, the multinomial count
vector (an explicit pmf that never lists its support), a product of
independent marginals, and the common-shock geometric model of module
``mvg``, which reads that module's lattice of theta(K).

The order-statistic read, ``orderstat_survival_series``, sums the class
counts; ``MvgModel`` overrides it, and its moments (``factorial_moments``),
in closed form, and a forced form keeps the class counts as a cross-check.
A system's read, ``system_survival_series``, reads the structure function
phi by one route per kind, with non-negative terms but on MVG, which sums
phi's alpha terms in closed form: independent and multinomial components
share one contraction of phi (``_contract_phi``; the multinomial adds a
trial axis), and an explicit pmf reads each point's lifetime off phi.

Marginal pmf work is done in log space, one array per family on 0..m
(``logpmf_array``), so that large rates and far tail indices neither
overflow nor lose the leading digits.  Poisson and geometric arrays repeat
the scalar formulas' float operations bit for bit; the negative binomial
sums log((R+k-1)/k), avoiding the cancellation in lgamma(x+R) - lgamma(x+1).

Three tables are kept, each grow-only and read as read-only prefixes
(``_PrefixCache``): a marginal's log pmf, which ``pmf_array``, ``cdf_array``
and the tail kernel read; a marginal's cdf, which its scalar ``cdf`` and
every coordinate of a model that holds it read; and every model's class
counts.  Row x of each depends on rows 0..x alone, so a prefix of a longer
build equals a shorter build bit for bit.  The tables of a parametric
family are a function of its parameters alone, so an independent model
gives coordinates with one exact type and equal parameters one object
(``_share_key``) and one set of tables.  Beside its class counts a model
keeps each rank's survival series summed from them, per (rank, form) until
the table grows, and the facts the truncation planner reads off its
marginals: their family and the dominating marginal j0 (``_dominant``).
The caches assume that marginals and models are never mutated after
construction.

A marginal's tail has one kernel, ``_tail_bounds``: one cutoff search,
one exp over the log pmf prefix and one backward cumsum give an upper
bound on sum over x >= t of x^p pmf(x) for every t.  The marginal keeps
the search's doubling steps per order p and one read-only table per
(p, cutoff), so every weight reads the cutoff and the table a fresh
search would give, bit for bit.  Its three readers are ``quantile``
(p = 0), ``tail_moment`` and the generic truncation planner of module
``orderstats``, which reads every probe of its search from one table.
"""

from __future__ import annotations

import math
from functools import cached_property
from math import exp, lgamma, log
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    UnsupportedModelError,
    ValidationError,
    _as_index_set,
    _as_int,
    _as_order,
)
from .mvg import _LATTICE_BLOCK, MvgParams, _lattice, _row_fsums, mvg_min_param, mvg_orderstat_survival

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
    "multinomial_pmf",
]

# Relative slack left between the truncated tail remainder and the decision
# threshold in quantile/tail searches; keeps cutoff error far below the
# quantity being compared.
_TAIL_SLACK = 1e-8
_DOUBLING_CAP = 200


# ---------------------------------------------------------------------------
# marginal distributions
# ---------------------------------------------------------------------------

class _PrefixCache:
    """A grow-only table of rows 0..m, handed out as read-only prefixes.

    ``build(m)`` must return rows 0..m with row x depending on rows 0..x
    alone (an elementwise formula or a running sum), so that a prefix of a
    longer build is bit for bit the shorter build.  A rebuild grows the
    table to the larger of the request and twice its size: rising requests
    rebuild O(log) times, and no table holds more than twice the largest
    request.
    """

    __slots__ = ("table",)

    def __init__(self):
        self.table: np.ndarray | None = None

    def read(self, m_max: int, build) -> np.ndarray:
        table = self.table
        if table is None or len(table) <= m_max:
            rows = m_max + 1 if table is None else max(m_max + 1, 2 * len(table))
            table = self.table = build(rows - 1)
            table.flags.writeable = False
        return table[: m_max + 1]


def _compensated_row_sums(a: np.ndarray) -> np.ndarray:
    """Sum of each row of ``a`` (at least one column), column by column with
    Neumaier's compensation: each addition's exact rounding error (Knuth's
    branch-free two-sum) is accumulated apart and added back once.  A few
    array operations per column replace a ``math.fsum`` per row and stay
    within an ulp of it on the few, same-signed terms of a row of class
    counts."""
    total = a[:, 0].copy()
    comp = np.zeros_like(total)
    for col in a.T[1:]:
        t = total + col
        back = t - total
        comp += (total - (t - back)) + (col - back)
        total = t
    return total + comp


def _rank_series(counts: np.ndarray, r: int, form: str) -> np.ndarray:
    """P(X_{r:n} > m) for each row m of class counts: the classes below r
    summed ("low"), or those from r complemented ("high")."""
    if form == "low":
        series = _compensated_row_sums(counts[:, :r])
    else:
        series = 1.0 - _compensated_row_sums(counts[:, r:])
    # rows of class counts may sum to 1 plus a few ulps
    return np.clip(series, 0.0, 1.0)


def _log_factorials(m_max: int) -> np.ndarray:
    """log x! for x = 0..m_max, each from ``math.lgamma`` as the scalar formulas take it."""
    return np.fromiter(map(lgamma, range(1, m_max + 2)), float, m_max + 1)


class MarginalDist:
    """A univariate distribution on the non-negative integers."""

    # The attributes that fix every table of a marginal, declared by a class
    # in its own body (see `_share_key`); a class that does not, a subclass
    # included, may carry other state, so its object alone fixes them.
    _PARAMS: tuple[str, ...] | None = None

    def logpmf(self, x: int) -> float:
        raise NotImplementedError

    def pmf(self, x: int) -> float:
        return exp(self.logpmf(x)) if x >= 0 else 0.0

    def logpmf_array(self, m_max: int) -> np.ndarray:
        """log pmf on 0..m_max, a read-only prefix of the marginal's table."""
        return self._logpmfs.read(m_max, self._logpmf_table)

    @cached_property
    def _logpmfs(self) -> _PrefixCache:
        return _PrefixCache()

    def _logpmf_table(self, m_max: int) -> np.ndarray:
        """log pmf on 0..m_max, built afresh; the families build it at once."""
        return np.array([self.logpmf(x) for x in range(m_max + 1)], dtype=float)

    def pmf_array(self, m_max: int) -> np.ndarray:
        """pmf on 0..m_max as a float vector."""
        return np.exp(self.logpmf_array(m_max))

    def cdf_array(self, m_max: int) -> np.ndarray:
        """cdf on 0..m_max, built afresh: the caller's own array."""
        return np.minimum(np.cumsum(self.pmf_array(m_max)), 1.0)

    def _cdf_prefix(self, m_max: int) -> np.ndarray:
        """cdf on 0..m_max, a read-only prefix of the marginal's table."""
        return self._cdfs.read(m_max, self.cdf_array)

    @cached_property
    def _cdfs(self) -> _PrefixCache:
        return _PrefixCache()

    def cdf(self, m: int) -> float:
        if m < 0:
            return 0.0
        return float(self._cdf_prefix(_support_clamp(self, m))[-1])

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

    @cached_property
    def _tail_steps(self) -> dict[int, list[tuple[int, float, float]]]:
        return {}

    @cached_property
    def _tail_tables(self) -> dict[tuple[int, int] | int, np.ndarray]:
        return {}

    def _kept_tail_table(self, key, build) -> np.ndarray:
        """The tail table under ``key``, built on first request and kept read-only."""
        table = self._tail_tables.get(key)
        if table is None:
            table = self._tail_tables[key] = build()
            table.flags.writeable = False
        return table

    def _tail_cutoff(self, weight: float, p: int) -> tuple[int, float]:
        """Find X with x^p pmf(x) summable beyond X to below ``weight``.

        Returns (X, rho) where rho < 1 bounds the term ratio beyond X, so the
        discarded remainder is at most term(X) * rho / (1 - rho) < weight.
        X doubles from 1.  Each step (x, rho, rest) is kept per order p,
        rest being that bound (+inf when rho >= 1); a call walks the kept
        steps to the first with rest < weight and adds steps only past
        their end, so every weight gets the X a fresh search stops at.
        """
        steps = self._tail_steps.setdefault(p, [])
        for x, rho, rest in steps:
            if rest < weight:
                return x, rho
        x = 2 * steps[-1][0] if steps else 1
        while len(steps) < _DOUBLING_CAP:
            rho = self.ratio_bound(x) * ((x + 1) / x) ** p
            rest = exp(self.logpmf(x) + p * log(x)) * rho / (1.0 - rho) if rho < 1.0 else math.inf
            steps.append((x, rho, rest))
            if rest < weight:
                return x, rho
            x *= 2
        raise ConvergenceError("tail of x^p pmf(x) never became summably small")

    def _tail_bounds(self, p: int, weight: float) -> np.ndarray:
        """The one tail kernel: B[t] >= sum over x >= t of x^p pmf(x), t = 0..X+1.

        X is the cutoff `_tail_cutoff` finds for ``weight``.  B[t] is the
        backward sum of the terms t..X (accurate however small the tail)
        plus the rest bound beyond X, so B[X+1] is the rest alone.  One
        exp over the cached log pmf and one cumsum answer every t:
        `quantile` reads the table at p = 0, `tail_moment` and the generic
        truncation planner at p >= 1.  The table depends on (p, X) alone
        and X is a power of two, so it is kept read-only per (p, X) and
        every weight with the same cutoff reads the one table.
        """
        x_hi, rho = self._tail_cutoff(weight, p)

        def build():
            if p == 0:
                terms = self.pmf_array(x_hi)
            else:
                with np.errstate(divide="ignore"):  # log 0 = -inf: the x = 0 term is 0
                    terms = np.exp(self.logpmf_array(x_hi) + p * np.log(np.arange(x_hi + 1)))
            rest = terms[-1] * rho / (1.0 - rho)
            return np.append(np.cumsum(terms[::-1])[::-1], 0.0) + rest

        return self._kept_tail_table((p, x_hi), build)

    def quantile(self, q: float) -> int:
        """Smallest x with P(X <= x) >= q, i.e. with P(X > x) <= 1 - q.

        The decision runs on backward partial sums of the pmf, which stay
        accurate when 1 - q is many orders of magnitude below 1; a forward
        cdf would lose exactly those digits.
        """
        if not 0.0 < q < 1.0:
            raise ValidationError(f"quantile level q={q} outside (0, 1)")
        eps = 1.0 - q
        # entry m + 1 bounds P(X > m) from above
        hits = np.nonzero(self._tail_bounds(0, eps * _TAIL_SLACK)[1:] <= eps)[0]
        if hits.size == 0:
            raise ConvergenceError("tail never dropped below the quantile level")
        return int(hits[0])

    def tail_moment(self, p: int, m: int) -> float:
        """sum over x > m+1 of x^p pmf(x), including a bound on the cutoff rest.

        The numeric cutoff is chosen so the discarded rest is below 1e-8 of
        the leading tail term; the rest bound itself is added back, so the
        result never underestimates the representable tail.
        """
        p = _as_order(p)
        lo = max(m + 2, 1)
        first = exp(self.logpmf(lo) + p * log(lo))
        bounds = self._tail_bounds(p, max(first, 1e-300) * _TAIL_SLACK)
        return float(bounds[min(lo, len(bounds) - 1)])


class Poisson(MarginalDist):
    """Poisson(lam) on {0, 1, ...}."""

    _PARAMS = ("lam",)

    def __init__(self, lam: float):
        lam = float(lam)
        if not lam > 0.0 or not math.isfinite(lam):
            raise ValidationError(f"Poisson rate lam={lam} must be positive and finite")
        self.lam = lam

    def logpmf(self, x: int) -> float:
        if x < 0:
            return -math.inf
        return -self.lam + x * log(self.lam) - lgamma(x + 1)

    def _logpmf_table(self, m_max: int) -> np.ndarray:
        return -self.lam + np.arange(m_max + 1) * log(self.lam) - _log_factorials(m_max)

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

    _PARAMS = ("R", "p")

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

    def _logpmf_table(self, m_max: int) -> np.ndarray:
        # log C(x+R-1, x) as a running sum of log((R+k-1)/k): no cancellation
        k = np.arange(1.0, m_max + 1.0)
        log_binom = np.concatenate(([0.0], np.cumsum(np.log((self.R + k - 1.0) / k))))[: m_max + 1]
        return log_binom + np.arange(m_max + 1) * math.log1p(-self.p) + self.R * log(self.p)

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

    _PARAMS = ("pi",)

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

    def _logpmf_table(self, m_max: int) -> np.ndarray:
        x = np.arange(m_max + 1)
        return np.where(x == 0, 0.0, -math.inf) if self.pi == 1.0 else log(self.pi) + x * math.log1p(-self.pi)

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
        if not np.all(arr >= 0.0):  # NaN included
            raise ValidationError("FinitePMF entries must be non-negative")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise ValidationError(f"FinitePMF sums to {arr.sum()!r}, not 1")
        self.probs = arr

    def logpmf(self, x: int) -> float:
        if 0 <= x < self.probs.size and self.probs[x] > 0.0:
            return log(self.probs[x])
        return -math.inf

    def pmf_array(self, m_max: int) -> np.ndarray:
        out = np.zeros(m_max + 1)
        k = min(m_max + 1, self.probs.size)
        out[:k] = self.probs[:k]
        return out

    def mean(self) -> float:
        return float(np.dot(self.probs, np.arange(self.probs.size)))

    def support_max(self) -> int | None:
        nz = np.nonzero(self.probs)[0]
        return int(nz[-1]) if nz.size else 0

    def quantile(self, q: float) -> int:
        if not 0.0 < q < 1.0:
            raise ValidationError(f"quantile level q={q} outside (0, 1)")
        # the probabilities may sum to 1 - 1e-12, leaving the cdf below q
        top = self.support_max()
        return min(int(np.searchsorted(self._cdf_prefix(top), q, side="left")), top)

    def _tail_bounds(self, p: int, weight: float) -> np.ndarray:
        """The whole support summed backward; nothing lies beyond it, so no
        rest and no cutoff: one kept table per order p, whatever the weight."""

        def build():
            terms = np.arange(self.probs.size, dtype=float) ** p * self.probs
            return np.append(np.cumsum(terms[::-1])[::-1], 0.0)

        return self._kept_tail_table(p, build)

    def __repr__(self) -> str:
        return f"FinitePMF(K={self.probs.size - 1})"


# ---------------------------------------------------------------------------
# joint models
# ---------------------------------------------------------------------------

class JointModel:
    """A distribution on non-negative-integer vectors of fixed length n.

    Each model kind answers one query, ``counts``, whose ``marks`` map
    1-based coordinates to "low", "up" or "count" (unmarked ones are free).
    The rectangle series is its column 0 for low and up marks, and the class
    counts are an all-count query, kept in one grow-only table per model.
    Index sets are frozensets of 1-based coordinates, already validated, and
    series run over the thresholds m = m_lo..m_hi: from 0 for a moment
    series, the one threshold m_lo = m_hi for a single-threshold read.
    """

    n: int
    exchangeable: bool
    # per-coordinate marginal laws when the model has them (the truncation
    # planner reads them); None otherwise
    marginals: tuple[MarginalDist, ...] | None = None
    # the class-count table that the kept rank series were read from, and
    # those series by (r, form)
    _series_of: np.ndarray | None = None
    _series: dict[tuple[int, str], np.ndarray]

    def support_max(self) -> int | None:
        return None

    def counts(self, marks: Mapping[int, str], m_hi: int, m_lo: int = 0) -> np.ndarray:
        """(m_hi-m_lo+1, c+1) matrix for c count marks: row m - m_lo, column s
        holds P(every low coordinate <= m, every up one > m, exactly s counted
        ones <= m), m = m_lo..m_hi."""
        raise UnsupportedModelError(f"unknown model kind {type(self).__name__}")

    def rect_series(self, low: frozenset[int], up: frozenset[int], m_hi: int, m_lo: int = 0) -> np.ndarray:
        """P(X_i <= m for i in low, X_j > m for j in up) for m = m_lo..m_hi."""
        # a fixed mark order keeps each kernel's products in one order
        marks = dict.fromkeys(sorted(low), "low") | dict.fromkeys(sorted(up), "up")
        return self.counts(marks, m_hi, m_lo)[:, 0]

    def class_counts(self, m_max: int) -> np.ndarray:
        """(m_max+1, n+1) matrix: row m holds P(exactly s coordinates <= m),
        s = 0..n; a read-only prefix of the model's cached table."""
        return self._class_counts.read(m_max, lambda m: self.counts(self._every, m))

    @property
    def _every(self) -> dict[int, str]:
        """The all-count marks of the class counts."""
        return dict.fromkeys(range(1, self.n + 1), "count")

    @cached_property
    def _class_counts(self) -> _PrefixCache:
        return _PrefixCache()

    @cached_property
    def _dominant(self) -> tuple[type[MarginalDist] | None, int]:
        """(family, j0) for the truncation planner, from the marginals:
        `Poisson` with j0 the largest rate, `NegBin` with one shared size R
        and j0 the smallest success probability, else None with j0 the
        largest mean; the smallest index wins ties."""
        margs = self.marginals
        if all(isinstance(m, Poisson) for m in margs):
            return Poisson, max(range(len(margs)), key=lambda j: (margs[j].lam, -j)) + 1
        if all(isinstance(m, NegBin) for m in margs) and len({m.R for m in margs}) == 1:
            return NegBin, min(range(len(margs)), key=lambda j: (margs[j].p, j)) + 1
        return None, max(range(len(margs)), key=lambda j: (margs[j].mean(), -j)) + 1

    def orderstat_survival_series(self, r: int, m_hi: int, form: str = "auto", m_lo: int = 0) -> np.ndarray:
        """P(X_{r:n} > m) for m = m_lo..m_hi, read from the class counts.

        The event splits over how many coordinates fall at or below m: either
        sum the classes with fewer than r low coordinates ("low"), or
        complement the classes with at least r ("high").  "auto" picks
        whichever needs fewer classes (ties go to the low form).  On an
        infinite support a range past the cached table's end reads its own
        rows of the class counts (row m reads threshold m alone) and leaves
        the table as it is; a finite support bounds the table, and its
        kernels build every row below m anyway, so they read the table.
        A read of the table slices the rank's series over all its rows,
        built on the rank's first read and kept per (r, form) until the
        table grows; each read is the caller's own contiguous copy.
        """
        if form == "auto":
            form = "low" if r <= (self.n + 1) / 2 else "high"
        if form not in ("low", "high"):
            raise ValidationError(f"form must be auto, low, or high, not {form!r}")
        table = self._class_counts.table
        if m_lo > 0 and self.support_max() is None and (table is None or len(table) <= m_hi):
            return _rank_series(self.counts(self._every, m_hi, m_lo), r, form)
        self.class_counts(m_hi)  # grows the table to hold row m_hi
        table = self._class_counts.table
        if self._series_of is not table:
            self._series_of, self._series = table, {}
        series = self._series.get((r, form))
        if series is None:
            series = self._series[r, form] = _rank_series(table, r, form)
            series.flags.writeable = False
        return series[m_lo : m_hi + 1].copy()

    def system_survival_series(self, structure, m_hi: int, m_lo: int = 0) -> np.ndarray:
        """P(T > m) for m = m_lo..m_hi, T the lifetime of the coherent system
        ``structure`` (a `systems.SystemStructure`), read off its phi."""
        raise UnsupportedModelError(f"unknown model kind {type(self).__name__}")

    def factorial_moments(self, stat, p: int) -> Sequence[float] | None:
        """Closed-form factorial moments E(T)_1..E(T)_p of a statistic T, or
        None when the kind has none and moments come from the survival series."""
        return None


def _has_duplicate_rows(pts: np.ndarray) -> bool:
    """Whether two rows of a non-negative integer array are equal: one
    integer key per row, sorted, neighbours compared; rows whose key range
    overflows int64 are sorted whole."""
    dims = [int(v) + 1 for v in pts.max(axis=0)]
    if not dims or math.prod(dims) > np.iinfo(np.int64).max:
        return np.unique(pts, axis=0).shape[0] != pts.shape[0]
    keys = np.ravel_multi_index(pts.T, dims)
    keys.sort()
    return bool(np.any(keys[1:] == keys[:-1]))


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
        if not np.all(w >= 0.0):  # NaN included
            raise ValidationError("probabilities must be non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValidationError(f"probabilities sum to {w.sum()!r}, not 1")
        if _has_duplicate_rows(pts):
            raise ValidationError("duplicate support points")
        self.points = pts
        self.probs = w
        self.n = int(pts.shape[1])
        self.exchangeable = bool(exchangeable)
        self._support_max = int(pts.max(initial=0))

    def support_max(self) -> int:
        return self._support_max

    def support_size(self) -> int:
        """Number of support points."""
        return int(self.probs.shape[0])

    def counts(self, marks: Mapping[int, str], m_hi: int, m_lo: int = 0) -> np.ndarray:
        # a point meets the marks with s counted coordinates <= m for a_s <= m
        # < b_s: a_s the larger of its largest low and its s-th smallest
        # counted coordinate, b_s the smaller of its smallest up and its
        # (s+1)-th smallest counted one.  An open end's tail is never summed.
        def coords(rule):  # widened: multinomial points are int8/int16
            return self.points[:, [i - 1 for i, r in marks.items() if r == rule]].astype(np.intp, copy=False)

        def pmf(x, w):
            return np.bincount(x, weights=w, minlength=m_hi + 2)

        def tail(x, w):  # P(x > m), summed backward so small tails keep their digits
            return np.cumsum(pmf(x, w)[::-1])[::-1][1 : m_hi + 2]

        def column(a, b):  # P(a <= m < b), None an open end
            if b is None:
                return np.cumsum(pmf(a, self.probs))[: m_hi + 1]
            if a is None:
                return tail(b, self.probs)
            w = np.where(a < b, self.probs, 0.0)  # a >= b: never inside
            return tail(b, w) - tail(a, w)

        def meet(f, x, y):
            return y if x is None else x if y is None else f(x, y)

        low, up = coords("low"), coords("up")
        a = low.max(axis=1) if low.shape[1] else None
        b = up.min(axis=1) if up.shape[1] else None
        ranked = np.sort(coords("count"), axis=1)
        ends = [None, *ranked.T, None]  # ends[s]: the s-th smallest counted coordinate
        return np.column_stack([
            column(meet(np.maximum, a, ends[s]), meet(np.minimum, b, ends[s + 1]))
            for s in range(ranked.shape[1] + 1)
        ])[m_lo:]

    def system_survival_series(self, structure, m_hi: int, m_lo: int = 0) -> np.ndarray:
        """Each point's lifetime off phi: its components join the working set
        in descending order of value, and T is the value at which phi turns
        on (ties join at one value).  The lifetimes' pmf, summed backward."""
        order = np.argsort(self.points, axis=1)[:, ::-1]
        first = structure._phi()[np.bitwise_or.accumulate(1 << order, axis=1)].argmax(axis=1)
        rows = np.arange(len(order))
        lifetimes = self.points[rows, order[rows, first]].astype(np.intp)
        pmf = np.bincount(lifetimes, weights=self.probs, minlength=m_hi + 2)
        return np.cumsum(pmf[::-1])[::-1][m_lo + 1 : m_hi + 2]


def _share_key(d: MarginalDist):
    """Marginals with equal keys build equal tables: (exact type, parameters)
    when the type declares ``_PARAMS`` in its own body, the object alone
    otherwise (a `FinitePMF`, a subclass)."""
    names = type(d).__dict__.get("_PARAMS")
    return id(d) if names is None else (type(d), *(getattr(d, a) for a in names))


def _contract_phi(phi: np.ndarray, weights: Sequence[tuple], norm: float = 1.0) -> np.ndarray:
    """Per row, the sum over working sets U of phi(U) times each component's
    "failed" weight outside U and "working" weight in U, convolved along a
    trial axis, read at its last entry and divided by ``norm``, at most 1.
    ``weights`` holds a (failed, working) pair of (D, rows) arrays per
    component, lowest bit first, for x = 0..D-1 trials.  phi is contracted a
    component at a time: both halves at x = 0, then each half shifted x
    steps along the trial axis in order of x, O(2^n D^2) per row.  Terms are
    non-negative, so a half or a weight that is zero on a block of rows adds
    exact zeros and is skipped; blocks of `_LATTICE_BLOCK` state entries
    give the same bits."""
    width, rows = weights[0][0].shape
    out = np.empty(rows)
    step = max(1, _LATTICE_BLOCK // (width * len(phi)))
    for lo in range(0, rows, step):
        state = np.zeros((len(phi), width, 1))  # working sets, trials, rows (one until weighted)
        state[:, 0, 0] = phi
        for failed, working in weights:
            f, w = failed[:, lo : lo + step], working[:, lo : lo + step]
            h0, h1 = state[0::2], state[1::2]  # the lowest component left failed, working
            state = f[0] * h0 + w[0] * h1
            for weight, half in ((f, h0), (w, h1)) if width > 1 else ():
                for x in range(1, width) if half.any() else ():
                    if weight[x].any():
                        state[:, x:] += weight[x] * half[:, :-x]
        out[lo : lo + step] = state[0, -1]
    return np.minimum(out / norm, 1.0, out=out)


class IndependentMarginals(JointModel):
    """Independent coordinates with per-coordinate marginal laws.

    Coordinates whose marginals have one exact type and equal parameters
    hold the first such object (`_share_key`), so they share its log pmf,
    cdf and tail tables.
    """

    def __init__(self, marginals: Sequence[MarginalDist], exchangeable: bool = False):
        ms = tuple(marginals)
        if not ms:
            raise ValidationError("need at least one marginal")
        for j, d in enumerate(ms, start=1):
            if not isinstance(d, MarginalDist):
                raise ValidationError(f"marginal {j} is not a MarginalDist: {d!r}")
        shared: dict = {}
        self.marginals = tuple(shared.setdefault(_share_key(d), d) for d in ms)
        self.n = len(ms)
        self.exchangeable = bool(exchangeable)
        sizes = [d.support_max() for d in shared.values()]
        self._support_max = None if any(s is None for s in sizes) else max(sizes)

    def support_max(self) -> int | None:
        return self._support_max

    def counts(self, marks: Mapping[int, str], m_hi: int, m_lo: int = 0) -> np.ndarray:
        """One recursion over the marked coordinates, every threshold at once:
        a low j multiplies by F_j(m), an up one by 1 - F_j(m), and a counted
        one moves a class up with probability F_j(m).  Nothing cancels (Hong
        2013, Comput. Stat. Data Anal. 59:41-51); row m reads F_j(m) alone,
        from the cdf table of each marked coordinate's marginal."""
        out = np.zeros((m_hi - m_lo + 1, 1 + sum(rule == "count" for rule in marks.values())))
        out[:, 0] = 1.0
        for j, rule in marks.items():
            q = self.marginals[j - 1]._cdf_prefix(m_hi)[m_lo:, None]
            if rule == "low":
                out *= q
            elif rule == "up":
                out *= 1.0 - q
            else:
                out[:, 1:] = out[:, 1:] * (1.0 - q) + out[:, :-1] * q
                out[:, :1] *= 1.0 - q
        return out

    def system_survival_series(self, structure, m_hi: int, m_lo: int = 0) -> np.ndarray:
        """The reliability polynomial (Barlow and Proschan 1975, ch. 2): phi
        contracted with the weights F_j(m) failed and 1 - F_j(m) working."""
        cdfs = [d._cdf_prefix(m_hi)[None, m_lo:] for d in self.marginals]
        return _contract_phi(structure._phi(), [(q, 1.0 - q) for q in cdfs])


class MvgModel(JointModel):
    """Joint model wrapper around MVG common-shock parameters.

    Every subset minimum is geometric, P(min over K > m) = theta(K)^(m+1),
    so a query over marked coordinates is one signed sum over the subsets of
    its low and counted coordinates, general and exchangeable parameters
    alike, and the order-statistic survival has a closed form.
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

    def counts(self, marks: Mapping[int, str], m_hi: int, m_lo: int = 0) -> np.ndarray:
        """One signed sum over the subsets S of the low and counted
        coordinates, row m - m_lo, column s = sum_S (-1)^(a+t) C(b, t)
        theta(up | S)^(m+1) with a = |S & low|, b = |S & counted|,
        t = s - (c - b) in 0..b and theta of the empty set 1.  It is taken
        one coordinate at a time over a block of rows of powers of the
        lattice: a low j turns P(..) and P(X_j > m, ..) into their difference
        P(X_j <= m, ..), and a counted j adds that difference one class up,
        as `IndependentMarginals.counts` does.  Every intermediate is a
        probability, so only rounding cancels, and each row reads its own
        threshold alone."""
        low, up, counted = ([i for i, rule in marks.items() if rule == r] for r in ("low", "up", "count"))
        thetas = _lattice(self.params, low + counted, up)  # refuses a lattice above the cap
        exps = np.arange(m_lo + 1.0, m_hi + 2.0)[:, None]
        out = np.empty((len(exps), len(counted) + 1))
        step = max(1, _LATTICE_BLOCK // len(thetas))
        for lo in range(0, len(exps), step):
            # rows, one axis per marked coordinate (the lowest bit last), classes
            x = (thetas ** exps[lo : lo + step]).reshape(-1, *(2,) * (len(low) + len(counted)), 1)
            for _ in low:
                x = x[..., 0, :] - x[..., 1, :]
            for _ in counted:
                classes = np.zeros(x.shape[:-2] + (x.shape[-1] + 1,))
                classes[..., :-1] = x[..., 1, :]
                classes[..., 1:] += x[..., 0, :] - x[..., 1, :]
                x = classes
            out[lo : lo + step] = x
        return np.minimum(np.maximum(out, 0.0, out=out), 1.0, out=out)

    def orderstat_survival_series(self, r: int, m_hi: int, form: str = "auto", m_lo: int = 0) -> np.ndarray:
        """The subset-minima closed form; a forced form reads the class counts."""
        if form != "auto":
            return super().orderstat_survival_series(r, m_hi, form, m_lo)
        return mvg_orderstat_survival(self.params, r, self.n, np.arange(m_lo, m_hi + 1))

    def system_survival_series(self, structure, m_hi: int, m_lo: int = 0) -> np.ndarray:
        """The alpha expansion in closed form: the sum over the non-zero alpha
        coefficients of alpha_K theta(K)^(m+1), theta(K) read from one
        all-free lattice, taken one block of rows at a time, each row summed
        exactly from its buffer (``_row_fsums``)."""
        masks, coeffs = structure._alpha_terms()
        thetas = _lattice(self.params, range(1, self.n + 1))[masks]
        exps = np.arange(m_lo + 1.0, m_hi + 2.0)[:, None]
        out = np.empty(len(exps))
        step = max(1, _LATTICE_BLOCK // len(masks))
        for lo in range(0, len(exps), step):
            terms = np.float_power(thetas, exps[lo : lo + step])
            terms *= coeffs
            out[lo : lo + step] = _row_fsums(terms)
        return np.clip(out, 0.0, 1.0, out=out)

    def factorial_moments(self, stat, p: int) -> Sequence[float]:
        """The statistic's subset-minima closed form."""
        return stat.mvg_factorial_moments(self.params, p)


# ---------------------------------------------------------------------------
# the rectangle query and its relatives
# ---------------------------------------------------------------------------

def rect_prob(model: JointModel, low: Iterable[int], up: Iterable[int], m: int) -> float:
    """P(X_i <= m for i in low, X_j > m for j in up).

    The one-row range m..m of the model's ``rect_series``.  ``low`` and
    ``up`` are disjoint subsets of {1..n}; ``m`` may be -1 (every "<= m"
    condition is then impossible, every "> m" condition certain).
    """
    L, U = _as_index_set(low, "low set", model.n), _as_index_set(up, "up set", model.n)
    if L & U:
        raise ValidationError(f"low and up overlap: {sorted(L & U)}")
    m = _as_int(m, "threshold m", -1)
    if m == -1 or not L and not U:
        return 0.0 if L else 1.0
    m = _support_clamp(model, m)
    return float(model.rect_series(L, U, m, m_lo=m)[0])


def _support_clamp(model: JointModel | MarginalDist, m: int) -> int:
    """m, or the end of a finite support, past which every series is constant."""
    m_max = model.support_max()
    return m if m_max is None else min(m, m_max)


def marginal_survival(model: JointModel, j: int, m: int) -> float:
    """P(X_j > m) for m >= -1; equals rect_prob(model, {}, {j}, m)."""
    if not 1 <= j <= model.n:
        raise ValidationError(f"index {j} outside 1..{model.n}")
    if _as_int(m, "threshold m", -1) < 0:
        return 1.0
    return rect_prob(model, (), (j,), m)


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

    The query ``counts`` is one dynamic program over the cells
    (``_conditioned_poisson``) that reads the parameters alone; ``points``
    and ``probs`` are enumerated only when a consumer first reads them (the
    oracles do).
    """

    def __init__(self, trials: int, cell_probs: Sequence[float], exchangeable: bool | None = None):
        ps = np.asarray(cell_probs, dtype=float)
        trials = _as_int(trials, "trials", 1)
        if ps.ndim != 1 or ps.size < 1:
            raise ValidationError("probs must be a non-empty vector")
        if not np.all(ps > 0.0):  # NaN included
            raise ValidationError("all cell probabilities must be positive")
        if abs(float(ps.sum()) - 1.0) > 1e-9:
            raise ValidationError(f"cell probabilities sum to {ps.sum()!r}, not 1")
        if exchangeable is None:
            exchangeable = bool(np.all(ps == ps[0]))
        self.trials = trials
        self.cell_probs = ps
        self.n = int(ps.size)
        self.exchangeable = bool(exchangeable)
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
            lfact = _log_factorials(trials)
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

    def counts(self, marks: Mapping[int, str], m_hi: int, m_lo: int = 0) -> np.ndarray:
        N, rates = self.trials, self.trials * self.cell_probs
        cells = [(rates[i - 1], rule) for i, rule in marks.items()]
        free = [rates[i - 1] for i in range(1, self.n + 1) if i not in marks]
        if free:  # a sum of independent Poisson cells is one Poisson cell
            cells.append((math.fsum(free), "free"))
        table = self._conditioned_poisson(cells, min(m_hi, N))
        return table[np.minimum(np.arange(m_lo, m_hi + 1), N)]  # constant past the support

    def system_survival_series(self, structure, m_hi: int, m_lo: int = 0) -> np.ndarray:
        """phi contracted along a trial axis of width N + 1: cell j takes x
        trials w.p. Poisson(N p_j).pmf(x) and fails at m when x <= m; over
        P(total = N), as in `_conditioned_poisson`.  Constant past row N."""
        N, rates = self.trials, self.trials * self.cell_probs
        ms = np.arange(min(m_lo, N), min(m_hi, N) + 1)
        failed = np.arange(N + 1)[:, None] <= ms
        pmfs = [Poisson(rate).pmf_array(N)[:, None] for rate in rates]
        weights = [(np.where(failed, f, 0.0), np.where(failed, 0.0, f)) for f in pmfs]
        series = _contract_phi(structure._phi(), weights, Poisson(math.fsum(rates)).pmf(N))
        return series[np.minimum(np.arange(m_lo, m_hi + 1), N) - ms[0]]

    def _conditioned_poisson(self, cells: list[tuple[float, str]], m_top: int) -> np.ndarray:
        """Row m, column s: P(every cell meets its rule at threshold m and
        exactly s "count" cells hold <= m), for m = 0..m_top.

        A cell is a (Poisson rate, rule) pair, the rule "count", "low" (holds
        <= m), "up" (holds > m) or "free".  Independent Poisson cells
        conditioned on holding ``trials`` in all are Mult(trials, rates / sum
        of rates), so ``A[m, t, s]`` carries the joint probability for the
        cells so far holding t trials: products of Poisson pmfs, which never
        cancel, divided once by P(total = trials) at the end.
        """
        N = self.trials
        A = np.zeros((m_top + 1, N + 1, 1 + sum(rule == "count" for _, rule in cells)))
        A[:, 0, 0] = 1.0
        for rate, rule in cells:
            pmf = Poisson(rate).pmf_array(N)
            new = np.zeros_like(A)
            for x in range(N + 1):
                moved = A[:, : N + 1 - x] * pmf[x]  # the cell holds x trials
                if rule != "up":  # rows m >= x see the cell low
                    k = int(rule == "count")  # s moves up; the last column is still empty
                    new[x:, x:, k:] += moved[x:, :, : A.shape[2] - k]
                if rule != "low":  # rows m < x see it high
                    new[:x, x:] += moved[:x]
            A = new
        total = Poisson(math.fsum(rate for rate, _ in cells))
        return A[:, N] / total.pmf(N)


def multinomial_pmf(trials: int, probs: Sequence[float], exchangeable: bool | None = None) -> MultinomialModel:
    """The full multinomial distribution Mult(trials, probs) as an explicit pmf.

    Class counts and rectangle series (so order-statistic moments and
    ``rect_prob``) come from (trials, probs) by one positive-term dynamic
    program over the cells, without listing the C(N + k - 1, k - 1) count
    vectors: O(k^2 N^3) flops for the whole class-count table and O(c N^3)
    for a rectangle series naming c cells (k cells, N trials); a system
    series contracts phi, O(2^k N^2) per threshold.  Only the
    ``enumerate_moment`` and ``mc_moment`` oracles list the support points,
    on first use, with a log-factorial table that keeps the weights exact
    to double precision.  ``exchangeable`` defaults to true exactly when
    all cell probabilities are equal (the construction is then symmetric
    under coordinate permutations).
    """
    return MultinomialModel(trials, probs, exchangeable)
