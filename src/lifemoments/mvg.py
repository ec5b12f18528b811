"""Multivariate geometric (MVG) common-shock lifetimes.

A vector (X_1, ..., X_n) is MVG with parameters theta_I, one per non-empty
subset I of {1..n}, when X_i = min{M_I : I contains i} for independent shock
times M_I ~ ge(1 - theta_I).  Here ge(pi) is the geometric law on {0, 1, ...}
with P(X = k) = pi (1 - pi)^k, so P(M_I > k) = theta_I^(k+1); theta_I = 1
means the shock never arrives and such entries are simply not stored.

The module provides construction/validation, the joint survival function,
marginalization to sub-vectors, the geometric law of subset minima, and the
closed-form factorial moments and survival of order statistics, together
with the factorial-to-raw moment conversion.

The closed forms sum over subsets K of the components, and each term reads
the subset-minimum parameter theta(K).  ``mvg_min_param`` is the definition
for one subset.  The sums read every theta(K) of one size at once: one
value standing for all C(n, k) subsets under exchangeable parameters, or
the size-k slice of one table over all 2^n subsets for general ones, built
once per parameter set (n <= GENERAL_N_CAP).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, ValidationError

# The general (non-exchangeable) formulas read a table over all 2^n subsets;
# beyond this n the exchangeable parametrization is the only supported route.
GENERAL_N_CAP = 20

# Exponents like C(n,s) - C(j,s) overflow float arithmetic long before the
# products they exponentiate stop underflowing to 0; anything this large with
# a base < 1 is an exact 0 for our purposes.
_HUGE_EXPONENT = 1 << 60

_LOG_SPACE_CUTOFF = 1e-3  # products with factors below this go through logs


def _as_subset(I: Iterable[int], n: int) -> frozenset[int]:
    try:
        s = frozenset(int(i) for i in I)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"subsets must contain integers: {e}") from None
    if not s:
        raise ValidationError("shock subsets must be non-empty")
    if not all(1 <= i <= n for i in s):
        raise ValidationError(f"subset {sorted(s)} not within 1..{n}")
    return s


class MvgParams:
    """Parameter set of an MVG distribution.

    Exactly one parametrization is used:

    * ``theta``: sparse map from non-empty subsets of {1..n} to values in
      [0, 1]; missing keys mean 1 (shock absent) and stored 1s are dropped.
    * ``exchangeable_levels``: vector (theta_1, ..., theta_n) where every
      subset of size s shares the value theta_s.

    Construction rejects defective parameter sets: every component i must
    satisfy prod over stored I containing i of theta_I < 1, otherwise
    P(X_i = infinity) > 0 and no moment exists.
    """

    __slots__ = ("n", "_theta", "exchangeable_levels", "_minima")

    def __init__(
        self,
        n: int,
        theta: Mapping[Iterable[int], float] | None = None,
        exchangeable_levels: Sequence[float] | None = None,
    ):
        if n < 1:
            raise ValidationError("n must be at least 1")
        self.n = int(n)
        self._minima: tuple[np.ndarray, ...] | None = None  # built by _subset_minima
        if (theta is None) == (exchangeable_levels is None):
            raise ValidationError("give exactly one of theta or exchangeable_levels")
        if exchangeable_levels is not None:
            levels = tuple(float(t) for t in exchangeable_levels)
            if len(levels) != n:
                raise ValidationError(f"need {n} levels, got {len(levels)}")
            for s, t in enumerate(levels, start=1):
                if not 0.0 <= t <= 1.0:
                    raise ValidationError(f"theta_{s}={t} outside [0, 1]")
            if all(t == 1.0 for t in levels):
                raise ValidationError("defective parameters: all levels equal 1")
            self.exchangeable_levels: tuple[float, ...] | None = levels
            self._theta: Mapping[frozenset[int], float] = MappingProxyType({})
            return
        store: dict[frozenset[int], float] = {}
        for I, t in theta.items():
            key = _as_subset(I, n)
            t = float(t)
            if not 0.0 <= t <= 1.0:
                raise ValidationError(f"theta_{sorted(key)}={t} outside [0, 1]")
            if key in store:
                raise ValidationError(f"duplicate subset {sorted(key)}")
            if t < 1.0:
                store[key] = t
        for i in range(1, n + 1):
            if not any(i in I for I in store):
                raise ValidationError(
                    f"defective parameters: component {i} has no shock with theta < 1"
                )
        self._theta = MappingProxyType(store)
        self.exchangeable_levels = None

    @property
    def theta(self) -> Mapping[frozenset[int], float]:
        """Stored (theta < 1) shock parameters; read-only view."""
        return self._theta

    @property
    def exchangeable(self) -> bool:
        return self.exchangeable_levels is not None

    def level(self, size: int) -> float:
        assert self.exchangeable_levels is not None
        return self.exchangeable_levels[size - 1]

    def __repr__(self) -> str:
        if self.exchangeable:
            return f"MvgParams(n={self.n}, exchangeable_levels={self.exchangeable_levels})"
        body = {tuple(sorted(I)): t for I, t in sorted(self._theta.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))}
        return f"MvgParams(n={self.n}, theta={body})"


def _log_or_none(t: float) -> float:
    # log(0) is -inf, which propagates correctly through the sums below
    return math.log(t) if t > 0.0 else -math.inf


def _prod(values: list[float]) -> float:
    """Product of values in [0, 1], switching to log space for tiny factors."""
    if not values:
        return 1.0
    if any(v == 0.0 for v in values):
        return 0.0
    if min(values) < _LOG_SPACE_CUTOFF:
        return math.exp(math.fsum(math.log(v) for v in values))
    out = 1.0
    for v in values:
        out *= v
    return out


def theta_all(params: MvgParams) -> float:
    """Product of every theta_I; the subset-minimum parameter of the full set."""
    return mvg_min_param(params, range(1, params.n + 1))


def mvg_min_param(params: MvgParams, subset: Iterable[int]) -> float:
    """Parameter theta of the geometric law of min over ``subset``.

    The minimum over a non-empty subset S is ge(1 - theta) with
    theta = prod over I intersecting S of theta_I, so P(min > m) = theta^(m+1).
    """
    S = _as_subset(subset, params.n)
    if params.exchangeable:
        n, k = params.n, len(S)
        log = 0.0
        for s in range(1, n + 1):
            t = params.level(s)
            if t == 1.0:
                continue
            e = math.comb(n, s) - math.comb(n - k, s)
            if t == 0.0:
                if e > 0:
                    return 0.0
                continue
            if e > _HUGE_EXPONENT:
                return 0.0
            log += e * math.log(t)
        return math.exp(log)
    return _prod([t for I, t in params.theta.items() if I & S])


def _subset_minima(params: MvgParams, k: int) -> tuple[np.ndarray, int]:
    """theta(K) of the size-k subsets K, and how many subsets each value stands for.

    Exchangeable parameters give one value for all C(n, k) subsets.  General
    parameters give the size-k slice of a table over all 2^n subsets, entry
    K the product of the stored theta_I with I meeting K.  The table is built
    on first use, one vectorised product per stored shock (a theta_I of 0
    needs no special case), and kept on the parameter set, which never
    changes after construction.
    """
    n = params.n
    if params.exchangeable:
        return np.array([mvg_min_param(params, range(1, k + 1))]), math.comb(n, k)
    if params._minima is None:
        if n > GENERAL_N_CAP:
            raise CapacityError(
                f"general MVG sums read all 2^n subsets; n={n} exceeds the cap "
                f"{GENERAL_N_CAP} (use exchangeable_levels for larger n)"
            )
        masks = np.arange(1 << n)
        table = np.ones(1 << n)
        for I, t in params.theta.items():
            table[(masks & sum(1 << (i - 1) for i in I)) != 0] *= t
        sizes = np.zeros(1 << n, dtype=np.int8)
        for b in range(n):
            sizes[1 << b : 2 << b] = sizes[: 1 << b] + 1
        params._minima = tuple(table[sizes == s] for s in range(n + 1))
    return params._minima[k], 1


def mvg_joint_survival(params: MvgParams, k: Sequence[int]) -> float:
    """P(X_1 > k_1, ..., X_n > k_n) for integer thresholds k_i >= -1."""
    if len(k) != params.n:
        raise ValidationError(f"need {params.n} thresholds, got {len(k)}")
    ks = [int(v) for v in k]
    if any(v < -1 for v in ks):
        raise ValidationError("thresholds must be >= -1")
    if params.exchangeable:
        n = params.n
        # Sorted descending, the i-th largest threshold is the max over
        # exactly C(n-i, s-1) of the size-s subsets, i = 1..n.
        srt = sorted(ks, reverse=True)
        log = 0.0
        for s in range(1, n + 1):
            t = params.level(s)
            if t == 1.0:
                continue
            lt = _log_or_none(t)
            for i, kv in enumerate(srt, start=1):
                cnt = math.comb(n - i, s - 1)
                if cnt and kv >= 0:
                    log += cnt * (kv + 1) * lt
        return math.exp(log) if log > -math.inf else 0.0
    logs = []
    for I, t in params.theta.items():
        m = max(ks[i - 1] for i in I)
        if m >= 0:
            lt = _log_or_none(t)
            if lt == -math.inf:
                return 0.0
            logs.append((m + 1) * lt)
    return math.exp(math.fsum(logs)) if logs else 1.0


def mvg_marginal(params: MvgParams, subset: Iterable[int]) -> MvgParams:
    """MVG parameters of the sub-vector indexed by ``subset`` (re-indexed 1..s).

    Components keep their relative order; the marginal parameter of a subset
    I of the survivors absorbs every stored shock set whose intersection with
    the kept components is exactly I.
    """
    S = _as_subset(subset, params.n)
    kept = sorted(S)
    k = len(kept)
    if params.exchangeable:
        n = params.n
        c = n - k
        levels = []
        for s in range(1, k + 1):
            # shocks of size s+u hitting exactly s kept components: C(c, u) ways
            log = 0.0
            for u in range(0, c + 1):
                t = params.level(s + u)
                if t == 1.0:
                    continue
                if t == 0.0:
                    log = -math.inf
                    break
                log += math.comb(c, u) * math.log(t)
            levels.append(math.exp(log) if log > -math.inf else 0.0)
        return MvgParams(k, exchangeable_levels=levels)
    index = {comp: pos for pos, comp in enumerate(kept, start=1)}
    grouped: dict[frozenset[int], list[float]] = {}
    for I, t in params.theta.items():
        hit = I & S
        if hit:
            key = frozenset(index[i] for i in hit)
            grouped.setdefault(key, []).append(t)
    return MvgParams(k, theta={key: _prod(ts) for key, ts in grouped.items()})


def geometric_factorial_moment(theta: float, p: int) -> float:
    """E[X(X-1)...(X-p+1)] = p! (theta/(1-theta))^p for X ~ ge(1-theta)."""
    if p < 1:
        raise ValidationError("p must be a positive integer")
    if not 0.0 <= theta < 1.0:
        raise ValidationError(f"theta={theta} is defective (needs 0 <= theta < 1)")
    return math.factorial(p) * (theta / (1.0 - theta)) ** p


@dataclass(frozen=True)
class FactorialMomentTerms:
    """Subset sums S_{j,p} behind an order-statistic factorial moment.

    The moment is an alternating combination of the S_j; ``cancellation_ratio``
    reports how much the intermediate terms exceed the final value, a direct
    measure of how many digits the alternation destroys.
    """

    r: int
    n: int
    p: int
    S: tuple[float, ...]

    def signed_terms(self) -> tuple[float, ...]:
        r, n = self.r, self.n
        return tuple(
            (-1) ** (r - 1 - j) * math.comb(n - j - 1, n - r) * s
            for j, s in enumerate(self.S)
        )

    def value(self) -> float:
        return math.factorial(self.p) * math.fsum(self.signed_terms())

    def cancellation_ratio(self) -> float:
        value = self.value()
        peak = max((abs(t) for t in self.signed_terms()), default=0.0)
        peak *= math.factorial(self.p)
        if value == 0.0:
            return math.inf if peak > 0.0 else 1.0
        return peak / abs(value)


def _g(theta: float) -> float:
    return theta / (1.0 - theta)


def factorial_moment_terms(params: MvgParams, r: int, n: int, p: int) -> FactorialMomentTerms:
    """The S_{j,p} sums, j = 0..r-1, for the r-th order statistic of n MVG lifetimes.

    S_{j,p} aggregates, over the C(n, j) ways to discard j components, the
    p-th geometric factorial moment kernel of the minimum over the remaining
    n-j components.
    """
    if n != params.n:
        raise ValidationError(f"n={n} does not match params.n={params.n}")
    if not 1 <= r <= n:
        raise ValidationError(f"rank r={r} outside 1..{n}")
    if p < 1:
        raise ValidationError("p must be a positive integer")
    S: list[float] = []
    for j in range(r):
        # drop j components <=> keep a subset K of size n-j; the term is
        # g(theta(K))^p which sidesteps 0/0 in the theta_all ratio form
        thetas, mult = _subset_minima(params, n - j)
        S.append(mult * math.fsum([g**p for g in _g(thetas).tolist()]))
    return FactorialMomentTerms(r=r, n=n, p=p, S=tuple(S))


def mvg_orderstat_factorial_moment(params: MvgParams, r: int, n: int, p: int) -> float:
    """E(X_{r:n})_p = p! sum_j (-1)^(r-1-j) C(n-j-1, n-r) S_{j,p}."""
    return factorial_moment_terms(params, r, n, p).value()


def mvg_orderstat_mean_var(params: MvgParams, r: int, n: int) -> tuple[float, float]:
    """Mean and variance of the r-th order statistic of n MVG lifetimes."""
    mean = mvg_orderstat_factorial_moment(params, r, n, 1)
    fact2 = mvg_orderstat_factorial_moment(params, r, n, 2)
    return mean, fact2 + mean * (1.0 - mean)


def mvg_orderstat_survival(
    params: MvgParams, r: int, n: int, m: int | Sequence[int] | np.ndarray
) -> float | np.ndarray:
    """P(X_{r:n} > m) via the subset-minima expansion of the order-statistic cdf.

    F_{r:n}(m) = sum_{j=0}^{r-1} (-1)^(r-1-j) C(n-j-1, n-r)
                 sum_{|K| = n-j} F_{1:K}(m),
    and every F_{1:K} is geometric: F_{1:K}(m) = 1 - theta(K)^(m+1).
    ``m`` is one threshold (a float is returned) or an array of thresholds
    (an array of survival probabilities is returned); thresholds below 0
    give 1.
    """
    if n != params.n:
        raise ValidationError(f"n={n} does not match params.n={params.n}")
    if not 1 <= r <= n:
        raise ValidationError(f"rank r={r} outside 1..{n}")
    exps = [max(int(v) + 1, 0) for v in np.atleast_1d(m)]
    terms: list[list[float]] = [[] for _ in exps]
    for j in range(r):
        w = (-1) ** (r - 1 - j) * math.comb(n - j - 1, n - r)
        thetas, mult = _subset_minima(params, n - j)
        ts = thetas.tolist()
        for row, e in zip(terms, exps):
            sub = mult * math.fsum([1.0 - t**e for t in ts])
            row.append(w * sub)
    surv = [min(1.0, max(0.0, 1.0 - math.fsum(row))) for row in terms]
    return surv[0] if np.ndim(m) == 0 else np.array(surv)


def stirling2_row(q: int) -> list[int]:
    """Stirling set numbers S2(q, k) for k = 0..q, exact integers."""
    row = [1]
    for qq in range(1, q + 1):
        new = [0] * (qq + 1)
        for k in range(1, qq + 1):
            new[k] = k * row[k] if k < qq else 0
            new[k] += row[k - 1]
        row = new
    return row


def factorial_to_raw(factorials: Sequence[float]) -> list[float]:
    """Convert E(X)_1..E(X)_p into raw moments E X^1..E X^p.

    Uses E X^q = sum_k S2(q, k) E(X)_k with Stirling set numbers; the weights
    are exact integers so the conversion adds no error beyond the inputs'.
    """
    p = len(factorials)
    if p < 1:
        raise ValidationError("need at least the first factorial moment")
    raws = []
    for q in range(1, p + 1):
        row = stirling2_row(q)
        raws.append(math.fsum(row[k] * factorials[k - 1] for k in range(1, q + 1)))
    return raws
