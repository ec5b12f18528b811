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

Exchangeable parameters enter every formula through one log-space product
of their levels, prod_s theta_s^(e_s), each caller supplying its exponents.
The closed forms sum over subsets K of the components, and each term reads
the subset-minimum parameter theta(K), defined for one subset by
``mvg_min_param``.  Every sum reads theta(K) from one table builder,
``_lattice``, of theta(forced | S) over the subsets S of some coordinates:
the system closed form over all n components, ``MvgModel.counts`` over a
query's low and counted ones.  The order statistics run one weighted sum
over the sizes n-j, j < r, each read at once from ``_subset_minima``.

Each size's sum is array work and exact ``math.fsum`` sums that read the
array's buffer (``memoryview``), the same doubles a list would hold with no
list built: the terms g(theta(K))^p come from one ``np.float_power`` over
the size's slice (none at p = 1, where pow returns its base exactly), and
the terms 1 - theta(K)^(m+1) from one ``np.float_power`` per block of
thresholds, a row per threshold, each row summed exactly by ``_row_fsums``.
``np.float_power`` calls the C library's pow, as Python's float ``**``
does, so the sums are the per-subset ones to the last bit; numpy's ``**``
may use a SIMD pow that differs from it in the last place.  The factorial
sums are computed once per parameter set, size and order
(``_factorial_sum``) and shared by every rank, every moment order up to p
and the bracket; each rank keeps its own weights and its own alternating
``fsum`` in ``FactorialMomentTerms.value``.  The survival sums depend on
the thresholds and are summed afresh by the ``fsums`` callback of
``_size_sums``, the one place those terms are summed.  An exact-arithmetic
(``decimal``) kernel for the alternating sums would replace those two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, NumericError, ValidationError, _as_index_set, _as_int, _as_order

# Tables over all 2^n subsets of n coordinates (the general MVG sums here, MVG
# queries over marked coordinates, signature lattices) are refused above this n.
LATTICE_N_CAP = 20

# Exponents like C(n,s) - C(j,s) overflow float arithmetic long before the
# products they exponentiate stop underflowing to 0; anything this large with
# a base < 1 is an exact 0 for our purposes.
_HUGE_EXPONENT = 1 << 60

_LATTICE_BLOCK = 1 << 20  # table entries per block of threshold rows in the reads of subset tables


def _row_fsums(block: np.ndarray) -> list[float]:
    """``math.fsum`` of each row of a 2-D float block, read from the row's
    buffer: the correctly rounded sum of the row's doubles, with no list
    built."""
    return [math.fsum(memoryview(row)) for row in block]


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

    __slots__ = ("n", "_theta", "exchangeable_levels", "_minima", "_factorial_sums")

    def __init__(
        self,
        n: int,
        theta: Mapping[Iterable[int], float] | None = None,
        exchangeable_levels: Sequence[float] | None = None,
    ):
        n = _as_int(n, "n", 1)
        self.n = n
        self._minima: dict[int, np.ndarray] = {}  # filled by _subset_minima
        self._factorial_sums: dict[tuple[int, int], float] = {}  # filled by _factorial_sum
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
            key = _as_index_set(I, "shock subset", n, nonempty=True)
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


def _level_product(levels: Sequence[float], exponent: Callable[[int], int]) -> float:
    """prod over positions s = 1, 2, ... of levels[s-1] ** exponent(s), in log space.

    A level of 1 is skipped before its exponent is formed, and a zero
    exponent drops out.  A zero level with a positive exponent, or any
    exponent above _HUGE_EXPONENT, makes the product 0.0.
    """
    log = 0.0
    for s, t in enumerate(levels, start=1):
        if t == 1.0:
            continue
        e = exponent(s)
        if e == 0:
            continue
        if t == 0.0 or e > _HUGE_EXPONENT:
            return 0.0
        log += e * math.log(t)
    return math.exp(log)


def theta_all(params: MvgParams) -> float:
    """Product of every theta_I; the subset-minimum parameter of the full set."""
    return mvg_min_param(params, range(1, params.n + 1))


def mvg_min_param(params: MvgParams, subset: Iterable[int]) -> float:
    """Parameter theta of the geometric law of min over ``subset``.

    The minimum over a non-empty subset S is ge(1 - theta) with
    theta = prod over I intersecting S of theta_I, so P(min > m) = theta^(m+1).
    """
    S = _as_index_set(subset, "subset", params.n, nonempty=True)
    if params.exchangeable:
        n, k = params.n, len(S)
        # C(n, s) - C(n-k, s) of the size-s shocks meet S
        return _level_product(params.exchangeable_levels, lambda s: math.comb(n, s) - math.comb(n - k, s))
    return math.prod(t for I, t in params.theta.items() if I & S)


def _popcounts(k: int) -> np.ndarray:
    """The number of members of every subset of k coordinates, in bit-mask order."""
    sizes = np.zeros(1 << k, dtype=np.int8)
    for b in range(k):
        sizes[1 << b : 2 << b] = sizes[: 1 << b] + 1
    return sizes


def _lattice(params: MvgParams, coords: Sequence[int], forced: Iterable[int] = ()) -> np.ndarray:
    """theta(forced | S) for every subset S of ``coords``, entry S at the bit
    mask with bit b for coords[b]; theta of the empty set is 1.  More than
    LATTICE_N_CAP coordinates are refused before any work; ``forced`` is
    disjoint from ``coords``.

    Exchangeable parameters read the level of size |forced| + |S|.  For
    general ones every entry starts at the product of the theta_I meeting
    ``forced``; each other theta_I, in stored order (that of
    ``mvg_min_param``), then multiplies the S meeting I, one strided block
    per member coords[b] of I, S holding it and no member at a higher bit
    (a theta_I of 0 needs no special case).  With nothing forced, entry S
    is ``mvg_min_param`` of S bit for bit."""
    k = len(coords)
    if k > LATTICE_N_CAP:
        raise CapacityError(f"a subset lattice over {k} coordinates exceeds the cap {LATTICE_N_CAP}")
    forced = frozenset(forced)
    if params.exchangeable:
        f = len(forced)
        levels = np.array([_subset_minima(params, s)[0][0] if s else 1.0 for s in range(f, f + k + 1)])
        return levels[_popcounts(k)]
    start, blocks, bit = 1.0, [], {i: b for b, i in enumerate(coords)}
    for I, t in params.theta.items():
        if not I.isdisjoint(forced):
            start *= t
        elif hit := [bit[i] for i in I if i in bit]:
            blocks.append((sorted(hit, reverse=True), t))
    table = np.empty(1 << k)
    table.fill(start)
    cube = table.reshape((2,) * k)  # axis k-1-b tells whether coords[b] is in S
    for hit, t in blocks:
        block = [slice(None)] * k
        for b in hit:
            block[k - 1 - b] = 1
            cube[tuple(block)] *= t
            block[k - 1 - b] = 0
    return table


def _subset_minima(params: MvgParams, k: int) -> tuple[np.ndarray, int]:
    """theta(K) of the size-k subsets K, and how many subsets each value stands for.

    One read-only table per parameter set, kept on it (it never changes
    after construction): for exchangeable parameters one value per size,
    for all C(n, k) subsets, on first request of that size; for general
    ones the size-k slices, each in bit-mask order, of the all-free
    ``_lattice``, built on first use."""
    n, minima = params.n, params._minima
    if k not in minima:
        if params.exchangeable:
            minima[k] = np.array([mvg_min_param(params, range(1, k + 1))])
            minima[k].flags.writeable = False
        else:
            table = _lattice(params, range(1, n + 1))[np.argsort(_popcounts(n), kind="stable")]
            table.flags.writeable = False
            starts = np.cumsum([0] + [math.comb(n, s) for s in range(n + 1)]).tolist()
            minima.update((s, table[starts[s] : starts[s + 1]]) for s in range(n + 1))
    return minima[k], math.comb(n, k) if params.exchangeable else 1


def mvg_joint_survival(params: MvgParams, k: Sequence[int]) -> float:
    """P(X_1 > k_1, ..., X_n > k_n) for integer thresholds k_i >= -1."""
    if len(k) != params.n:
        raise ValidationError(f"need {params.n} thresholds, got {len(k)}")
    ks = [_as_int(v, "threshold", -1) for v in k]
    if params.exchangeable:
        n = params.n
        # Sorted descending, the i-th largest threshold is the max over
        # exactly C(n-i, s-1) of the size-s subsets, i = 1..n; a threshold
        # of -1 adds nothing to the exponent.
        srt = sorted(ks, reverse=True)
        return _level_product(
            params.exchangeable_levels,
            lambda s: sum(math.comb(n - i, s - 1) * (kv + 1) for i, kv in enumerate(srt, start=1)),
        )
    logs = []
    for I, t in params.theta.items():
        m = max(ks[i - 1] for i in I)
        if m >= 0:
            if t == 0.0:
                return 0.0
            logs.append((m + 1) * math.log(t))
    return math.exp(math.fsum(logs))


def mvg_marginal(params: MvgParams, subset: Iterable[int]) -> MvgParams:
    """MVG parameters of the sub-vector indexed by ``subset`` (re-indexed 1..s).

    Components keep their relative order; the marginal parameter of a subset
    I of the survivors absorbs every stored shock set whose intersection with
    the kept components is exactly I.
    """
    S = _as_index_set(subset, "subset", params.n, nonempty=True)
    kept = sorted(S)
    k = len(kept)
    if params.exchangeable:
        c = params.n - k
        # shocks of size s+u hitting exactly s kept components: C(c, u) ways;
        # the level of size s+u sits at position u+1 of the slice
        levels = [
            _level_product(params.exchangeable_levels[s - 1 : s + c], lambda i: math.comb(c, i - 1))
            for s in range(1, k + 1)
        ]
        return MvgParams(k, exchangeable_levels=levels)
    index = {comp: pos for pos, comp in enumerate(kept, start=1)}
    grouped: dict[frozenset[int], list[float]] = {}
    for I, t in params.theta.items():
        hit = I & S
        if hit:
            key = frozenset(index[i] for i in hit)
            grouped.setdefault(key, []).append(t)
    return MvgParams(k, theta={key: math.prod(ts) for key, ts in grouped.items()})


def geometric_factorial_moment(theta: float, p: int) -> float:
    """E[X(X-1)...(X-p+1)] = p! (theta/(1-theta))^p for X ~ ge(1-theta)."""
    p = _as_order(p)
    if not 0.0 <= theta < 1.0:
        raise ValidationError(f"theta={theta} is defective (needs 0 <= theta < 1)")
    return math.factorial(p) * (theta / (1.0 - theta)) ** p


@dataclass(frozen=True)
class FactorialMomentTerms:
    """Subset sums S_{j,p} behind an order-statistic factorial moment.

    The moment is an alternating combination of the S_j; ``cancellation_ratio``
    reports how much the intermediate terms exceed the final value, a direct
    measure of how many digits the alternation destroys.  ``bracket`` is an
    a-priori upper bound on the moment: p! sum_i g(theta({i}))^p with
    g = theta/(1-theta), the sum of the marginal factorial moments, which
    bounds that of every order statistic.
    """

    r: int
    n: int
    p: int
    S: tuple[float, ...]
    bracket: float = math.inf

    def signed_terms(self) -> tuple[float, ...]:
        # float(w) * s is w * s for an integer w, to the last bit
        return tuple(w * s for w, s in zip(_float_weights(self.r, self.n), self.S))

    def value(self) -> float:
        return math.factorial(self.p) * math.fsum(self.signed_terms())

    def cancellation_ratio(self) -> float:
        # a value beyond the bracket is itself cancellation debris: measured
        # against it, a wrong value could not pass for a well-conditioned one
        value = min(abs(self.value()), self.bracket)
        peak = max((abs(t) for t in self.signed_terms()), default=0.0)
        peak *= math.factorial(self.p)
        if value == 0.0:
            return math.inf if peak > 0.0 else 1.0
        return peak / value


def _orderstat_weight(r: int, n: int, j: int) -> int:
    """(-1)^(r-1-j) C(n-j-1, n-r): the weight of the size-(n-j) subset sum in
    the expansion of the r-th order statistic."""
    return (-1) ** (r - 1 - j) * math.comb(n - j - 1, n - r)


def _check_rank(params: MvgParams, r: int, n: int) -> None:
    if n != params.n:
        raise ValidationError(f"n={n} does not match params.n={params.n}")
    if not 1 <= r <= n:
        raise ValidationError(f"rank r={r} outside 1..{n}")


def _beyond_float(r: int, n: int, j: int) -> NumericError:
    return NumericError(f"weight C({n - j - 1}, {n - r}) or subset count C({n}, {n - j}) exceeds the float range")


@lru_cache(maxsize=64)  # shared by a rank's moment orders and its terms objects
def _float_weights(r: int, n: int) -> tuple[float, ...]:
    """The weights of the size-(n-j) sums, j = 0..r-1, in the expansion of
    X_{r:n}, as floats; one beyond the float range raises NumericError (a
    refusal is not kept).  The weights fall with j, so only the first can be
    beyond it."""
    try:
        return tuple(float(_orderstat_weight(r, n, j)) for j in range(r))
    except OverflowError:
        raise _beyond_float(r, n, 0) from None


def _float_count(r: int, n: int, j: int, mult: int) -> float:
    """The count ``mult`` of the size-(n-j) subsets as a float; beyond the
    float range it raises NumericError."""
    try:
        return float(mult)
    except OverflowError:
        raise _beyond_float(r, n, j) from None


def _size_sums(
    params: MvgParams, r: int, n: int, fsums: Callable[[np.ndarray], list[float]]
) -> list[tuple[float, list[float]]]:
    """(weight, sums) per size n-j, j = 0..r-1, of the expansion of X_{r:n}:
    ``sums`` is what ``fsums`` returns for the theta(K) of the size-(n-j)
    subsets, one exact sum per threshold, each times the number of subsets
    a table entry stands for.  A weight or subset count beyond the float
    range raises NumericError."""
    _check_rank(params, r, n)
    out = []
    for j, w in enumerate(_float_weights(r, n)):
        thetas, mult = _subset_minima(params, n - j)
        count = _float_count(r, n, j, mult)
        out.append((w, [count * s for s in fsums(thetas)]))
    return out


def _factorial_sum(params: MvgParams, r: int, j: int, p: int) -> float:
    """The sum of g(theta(K))^p, g = theta/(1-theta), over the size-(n-j)
    subsets K, times the number of subsets a table entry stands for.

    Kept on the parameter set per (size, order) and computed on first
    request, after its subset count is checked (``_float_count``, which
    names rank r); a refused size is never kept.  The caller checks the
    weights of its rank (``_float_weights``).  Reading g(theta(K)) sidesteps
    0/0 in the theta_all ratio form."""
    n, sums = params.n, params._factorial_sums
    key = (n - j, p)
    if key in sums:
        return sums[key]
    thetas, mult = _subset_minima(params, n - j)
    count = _float_count(r, n, j, mult)
    g = thetas / (1.0 - thetas)
    sums[key] = s = count * math.fsum(memoryview(g if p == 1 else np.float_power(g, p)))
    return s


def factorial_moment_terms(params: MvgParams, r: int, n: int, p: int) -> FactorialMomentTerms:
    """The S_{j,p} sums, j = 0..r-1, for the r-th order statistic of n MVG lifetimes.

    S_{j,p} aggregates, over the C(n, j) ways to discard j components, the
    p-th geometric factorial moment kernel of the minimum over the remaining
    n-j components.  The bracket reads the size-1 sum, the last one of X_{n:n}.
    The weights of the rank are checked before any sum.
    """
    p = _as_order(p)
    _check_rank(params, r, n)
    _float_weights(r, n)
    S = tuple(_factorial_sum(params, r, j, p) for j in range(r))
    return FactorialMomentTerms(r=r, n=n, p=p, S=S, bracket=math.factorial(p) * _factorial_sum(params, n, n - 1, p))


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
    (an array of survival probabilities is returned); thresholds are at
    least -1, which gives 1.  Each size's terms are formed one block of
    thresholds at a time, a row per threshold (``_LATTICE_BLOCK`` entries a
    block).
    """
    exps = np.array([_as_int(v, "threshold m", -1) + 1 for v in ([m] if np.ndim(m) == 0 else m)], dtype=float)

    def fsums(thetas: np.ndarray) -> list[float]:
        sums, step = [], max(1, _LATTICE_BLOCK // len(thetas))
        for lo in range(0, len(exps), step):
            terms = np.float_power(thetas, exps[lo : lo + step, None])
            sums += _row_fsums(np.subtract(1.0, terms, out=terms))
        return sums

    sizes = _size_sums(params, r, n, fsums)
    surv = [min(1.0, max(0.0, 1.0 - math.fsum([w * sums[i] for w, sums in sizes]))) for i in range(len(exps))]
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
