"""Independent reference values for the benchmark's correctness checks.

Nothing here calls the library's series, planner, signature or closed-form
code.  Marginal laws come from ``scipy.stats``; order statistics use a
Poisson-binomial class-count sum run to a far cutoff; coherent systems use
the structure function on component states; common-shock (MVG) vectors use
exact dynamic programmes over which shocks have arrived.  Every sum here has
non-negative terms, so the references keep their digits where the library's
alternating sums may not.

The module imports scipy lazily so that importing it costs nothing inside a
timed region.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

# The cutoffs below leave out series tails far smaller than this, which is
# itself far under every tolerance the checks apply (the tightest is 1e-9).
_NEGLIGIBLE = 1e-16


def scipy_marginal(kind: str, *params):
    """A frozen scipy.stats law matching the library's parametrisation."""
    from scipy import stats

    if kind == "poisson":
        (lam,) = params
        return stats.poisson(lam)
    if kind == "negbin":
        R, p = params
        return stats.nbinom(R, p)
    if kind == "geometric":
        (pi,) = params
        return stats.geom(pi, loc=-1)  # scipy's geom starts at 1
    raise ValueError(f"unknown marginal kind {kind!r}")


def _cutoff(dists, p: int) -> int:
    """An index L past which the survival series of any rank is negligible."""
    L = int(max(d.mean() + 10.0 * d.std() for d in dists)) + 16
    while True:
        L *= 2
        sf = sum(float(d.sf(L)) for d in dists)
        if ((L + 1) ** p) * sf * L < _NEGLIGIBLE * 1e-6:
            return L


def _series(surv: np.ndarray, p: int) -> float:
    ms = np.arange(surv.size, dtype=float)
    return math.fsum(((ms + 1.0) ** p - ms**p) * surv)


def poisson_binomial_counts(cdfs: np.ndarray, sfs: np.ndarray) -> np.ndarray:
    """(M, n+1) matrix of P(exactly s of n independent events), row per threshold.

    ``cdfs[m, j]`` is the probability of event j at threshold m and ``sfs``
    its complement, passed separately so tail digits are not lost to 1 - x.
    """
    M, n = cdfs.shape
    counts = np.zeros((M, n + 1))
    counts[:, 0] = 1.0
    for j in range(n):
        q, s = cdfs[:, j : j + 1], sfs[:, j : j + 1]
        counts[:, 1:] = counts[:, 1:] * s + counts[:, :-1] * q
        counts[:, 0] *= sfs[:, j]
    return counts


def orderstat_moments(dists, p: int) -> list[float]:
    """E X_{r:n}^p for r = 1..n, for independent scipy marginals (n = len(dists))."""
    L = _cutoff(dists, p)
    ms = np.arange(L + 1)
    cdfs = np.column_stack([d.cdf(ms) for d in dists])
    sfs = np.column_stack([d.sf(ms) for d in dists])
    below = np.cumsum(poisson_binomial_counts(cdfs, sfs), axis=1)  # P(fewer than r+1 at or below m)
    return [_series(below[:, r - 1], p) for r in range(1, len(dists) + 1)]


# ---------------------------------------------------------------------------
# coherent systems
# ---------------------------------------------------------------------------

def _masks(sets) -> list[int]:
    return [sum(1 << (i - 1) for i in S) for S in sets]


def structure_function(n: int, path_sets) -> np.ndarray:
    """phi[A] = 1 when the working set A (a bit mask) contains a path set."""
    paths = _masks(path_sets)
    return np.array([any(A & P == P for P in paths) for A in range(1 << n)], dtype=float)


def minimal_cut_sets(n: int, path_sets) -> list[frozenset[int]]:
    """Minimal sets of components whose failure stops every path."""
    phi = structure_function(n, path_sets)
    full = (1 << n) - 1
    cuts = []
    for size in range(1, n + 1):
        for C in combinations(range(1, n + 1), size):
            cm = sum(1 << (i - 1) for i in C)
            if phi[full ^ cm] == 0.0 and not any(K <= set(C) for K in cuts):
                cuts.append(frozenset(C))
    return cuts


def _mobius_by_size(n: int, indicator: np.ndarray) -> tuple[int, ...]:
    """Size-aggregated Mobius transform: sum over |K|=i of sum_{J<=K} (-1)^|K-J| f(J)."""
    coeff = indicator.astype(np.int64).copy()
    for b in range(n):
        bit = 1 << b
        for K in range(1 << n):
            if K & bit:
                coeff[K] -= coeff[K ^ bit]
    out = [0] * n
    for K in range(1, 1 << n):
        out[bin(K).count("1") - 1] += int(coeff[K])
    return tuple(out)


def signatures(n: int, path_sets) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(minimal, maximal) signature from the structure function.

    alpha expands P(T > m) over minima of working sets; beta expands
    P(T <= m) over maxima of failed sets, whose indicator is 1 - phi of the
    complement.
    """
    phi = structure_function(n, path_sets)
    full = (1 << n) - 1
    failed = np.array([1.0 - phi[full ^ F] for F in range(1 << n)])
    return _mobius_by_size(n, phi), _mobius_by_size(n, failed)


def system_moment_independent(dists, path_sets, p: int) -> float:
    """E T^p for independent scipy marginals, summing phi over all 2^n states."""
    n = len(dists)
    L = _cutoff(dists, p)
    ms = np.arange(L + 1)
    cdfs = [d.cdf(ms) for d in dists]
    sfs = [d.sf(ms) for d in dists]
    phi = structure_function(n, path_sets)
    surv = np.zeros(L + 1)
    for A in np.nonzero(phi)[0]:
        term = np.ones(L + 1)
        for j in range(n):
            term *= sfs[j] if A >> j & 1 else cdfs[j]
        surv += term
    return _series(surv, p)


# ---------------------------------------------------------------------------
# common-shock geometric (MVG) vectors
# ---------------------------------------------------------------------------

def _shock_horizon(theta: dict, n: int) -> int:
    """Threshold past which every component has almost surely been hit."""
    slowest = max(
        math.prod(t for I, t in theta.items() if i in I) for i in range(1, n + 1)
    )
    return int(math.log(_NEGLIGIBLE / (n * 1e6)) / math.log(slowest)) + 1


def _hit_by(t: float, ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P(shock not arrived by m), P(arrived by m)) for a shock with parameter t."""
    if t == 0.0:
        return np.zeros_like(ms), np.ones_like(ms)
    log_t = math.log(t)
    return np.exp((ms + 1.0) * log_t), -np.expm1((ms + 1.0) * log_t)


def mvg_system_moments(n: int, theta: dict, path_sets, p_max: int) -> list[float]:
    """E T^p, p = 1..p_max, by a distribution over the set of dead components.

    ``theta`` maps frozensets to shock parameters.  Each shock I has arrived
    by time m with probability 1 - theta_I^(m+1) and then kills all of I;
    propagating that over every shock gives P(dead set = D) exactly.
    """
    L = _shock_horizon(theta, n)
    ms = np.arange(L + 1, dtype=float)
    dead = np.zeros((1 << n, L + 1))
    dead[0] = 1.0
    idx = np.arange(1 << n)
    for I, mask in zip(theta, _masks(theta)):
        alive, arrived = _hit_by(theta[I], ms)
        new = dead * alive
        np.add.at(new, idx | mask, dead * arrived)
        dead = new
    phi = structure_function(n, path_sets)
    full = (1 << n) - 1
    works = phi[full ^ idx]
    surv = works @ dead
    return [_series(surv, p) for p in range(1, p_max + 1)]


def ring_orderstat_moments(
    n: int, singles: list[float], pairs: list[float], order: list[int], r: int, p_max: int
) -> list[float]:
    """E X_{r:n}^p, p = 1..p_max, for MVG with singleton shocks plus a ring of pair shocks.

    ``order`` lists the components around the ring; pair shock k joins
    order[k] and order[k+1 mod n] with parameter pairs[k].  A transfer-matrix
    pass around the ring gives the distribution of the number of components
    still alive at each threshold.
    """
    horizon_theta = {frozenset([i + 1]): singles[i] for i in range(n)}
    for k in range(n):
        horizon_theta[frozenset([order[k], order[(k + 1) % n]])] = pairs[k]
    L = _shock_horizon(horizon_theta, n)
    ms = np.arange(L + 1, dtype=float)
    edge_live = [_hit_by(pairs[k], ms) for k in range(n)]
    single_live = [_hit_by(singles[order[k] - 1], ms)[0][:, None] for k in range(n)]
    alive_count = np.zeros((L + 1, n + 1))
    for closing in (0, 1):  # whether the pair shock joining order[-1] and order[0] is still out
        start = np.zeros((L + 1, n + 1))
        start[:, 0] = edge_live[n - 1][1 - closing]
        dist = {closing: start}  # keyed by the state of the edge before component k
        for k in range(n):
            nxt = {0: np.zeros((L + 1, n + 1)), 1: np.zeros((L + 1, n + 1))}
            for prev, d in dist.items():
                for edge in (closing,) if k == n - 1 else (0, 1):
                    w = d if k == n - 1 else d * edge_live[k][1 - edge][:, None]
                    if prev and edge:  # component alive iff its own shock is out too
                        live = w * single_live[k]
                        w = w - live
                        w[:, 1:] += live[:, :-1]
                    nxt[edge] += w
            dist = nxt
        alive_count += dist[0] + dist[1]
    surv = alive_count[:, n - r + 1 :].sum(axis=1)
    return [_series(surv, p) for p in range(1, p_max + 1)]


def iid_geometric_orderstat(n: int, pi: float, r: int, p_max: int) -> list[float]:
    """E X_{r:n}^p for n IID ge(pi) lifetimes from the binomial class counts."""
    from scipy import stats

    L = int(math.log(_NEGLIGIBLE / (n * 1e6)) / math.log1p(-pi)) + 1
    ms = np.arange(L + 1, dtype=float)
    F = -np.expm1((ms + 1.0) * math.log1p(-pi))
    surv = stats.binom.cdf(r - 1, n, F)
    return [_series(surv, p) for p in range(1, p_max + 1)]


def multinomial_orderstat(trials: int, probs, r: int, p: int) -> float:
    """E X_{r:n}^p over every count vector of Mult(trials, probs)."""
    from scipy import stats

    k = len(probs)
    total = 0.0
    for bars in combinations(range(trials + k - 1), k - 1):
        edges = (-1,) + bars + (trials + k - 1,)
        x = [edges[i + 1] - edges[i] - 1 for i in range(k)]
        total += float(stats.multinomial.pmf(x, trials, probs)) * sorted(x)[r - 1] ** p
    return total
