"""Ground truth independent of the analytic pipeline.

Two oracles: exhaustive enumeration over finite supports, and Monte Carlo
simulation with a seeded generator.  Property tests compare the analytic
formulas against these.  The oracles share only the statistic's definition
with the analytic side, its value at each point (``values``); nothing here
reuses the survival-series machinery, and each model kind keeps its own
enumerator and sampler.

Points travel coordinate-major: every enumerator and sampler hands
``values`` one contiguous row per coordinate, so that the minima and maxima
of a statistic run along rows.  Enumerators pass an (n, N) array; samplers
pass the list of drawn rows, which no pass copies into a block.  The layout
must not change a draw: ``tests/test_oracle.py`` pins the seeded stream.

A finite support below ``ENUMERATION_CAP`` (an explicit pmf or a listable
multinomial) is sampled by index.  When a run draws at least as many
samples as there are support points, Monte Carlo evaluates the statistic,
and its p-th power, once per support point and gathers those values by the
drawn indices; with fewer draws it gathers the drawn points and evaluates
those alone.  Either way the draws and the estimate are the same.

Every finite support (an explicit pmf, a listable multinomial, a
``FinitePMF`` marginal) draws its indices from one sampler,
``_index_sampler``, built once per ``mc_moment`` call.  It returns, index
for index, what ``Generator.choice(size, p=probs)`` returns, and leaves the
generator in the same state: the same cdf (``probs.cumsum()`` over its last
entry), the same ``rng.random(size)`` uniforms, and for each uniform u the
number of cdf values <= u.  Instead of ``choice``'s binary search per draw
it reads a guide table (Chen and Asau 1974; Devroye 1986, ch. III): K
buckets [b/K, (b+1)/K), K a power of two so that floor(u K) is exact.  A
bucket that holds no cdf value fixes the index, read from the table; only
the draws that land in a bucket holding a cdf value are searched.  K is
about 8 buckets per support point, within 2^10..2^20, and never above the
power of two at or above the run's sample count, so that building the table
costs no more than drawing; a support with more points than buckets is
searched draw by draw, as ``choice`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from typing import Callable

import numpy as np

from .distributions import (
    ExplicitFinitePMF,
    FinitePMF,
    Geometric,
    IndependentMarginals,
    JointModel,
    MultinomialModel,
    MvgModel,
    NegBin,
    Poisson,
)
from .errors import CapacityError, ConvergenceError, UnsupportedModelError, ValidationError, _as_int, _as_order
from .mvg import MvgParams
from .systems import _statistic

__all__ = ["McEstimate", "enumerate_moment", "sample_mvg", "mc_moment"]

# nominal cap 1e7, nudged up so the 10,015,005-point multinomial
# cross-validation case stays admissible
ENUMERATION_CAP = 11_000_000

SHOCK_SET_CAP = 1 << 14  # exchangeable sampling materializes every subset

_MC_MIN_SAMPLES = 1000

_CHUNK_BUDGET = 4_000_000  # random values drawn per chunk

# guide-table buckets of the finite-support sampler: a power of two, about
# this many per support point, within these bounds
_GUIDE_PER_POINT = 8
_GUIDE_MIN = 1 << 10
_GUIDE_MAX = 1 << 20


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int

    def __post_init__(self):
        if self.stderr < 0.0:
            raise ValidationError(f"stderr={self.stderr} must be >= 0")
        if self.samples < 1:
            raise ValidationError(f"samples={self.samples} must be >= 1")


def _full_support(model: JointModel) -> tuple[np.ndarray, np.ndarray]:
    """(points, probs): points (n, N), one row per coordinate."""
    if isinstance(model, ExplicitFinitePMF):
        # checked before reading points: a multinomial lists them on first read
        size = model.support_size()
        if size > ENUMERATION_CAP:
            raise CapacityError(f"{size} support points exceed the cap {ENUMERATION_CAP}")
        return model.points.T, model.probs
    if isinstance(model, IndependentMarginals):
        sizes = []
        for j, dist in enumerate(model.marginals, start=1):
            smax = dist.support_max()
            if smax is None:
                raise UnsupportedModelError(f"marginal {j} has infinite support")
            sizes.append(smax + 1)
        total = math.prod(sizes)
        if total > ENUMERATION_CAP:
            raise CapacityError(f"{total} support points exceed the cap {ENUMERATION_CAP}")
        grids = np.meshgrid(*(np.arange(s) for s in sizes), indexing="ij")
        points = np.stack([g.ravel() for g in grids])
        pmfs = [d.pmf_array(s - 1) for d, s in zip(model.marginals, sizes)]
        probs = reduce(np.multiply.outer, pmfs).ravel()
        return points, probs
    raise UnsupportedModelError(f"cannot enumerate {type(model).__name__}")


def enumerate_moment(model: JointModel, statistic, p: int) -> float:
    """E statistic(X)^p by summing over every support point."""
    p = _as_order(p)
    stat = _statistic(model, statistic)
    points, probs = _full_support(model)
    return float(np.dot(probs, _powers(stat.values(points), p)))


def _powers(vals: np.ndarray, p: int) -> np.ndarray:
    """vals**p as floats; x**1 is exact, so p = 1 skips the pass."""
    vals = vals.astype(float)
    return vals if p == 1 else vals**p


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)  # one mc_moment reads the same sets for its width and every chunk
def _shock_sets(params: MvgParams) -> tuple[tuple[tuple[int, ...], float], ...]:
    """(coordinate indices, theta) per stored shock set; exchangeable
    parameters materialize every subset of each level."""
    if params.exchangeable:
        n = params.n
        if (1 << n) - 1 > SHOCK_SET_CAP:
            raise CapacityError(
                f"exchangeable sampling materializes 2^{n}-1 shock sets; cap is {SHOCK_SET_CAP}"
            )
        sets = []
        for s in range(1, n + 1):
            theta = params.level(s)
            if theta >= 1.0:
                continue
            for I in combinations(range(n), s):
                sets.append((I, theta))
        return tuple(sets)
    return tuple((tuple(sorted(i - 1 for i in I)), th) for I, th in sorted(
        params.theta.items(), key=lambda kv: sorted(kv[0])
    ))


def _mvg_rows(params: MvgParams, size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """``size`` draws of the minimum construction, one row per component."""
    sets = _shock_sets(params)
    # non-defectiveness puts at least one finite-theta set on each component
    if len({c for cols, _ in sets for c in cols}) < params.n:
        raise ConvergenceError("a component received no shock set")
    # a row is the draw of the first set reaching it (copied if that draw
    # already is a row), then its running minimum; min(a-1, b-1) = min(a, b)-1,
    # so the shift to cycle counts is one pass per row at the end
    rows: dict[int, np.ndarray] = {}
    for cols, theta in sets:
        m = rng.geometric(1.0 - theta, size=size)
        owned = False
        for c in cols:
            if c in rows:
                np.minimum(rows[c], m, out=rows[c])
            else:
                rows[c] = m.copy() if owned else m
                owned = True
    for row in rows.values():
        row -= 1
    return [rows[c] for c in range(params.n)]


def sample_mvg(params: MvgParams, n_samples: int, seed=None, method: str = "min") -> np.ndarray:
    """(n_samples, n) draws of the common-shock lifetime vector.

    The default draws one geometric cycle count per shock set and takes the
    per-component minimum, which is the defining construction.  ``method=
    "cycle"`` simulates the shock process cycle by cycle instead; it is the
    semantic reference the minimum construction is validated against.
    """
    n_samples = _as_int(n_samples, "n_samples", 1)
    if method not in ("min", "cycle"):
        raise ValidationError(f"method must be 'min' or 'cycle', not {method!r}")
    rng = _rng(seed)
    if method == "min":
        # the coordinate-major block; its transpose is the (n_samples, n) view
        return np.stack(_mvg_rows(params, n_samples, rng)).T
    sets = _shock_sets(params)
    n = params.n
    # cycle simulation: every set with survivors fires each cycle w.p. 1-theta
    x = np.zeros((n_samples, n), dtype=np.int64)
    alive = np.ones((n_samples, n), dtype=bool)
    k = 0
    while alive.any():
        for cols, theta in sets:
            fired = rng.random(n_samples) < 1.0 - theta
            sub = alive[:, cols] & fired[:, None]
            rows, ci = np.nonzero(sub)
            if rows.size:
                cs = np.asarray(cols)[ci]
                x[rows, cs] = k
                alive[rows, cs] = False
        k += 1
        if k > 10**7:
            raise ConvergenceError("shock process did not terminate")
    return x


def _pow2_at_least(x: int) -> int:
    return 1 << max(x - 1, 0).bit_length()


def _guide_buckets(points: int, n_samples: int) -> int:
    """The bucket count of a guide table over ``points`` support points, for
    a run of ``n_samples`` draws."""
    buckets = min(max(_pow2_at_least(_GUIDE_PER_POINT * points), _GUIDE_MIN), _GUIDE_MAX)
    return min(buckets, _pow2_at_least(n_samples))


def _index_sampler(probs: np.ndarray, n_samples: int) -> Callable[[int, np.random.Generator], np.ndarray]:
    """(size, rng) -> ``size`` indices into ``probs``, the ones
    ``rng.choice(len(probs), size=size, p=probs)`` draws, for a run of
    ``n_samples`` draws in all; see the module docstring."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    buckets = _guide_buckets(cdf.size, n_samples)
    if buckets < cdf.size:
        return lambda size, rng: cdf.searchsorted(rng.random(size), side="right")
    # scaling by a power of two is exact, so the scaled cdf orders the scaled
    # uniforms as the cdf orders the uniforms; a cdf value of 1 lies past the
    # last bucket
    scaled = cdf * buckets
    held = np.bincount(scaled.astype(np.intp), minlength=buckets + 1)[:buckets]
    # per bucket the number of cdf values below it, or -1 where it holds one
    guide = np.where(held > 0, -1, np.cumsum(held) - held)

    def draw(size: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(size)
        u *= buckets
        idx = guide[u.astype(np.intp)]
        searched = np.flatnonzero(idx < 0)
        idx[searched] = scaled.searchsorted(u[searched], side="right")
        return idx

    return draw


def _marginal_sampler(dist, n_samples: int) -> Callable[[int, np.random.Generator], np.ndarray]:
    """(size, rng) -> ``size`` draws of the marginal, for a run of ``n_samples``."""
    if isinstance(dist, Poisson):
        return lambda size, rng: rng.poisson(dist.lam, size=size)
    if isinstance(dist, NegBin):
        return lambda size, rng: rng.negative_binomial(dist.R, dist.p, size=size)
    if isinstance(dist, Geometric):
        return lambda size, rng: rng.geometric(dist.pi, size=size) - 1
    if isinstance(dist, FinitePMF):
        return _index_sampler(dist.probs, n_samples)
    raise UnsupportedModelError(f"no sampler for marginal {type(dist).__name__}")


def _draw_powers(
    model: JointModel, stat, p: int, n_samples: int
) -> Callable[[int, np.random.Generator], np.ndarray]:
    """(size, rng) -> statistic(X)^p as floats at ``size`` draws of X, for a
    run of ``n_samples`` draws in all."""
    if isinstance(model, MultinomialModel) and model.support_size() > ENUMERATION_CAP:
        cells = model.cell_probs / model.cell_probs.sum()
        return lambda size, rng: _powers(stat.values(rng.multinomial(model.trials, cells, size).T), p)
    if isinstance(model, ExplicitFinitePMF):
        indices = _index_sampler(model.probs, n_samples)
        if model.support_size() <= n_samples:
            # one value per support point, gathered by the drawn point indices
            table = _powers(stat.values(model.points.T), p)
            return lambda size, rng: table.take(indices(size, rng))
        # fewer draws than points: evaluate the drawn points alone
        return lambda size, rng: _powers(stat.values(model.points[indices(size, rng)].T), p)
    rows = _row_sampler(model, n_samples)
    return lambda size, rng: _powers(stat.values(rows(size, rng)), p)


def _row_sampler(model: JointModel, n_samples: int) -> Callable[[int, np.random.Generator], list[np.ndarray]]:
    """(size, rng) -> ``size`` draws, one row per coordinate, for a run of
    ``n_samples``; each row is a draw's own array."""
    if isinstance(model, IndependentMarginals):
        marginals = [_marginal_sampler(d, n_samples) for d in model.marginals]
        return lambda size, rng: [draw(size, rng) for draw in marginals]
    if isinstance(model, MvgModel):
        return lambda size, rng: _mvg_rows(model.params, size, rng)
    raise UnsupportedModelError(f"no sampler for {type(model).__name__}")


def _chunk_size(model: JointModel) -> int:
    width = model.n
    if isinstance(model, MvgModel):
        width = max(width, len(_shock_sets(model.params)))
    return max(1, _CHUNK_BUDGET // max(width, 1))


def mc_moment(model: JointModel, statistic, p: int, n_samples: int, seed) -> McEstimate:
    """Monte Carlo estimate of E statistic(X)^p with its standard error.

    Deterministic for a fixed seed: the chunking policy depends only on the
    model, so the draw stream is reproducible bit for bit.
    """
    p = _as_order(p)
    n_samples = _as_int(n_samples, "n_samples")
    if n_samples < _MC_MIN_SAMPLES:
        raise ValidationError(f"n_samples={n_samples} below the minimum {_MC_MIN_SAMPLES}")
    draw = _draw_powers(model, _statistic(model, statistic), p, n_samples)
    rng = _rng(seed)
    chunk = _chunk_size(model)
    done = 0
    total = 0.0
    total_sq = 0.0
    while done < n_samples:
        size = min(chunk, n_samples - done)
        vals = draw(size, rng)
        total += float(vals.sum())
        total_sq += float(np.dot(vals, vals))
        done += size
    mean = total / n_samples
    var = max(total_sq - n_samples * mean * mean, 0.0) / (n_samples - 1)
    return McEstimate(mean=mean, stderr=math.sqrt(var / n_samples), samples=n_samples)
