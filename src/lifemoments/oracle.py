"""Ground truth independent of the analytic pipeline.

Two oracles: exhaustive enumeration over finite supports, and Monte Carlo
simulation with a seeded generator.  Property tests compare the analytic
formulas against these; nothing here reuses the survival-series machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from .distributions import (
    ExplicitFinitePMF,
    FinitePMF,
    Geometric,
    IndependentMarginals,
    JointModel,
    MvgModel,
    NegBin,
    Poisson,
)
from .errors import CapacityError, ConvergenceError, UnsupportedModelError, ValidationError
from .mvg import MvgParams
from .systems import SystemStructure

__all__ = ["McEstimate", "enumerate_moment", "sample_mvg", "mc_moment"]

# nominal cap 1e7, nudged up so the 10,015,005-point multinomial
# cross-validation case stays admissible
ENUMERATION_CAP = 11_000_000

SHOCK_SET_CAP = 1 << 14  # exchangeable sampling materializes every subset

_MC_MIN_SAMPLES = 1000

_CHUNK_BUDGET = 4_000_000  # random values drawn per chunk


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


def _statistic_values(points: np.ndarray, statistic) -> np.ndarray:
    """Per-outcome value of the statistic: rank r order statistic, or the
    system lifetime max over path sets of the in-set minimum."""
    n = points.shape[1]
    if isinstance(statistic, SystemStructure):
        if statistic.n != n:
            raise ValidationError(f"structure.n={statistic.n} does not match model n={n}")
        if statistic.path_sets is not None:
            mins = [
                points[:, sorted(i - 1 for i in P)].min(axis=1) for P in statistic.path_sets
            ]
            return reduce(np.maximum, mins)
        maxs = [points[:, sorted(i - 1 for i in C)].max(axis=1) for C in statistic.cut_sets]
        return reduce(np.minimum, maxs)
    r = int(statistic)
    if not 1 <= r <= n:
        raise ValidationError(f"rank r={r} outside 1..{n}")
    if r == 1:
        return points.min(axis=1)
    if r == n:
        return points.max(axis=1)
    return np.partition(points, r - 1, axis=1)[:, r - 1]


def _full_support(model: JointModel) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(model, ExplicitFinitePMF):
        # checked before reading points: a multinomial lists them on first read
        size = model.support_size()
        if size > ENUMERATION_CAP:
            raise CapacityError(f"{size} support points exceed the cap {ENUMERATION_CAP}")
        return model.points, model.probs
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
        points = np.stack([g.ravel() for g in grids], axis=1)
        pmfs = [d.pmf_array(s - 1) for d, s in zip(model.marginals, sizes)]
        probs = reduce(np.multiply.outer, pmfs).ravel()
        return points, probs
    raise UnsupportedModelError(f"cannot enumerate {type(model).__name__}")


def enumerate_moment(model: JointModel, statistic, p: int) -> float:
    """E statistic(X)^p by summing over every support point."""
    if p < 1:
        raise ValidationError(f"moment order p={p} must be >= 1")
    points, probs = _full_support(model)
    vals = _statistic_values(points, statistic).astype(float)
    return float(np.dot(probs, vals**p))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _shock_sets(params: MvgParams) -> list[tuple[list[int], float]]:
    """(column indices, theta) per stored shock set; exchangeable parameters
    materialize every subset of each level."""
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
                sets.append((list(I), theta))
        return sets
    return [(sorted(i - 1 for i in I), th) for I, th in sorted(
        params.theta.items(), key=lambda kv: sorted(kv[0])
    )]


def sample_mvg(params: MvgParams, n_samples: int, seed=None, method: str = "min") -> np.ndarray:
    """(n_samples, n) draws of the common-shock lifetime vector.

    The default draws one geometric cycle count per shock set and takes the
    per-component minimum, which is the defining construction.  ``method=
    "cycle"`` simulates the shock process cycle by cycle instead; it is the
    semantic reference the minimum construction is validated against.
    """
    if n_samples < 1:
        raise ValidationError(f"n_samples={n_samples} must be >= 1")
    if method not in ("min", "cycle"):
        raise ValidationError(f"method must be 'min' or 'cycle', not {method!r}")
    rng = _rng(seed)
    sets = _shock_sets(params)
    n = params.n
    if method == "min":
        out = np.full((n_samples, n), np.iinfo(np.int64).max, dtype=np.int64)
        for cols, theta in sets:
            m = rng.geometric(1.0 - theta, size=n_samples) - 1
            for c in cols:
                np.minimum(out[:, c], m, out=out[:, c])
        # non-defectiveness puts at least one finite-theta set on each component
        if out.max() == np.iinfo(np.int64).max:
            raise ConvergenceError("a component received no shock set")
        return out
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


def _sample_marginal(dist, size: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(dist, Poisson):
        return rng.poisson(dist.lam, size=size)
    if isinstance(dist, NegBin):
        return rng.negative_binomial(dist.R, dist.p, size=size)
    if isinstance(dist, Geometric):
        return rng.geometric(dist.pi, size=size) - 1
    if isinstance(dist, FinitePMF):
        return rng.choice(len(dist.probs), size=size, p=dist.probs)
    raise UnsupportedModelError(f"no sampler for marginal {type(dist).__name__}")


def _sample_model(model: JointModel, size: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(model, ExplicitFinitePMF):
        idx = rng.choice(model.points.shape[0], size=size, p=model.probs)
        return model.points[idx]
    if isinstance(model, IndependentMarginals):
        return np.column_stack([_sample_marginal(d, size, rng) for d in model.marginals])
    if isinstance(model, MvgModel):
        return sample_mvg(model.params, size, rng)
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
    if p < 1:
        raise ValidationError(f"moment order p={p} must be >= 1")
    if n_samples < _MC_MIN_SAMPLES:
        raise ValidationError(f"n_samples={n_samples} below the minimum {_MC_MIN_SAMPLES}")
    rng = _rng(seed)
    chunk = _chunk_size(model)
    done = 0
    total = 0.0
    total_sq = 0.0
    while done < n_samples:
        size = min(chunk, n_samples - done)
        vals = _statistic_values(_sample_model(model, size, rng), statistic).astype(float)
        vals = vals**p
        total += float(vals.sum())
        total_sq += float(np.dot(vals, vals))
        done += size
    mean = total / n_samples
    var = max(total_sq - n_samples * mean * mean, 0.0) / (n_samples - 1)
    return McEstimate(mean=mean, stderr=math.sqrt(var / n_samples), samples=n_samples)
