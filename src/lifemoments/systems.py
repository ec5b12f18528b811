"""Coherent-system structures and lifetime moments.

A coherent system with lifetime T = max over path sets of the min component
lifetime inside the path set admits the signed expansion

    P(T > m) = sum_K alpha_K P(min over K > m)

with integer coefficients alpha_K produced by inclusion-exclusion over
collections of minimal path sets; the dual expansion over minimal cut sets
gives beta_K against maxima.  Moments follow by the usual survival series,
exactly on finite supports, truncated with a certified error bound otherwise,
and in closed form for multivariate geometric components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .distributions import JointModel, NegBin, Poisson, rect_prob
from .errors import (
    CapacityError,
    NumericError,
    UnsupportedModelError,
    ValidationError,
)
from .mvg import MvgParams, geometric_factorial_moment, mvg_min_param
from .orderstats import (
    MomentResult,
    TruncationPlan,
    _weights,
    generic_truncation_index,
    negbin_truncation_index,
    poisson_truncation_index,
)

__all__ = [
    "SystemStructure",
    "SignatureSet",
    "alpha_coefficients",
    "beta_coefficients",
    "minimal_signature",
    "maximal_signature",
    "signature_from_samaniego",
    "signature_set",
    "k_out_of_n_structure",
    "cut_sets_from_path_sets",
    "system_survival",
    "system_moment_exact",
    "system_moment_approx",
    "system_moment_approx_beta",
    "system_moment_mvg",
    "system_mean_var_mvg",
    "system_moment_from_min_moments",
    "system_moment_from_max_moments",
    "exchangeable_system_moment",
]

COLLECTION_CAP = 25  # path/cut sets per family; kept while the benchmark pins 3-of-7:G as refused

TRANSVERSAL_N_CAP = 20  # cut-set derivation scans 2^n subsets


def _normalize_family(sets: Iterable[Iterable[int]], n: int, label: str) -> tuple[frozenset[int], ...]:
    fam = []
    for S in sets:
        fs = frozenset(int(i) for i in S)
        if not fs:
            raise ValidationError(f"empty {label} set")
        if not all(1 <= i <= n for i in fs):
            raise ValidationError(f"{label} set {sorted(fs)} outside 1..{n}")
        fam.append(fs)
    if not fam:
        raise ValidationError(f"{label} sets list is empty")
    if len(set(fam)) != len(fam):
        raise ValidationError(f"duplicate {label} sets")
    for A, B in combinations(fam, 2):
        if A <= B or B <= A:
            raise ValidationError(
                f"{label} sets {sorted(A)} and {sorted(B)} are nested; "
                "minimal sets form an antichain"
            )
    covered = frozenset().union(*fam)
    if len(covered) != n:
        missing = sorted(set(range(1, n + 1)) - covered)
        raise ValidationError(f"components {missing} appear in no {label} set")
    return tuple(sorted(fam, key=lambda S: (len(S), sorted(S))))


class SystemStructure:
    """Component count n plus minimal path sets and/or minimal cut sets.

    Both families are declarations: nested sets are rejected rather than
    minimized, and every component must appear in at least one set of each
    family supplied (irrelevant components have no place in a coherent
    system).
    """

    __slots__ = ("n", "path_sets", "cut_sets")

    def __init__(
        self,
        n: int,
        path_sets: Iterable[Iterable[int]] | None = None,
        cut_sets: Iterable[Iterable[int]] | None = None,
    ):
        n = int(n)
        if n < 1:
            raise ValidationError(f"n={n} must be >= 1")
        if path_sets is None and cut_sets is None:
            raise ValidationError("need path sets, cut sets, or both")
        self.n = n
        self.path_sets = None if path_sets is None else _normalize_family(path_sets, n, "path")
        self.cut_sets = None if cut_sets is None else _normalize_family(cut_sets, n, "cut")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SystemStructure)
            and (self.n, self.path_sets, self.cut_sets) == (other.n, other.path_sets, other.cut_sets)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.path_sets, self.cut_sets))

    def __repr__(self) -> str:
        parts = [f"n={self.n}"]
        if self.path_sets is not None:
            parts.append(f"path_sets={[sorted(S) for S in self.path_sets]}")
        if self.cut_sets is not None:
            parts.append(f"cut_sets={[sorted(S) for S in self.cut_sets]}")
        return f"SystemStructure({', '.join(parts)})"


def k_out_of_n_structure(n: int, k: int, kind: str = "G") -> SystemStructure:
    """k-out-of-n:G works iff >= k components work; :F fails iff >= k fail.

    T equals the order statistic X_{n-k+1:n} for :G and X_{k:n} for :F.
    """
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} outside 1..{n}")
    if kind == "G":
        path_size, cut_size = k, n - k + 1
    elif kind == "F":
        path_size, cut_size = n - k + 1, k
    else:
        raise ValidationError(f"kind must be 'G' or 'F', not {kind!r}")
    idx = range(1, n + 1)
    return SystemStructure(
        n,
        path_sets=combinations(idx, path_size),
        cut_sets=combinations(idx, cut_size),
    )


def _mask(S: frozenset[int]) -> int:
    m = 0
    for i in S:
        m |= 1 << (i - 1)
    return m


def _unmask(mask: int) -> frozenset[int]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def _up_closure(family: Sequence[frozenset[int]], n: int) -> np.ndarray:
    """Boolean table over the 2^n component subsets (bit i-1 for component i):
    entry U is True when U contains some set of the family."""
    up = np.zeros(1 << n, dtype=bool)
    up[[_mask(S) for S in family]] = True
    for b in range(n):
        halves = up.reshape(-1, 2, 1 << b)  # axis 1 is bit b of the subset
        halves[:, 1] |= halves[:, 0]
    return up


def _collection_coefficients(family: Sequence[frozenset[int]], n: int) -> dict[frozenset[int], int]:
    """Inclusion-exclusion weights: coeff[U] = sum over non-empty collections
    with union U of (-1)^(collection size + 1).

    These are the coefficients of the unique multilinear form of the
    family's indicator "U contains a set of the family", so they are its
    Mobius transform on the 2^n subset lattice (exact integer arithmetic).
    """
    s = len(family)
    if s > COLLECTION_CAP:
        raise CapacityError(f"{s} sets exceed the cap of {COLLECTION_CAP} per family")
    coeff = _up_closure(family, n).astype(np.int64)
    for b in range(n):
        halves = coeff.reshape(-1, 2, 1 << b)
        halves[:, 1] -= halves[:, 0]
    return {_unmask(int(u)): int(coeff[u]) for u in np.flatnonzero(coeff)}


def alpha_coefficients(structure: SystemStructure) -> dict[frozenset[int], int]:
    """Subset weights of the survival expansion over minima of path-set unions."""
    if structure.path_sets is None:
        raise ValidationError("structure has no path sets")
    return _collection_coefficients(structure.path_sets, structure.n)


def beta_coefficients(structure: SystemStructure) -> dict[frozenset[int], int]:
    """Subset weights of the failure expansion over maxima of cut-set unions."""
    if structure.cut_sets is None:
        raise ValidationError("structure has no cut sets")
    return _collection_coefficients(structure.cut_sets, structure.n)


def _aggregate_by_size(coeffs: Mapping[frozenset[int], int], n: int) -> tuple[int, ...]:
    vec = [0] * n
    for K, c in coeffs.items():
        vec[len(K) - 1] += c
    return tuple(vec)


def minimal_signature(structure: SystemStructure) -> tuple[int, ...]:
    """(alpha_1..alpha_n): survival as a signed mixture of minima of i components."""
    return _aggregate_by_size(alpha_coefficients(structure), structure.n)


def maximal_signature(structure: SystemStructure) -> tuple[int, ...]:
    """(beta_1..beta_n): failure as a signed mixture of maxima of i components."""
    return _aggregate_by_size(beta_coefficients(structure), structure.n)


def signature_from_samaniego(s: Sequence, n: int) -> tuple:
    """Minimal signature from a Samaniego signature (s_1..s_n).

    s_r is the probability that the system fails at the r-th component
    failure (exchangeable lifetimes).  The conversion is

        alpha_i = C(n,i) sum_{r=n-i+1}^{n} s_r (-1)^(r-1-n+i) C(i-1, n-r)

    computed in exact rational arithmetic; float inputs are snapped to the
    nearest fraction with denominator <= 10^12 first.  The formula itself
    uses only the structure, but it agrees with the path-set signature only
    under exchangeability.
    """
    if len(s) != n:
        raise ValidationError(f"signature has length {len(s)}, expected n={n}")
    vals = []
    for x in s:
        if isinstance(x, float):
            vals.append(Fraction(x).limit_denominator(10**12))
        else:
            vals.append(Fraction(x))
    if any(v < 0 or v > 1 for v in vals):
        raise ValidationError("signature entries must lie in [0, 1]")
    if sum(vals) != 1:
        raise ValidationError(f"signature sums to {float(sum(vals))}, not 1")
    alpha = []
    for i in range(1, n + 1):
        acc = Fraction(0)
        for r in range(n - i + 1, n + 1):
            acc += vals[r - 1] * (-1) ** (r - 1 - n + i) * math.comb(i - 1, n - r)
        alpha.append(math.comb(n, i) * acc)
    if all(a.denominator == 1 for a in alpha):
        return tuple(int(a) for a in alpha)
    return tuple(alpha)


@dataclass(frozen=True)
class SignatureSet:
    """All signature views of one structure; beta parts are None without cut sets."""

    alpha_subsets: Mapping[frozenset[int], int] | None
    beta_subsets: Mapping[frozenset[int], int] | None
    alpha: tuple[int, ...] | None
    beta: tuple[int, ...] | None
    samaniego: tuple | None = None


def signature_set(structure: SystemStructure, samaniego: Sequence | None = None) -> SignatureSet:
    a_sub = alpha_coefficients(structure) if structure.path_sets is not None else None
    b_sub = beta_coefficients(structure) if structure.cut_sets is not None else None
    alpha = _aggregate_by_size(a_sub, structure.n) if a_sub is not None else None
    beta = _aggregate_by_size(b_sub, structure.n) if b_sub is not None else None
    for label, vec in (("alpha", alpha), ("beta", beta)):
        if vec is not None and sum(vec) != 1:
            raise NumericError(f"{label} signature sums to {sum(vec)}, not 1")
    sam = None
    if samaniego is not None:
        # run the conversion's validation, then keep the input vector
        signature_from_samaniego(samaniego, structure.n)
        sam = tuple(samaniego)
    return SignatureSet(
        alpha_subsets=MappingProxyType(a_sub) if a_sub is not None else None,
        beta_subsets=MappingProxyType(b_sub) if b_sub is not None else None,
        alpha=alpha,
        beta=beta,
        samaniego=sam,
    )


def cut_sets_from_path_sets(n: int, path_sets: Iterable[Iterable[int]]) -> tuple[frozenset[int], ...]:
    """Minimal cut sets as minimal transversals of the path sets.

    C meets every path set exactly when its complement contains none, so the
    transversals are the complements of the subsets outside the path sets'
    up-closure; a transversal is minimal when dropping any one of its
    components leaves a non-transversal.  The tables have 2^n entries:
    fine off the hot path for n <= 20, refused beyond.
    """
    if n > TRANSVERSAL_N_CAP:
        raise CapacityError(f"transversal scan is 2^{n} subsets; cap is {TRANSVERSAL_N_CAP}")
    fam = _normalize_family(path_sets, n, "path")
    transversal = ~_up_closure(fam, n)[::-1]  # index c reads the complement of c
    minimal = transversal.copy()
    for b in range(n):
        halves, below = minimal.reshape(-1, 2, 1 << b), transversal.reshape(-1, 2, 1 << b)
        halves[:, 1] &= ~below[:, 0]
    cuts = [_unmask(int(c)) for c in np.flatnonzero(minimal)]
    return tuple(sorted(cuts, key=lambda S: (len(S), sorted(S))))


# ---------------------------------------------------------------------------
# survival and moments
# ---------------------------------------------------------------------------

def system_survival(model: JointModel, structure: SystemStructure, m: int, form: str = "auto") -> float:
    """P(T > m) by the alpha expansion, or the beta complement when asked
    (or when only cut sets are available)."""
    if model.n != structure.n:
        raise ValidationError(f"model.n={model.n} does not match structure.n={structure.n}")
    if form == "auto":
        form = "alpha" if structure.path_sets is not None else "beta"
    if m < 0:
        return 1.0
    if form == "alpha":
        coeffs = alpha_coefficients(structure)
        return float(
            math.fsum(c * rect_prob(model, (), tuple(K), m) for K, c in coeffs.items())
        )
    if form == "beta":
        coeffs = beta_coefficients(structure)
        return 1.0 - float(
            math.fsum(c * rect_prob(model, tuple(K), (), m) for K, c in coeffs.items())
        )
    raise ValidationError(f"form must be auto, alpha, or beta, not {form!r}")


def _series_moment(
    model: JointModel,
    coeffs: Mapping[frozenset[int], float],
    form: str,
    p: int,
    d: float | None = None,
    plan: TruncationPlan | None = None,
) -> MomentResult:
    """E T^p from the survival series of the signed subset expansion ``coeffs``.

    ``form`` "alpha" reads coeffs against subset minima, "beta" against
    subset maxima.  Without d the support must be finite and the series runs
    to its end (an exact result).  With d it stops at plan.M0, at the end of
    a finite support, or at the index planned for the bound d scaled by the
    positive coefficients (times 2^n - 1 for the beta form).
    """
    m_max = model.support_max()
    if plan is not None:
        m_hi = plan.M0
    elif m_max is not None:
        m_hi = m_max - 1
    else:
        scale = sum(c for c in coeffs.values() if c > 0)
        if form == "beta":
            scale *= 2**model.n - 1
        m_hi = _dominant_truncation(model, p, d / scale).M0
    value = 0.0
    if m_hi >= 0:
        subset_series = model.min_survival_series if form == "alpha" else model.max_cdf_series
        series = np.zeros(m_hi + 1)
        for K, c in coeffs.items():
            series += c * subset_series(K, m_hi)
        if form == "beta":
            series = 1.0 - series
        value = float(np.dot(_weights(p, m_hi), series))
    if d is None:
        return MomentResult(value=value, exact=True)
    return MomentResult(value=value, exact=False, M0_used=m_hi, error_bound=d)


def _check_system(model: JointModel, structure: SystemStructure, p: int):
    if model.n != structure.n:
        raise ValidationError(f"model.n={model.n} does not match structure.n={structure.n}")
    if p < 1:
        raise ValidationError(f"moment order p={p} must be >= 1")


def _check_bound(d: float):
    if not d > 0.0:
        raise ValidationError(f"error bound d={d} must be positive")


def system_moment_exact(model: JointModel, structure: SystemStructure, p: int) -> MomentResult:
    """E T^p on a finite-support model, summed to the end of the support."""
    _check_system(model, structure, p)
    if model.support_max() is None:
        raise UnsupportedModelError(
            "model has infinite support; use system_moment_approx with an error bound"
        )
    if structure.path_sets is not None:
        return _series_moment(model, alpha_coefficients(structure), "alpha", p)
    return _series_moment(model, beta_coefficients(structure), "beta", p)


def _dominant_truncation(model: JointModel, p: int, scaled_d: float) -> TruncationPlan:
    """Truncation index for the model's stochastically largest marginal.

    Poisson and shared-size negative binomial families use their closed-form
    planners; everything else searches the largest-mean marginal's tail
    moment directly.  The caller is responsible for the premise that one
    marginal dominates at every threshold (automatic in the two closed-form
    families).  Order statistics call this with d / binomial_head(n, r),
    system moments with d over their positive coefficients.
    """
    margs = model.marginals
    if margs is None:
        raise UnsupportedModelError(f"no truncation planner for {type(model).__name__}")
    if all(isinstance(m, Poisson) for m in margs):
        lams = [m.lam for m in margs]
        j0 = max(range(len(lams)), key=lambda j: (lams[j], -j)) + 1
        M0, q = poisson_truncation_index(lams[j0 - 1], p, scaled_d)
        return TruncationPlan(M0=M0, j0=j0, threshold=q)
    if all(isinstance(m, NegBin) for m in margs) and len({m.R for m in margs}) == 1:
        ps = [m.p for m in margs]
        j0 = min(range(len(ps)), key=lambda j: (ps[j], j)) + 1
        M0, q = negbin_truncation_index(margs[0].R, ps[j0 - 1], p, scaled_d)
        return TruncationPlan(M0=M0, j0=j0, threshold=q)
    j0 = max(range(len(margs)), key=lambda j: (margs[j].mean(), -j)) + 1
    dist = margs[j0 - 1]
    M0 = generic_truncation_index(lambda m: dist.tail_moment(p, m), p, scaled_d)
    return TruncationPlan(M0=M0, j0=j0, threshold=scaled_d)


def system_moment_approx(
    model: JointModel,
    structure: SystemStructure,
    p: int,
    d: float,
    plan: TruncationPlan | None = None,
) -> MomentResult:
    """Truncated E T^p via the alpha expansion; error lies in [0, d].

    The truncation index satisfies the tail condition scaled by the sum of
    positive alpha coefficients, so the dropped terms cannot exceed d.
    """
    _check_system(model, structure, p)
    _check_bound(d)
    return _series_moment(model, alpha_coefficients(structure), "alpha", p, d, plan)


def system_moment_approx_beta(
    model: JointModel,
    structure: SystemStructure,
    p: int,
    d: float,
    plan: TruncationPlan | None = None,
) -> MomentResult:
    """Truncated E T^p via the beta (cut-set) expansion.

    The complement form needs the tail condition scaled by both the positive
    beta coefficients and 2^n - 1, so its truncation index is typically
    larger than the alpha form's.
    """
    _check_system(model, structure, p)
    _check_bound(d)
    return _series_moment(model, beta_coefficients(structure), "beta", p, d, plan)


def _prefix_coefficients(signature: Sequence) -> dict[frozenset[int], float]:
    """Signature entry i on the prefix {1..i}: under exchangeability every
    subset of size i has the law of the prefix."""
    return {frozenset(range(1, i + 1)): a for i, a in enumerate(signature, start=1) if a != 0}


def system_moment_mvg(params: MvgParams, structure: SystemStructure, p: int) -> float:
    """Closed-form factorial moment E(T)_p for multivariate geometric components.

    Each subset minimum is geometric with parameter theta(K), so the alpha
    expansion turns into a finite signed sum of geometric factorial moments.
    Exchangeable parameters need only the minimal signature: theta(K) depends
    on K through its size alone.
    """
    if params.n != structure.n:
        raise ValidationError(f"params.n={params.n} does not match structure.n={structure.n}")
    if p < 1:
        raise ValidationError(f"moment order p={p} must be >= 1")
    if params.exchangeable:
        coeffs = _prefix_coefficients(minimal_signature(structure))
    else:
        coeffs = alpha_coefficients(structure)
    terms = []
    for K, c in coeffs.items():
        theta = mvg_min_param(params, K)
        if theta >= 1.0:
            raise ValidationError(f"defective minimum over {sorted(K)}: theta={theta}")
        terms.append(c * geometric_factorial_moment(theta, p))
    return float(math.fsum(terms))


def system_mean_var_mvg(params: MvgParams, structure: SystemStructure) -> tuple[float, float]:
    """(ET, Var T) from the first two closed-form factorial moments."""
    m1 = system_moment_mvg(params, structure, 1)
    m2 = system_moment_mvg(params, structure, 2)
    return m1, m2 + m1 * (1.0 - m1)


def _combine_subset_moments(
    coeffs: Mapping[frozenset[int], int],
    provider: Callable[[frozenset[int], int], float],
    p: int,
    label: str,
) -> float:
    terms = []
    for K, c in coeffs.items():
        v = provider(K, p)
        if math.isinf(v) or math.isnan(v):
            raise NumericError(f"{label} moment over {sorted(K)} is not finite: {v}")
        terms.append(c * v)
    return float(math.fsum(terms))


def system_moment_from_min_moments(
    provider: Callable[[frozenset[int], int], float],
    structure: SystemStructure,
    p: int,
) -> float:
    """alpha-weighted combination of caller-supplied subset-minimum moments.

    ``provider(K, p)`` must return E(X_{1:K}^p) (or the factorial variant;
    the output is then in the same convention).  Finiteness is required for
    every K with a non-zero coefficient.
    """
    return _combine_subset_moments(alpha_coefficients(structure), provider, p, "minimum")


def system_moment_from_max_moments(
    provider: Callable[[frozenset[int], int], float],
    structure: SystemStructure,
    p: int,
) -> float:
    """beta-weighted combination of subset-maximum moments, dual to the above."""
    return _combine_subset_moments(beta_coefficients(structure), provider, p, "maximum")


def exchangeable_system_moment(
    model: JointModel,
    signature: Sequence[float],
    p: int,
    d: float | None = None,
    form: str = "alpha",
) -> MomentResult:
    """E T^p for exchangeable components from a minimal or maximal signature.

    Under exchangeability the subset expansion collapses onto prefixes: only
    P(X_1 > m, ..., X_i > m) for i = 1..n is needed (or the <= analogue for
    the beta form).  Finite supports are summed exactly; infinite supports
    are truncated with the signature's positive part scaling the bound (the
    beta form additionally carries the 2^n - 1 factor).  The signature must
    sum to 1: exactly for integers and fractions, within 1e-12 for floats.
    """
    if not model.exchangeable:
        raise ValidationError("model is not declared exchangeable")
    if len(signature) != model.n:
        raise ValidationError(f"signature has length {len(signature)}, expected {model.n}")
    if p < 1:
        raise ValidationError(f"moment order p={p} must be >= 1")
    if form not in ("alpha", "beta"):
        raise ValidationError(f"form must be alpha or beta, not {form!r}")
    total = sum(signature)
    off = abs(total - 1) > 1e-12 if isinstance(total, float) else total != 1
    if off:
        raise ValidationError(f"signature sums to {total}, not 1")
    coeffs = _prefix_coefficients(signature)
    if model.support_max() is not None:
        return _series_moment(model, coeffs, form, p)
    if d is None:
        raise ValidationError("infinite support needs an error bound d")
    _check_bound(d)
    return _series_moment(model, coeffs, form, p, d)
