"""Coherent-system structures and lifetime moments.

A coherent system with lifetime T = max over path sets of the min component
lifetime inside the path set admits the signed expansion

    P(T > m) = sum_K alpha_K P(min over K > m)

with integer coefficients alpha_K produced by inclusion-exclusion over
collections of minimal path sets; the dual expansion over minimal cut sets
gives beta_K against maxima.  Moments follow by the survival series of
`orderstats`, exactly on finite supports, truncated with a certified error
bound otherwise, and in closed form for multivariate geometric components.

The system kind of the statistic type of `orderstats`, `_System`, reads its
survival series from the model's `JointModel.system_survival_series`, one
route per model kind: the base read sums the alpha expansion over the
non-zero alpha terms of the structure function phi, one rectangle series
each; independent components contract phi at the multilinear point (F_j(m),
1 - F_j(m)), the reliability polynomial, whose terms are all non-negative;
MVG components sum alpha_K theta(K)^(m+1) over one subset lattice.  Phi, and
so the series, is the same table from either family.  The d-scale of a
truncation is the positive alpha sum, read off phi for cut sets alone.  A
structure keeps, per object, its phi table, the non-zero alpha terms (by
mask and by subset) and the positive alpha sum, built on first use; the
coefficient maps of `alpha_coefficients` and `beta_coefficients` are
computed afresh, so the oracles, which read only the statistic's values,
never run a Mobius transform.  The beta expansion over subset maxima, with
its 2^n - 1 scale, serves only `exchangeable_system_moment`, whose
signature entries sit on prefixes (`_Expansion`).  `_statistic` turns a rank
or a structure into a statistic, and `moments`, the one entry that picks
the route to a moment (closed form or survival series), reads any model and
statistic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .distributions import JointModel
from .errors import (
    CapacityError,
    NumericError,
    UnsupportedModelError,
    ValidationError,
    _as_index_set,
    _as_int,
    _as_order,
)
from .mvg import LATTICE_N_CAP, MvgParams, _lattice, factorial_to_raw
from .orderstats import MomentResult, TruncationPlan, _check_request, _moment, _OrderStat, _require_d, _survival
# not used here; bench/test_bench.py checks that the tracer also wraps this
# second binding of a traced function
from .orderstats import poisson_truncation_index  # noqa: F401

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
    "moments",
    "system_survival",
    "system_moment_exact",
    "system_moment_approx",
    "system_factorial_moments_mvg",
    "system_moment_mvg",
    "system_mean_var_mvg",
    "exchangeable_system_moment",
]

# path/cut sets per family of `alpha_coefficients` and `beta_coefficients`;
# kept while the benchmark pins the 3-of-7:G signature as refused
COLLECTION_CAP = 25


def _normalize_family(sets: Iterable[Iterable[int]], n: int, label: str) -> tuple[frozenset[int], ...]:
    try:
        fam = [_as_index_set(S, f"{label} set", n, nonempty=True) for S in sets]
    except TypeError:
        raise ValidationError(f"{label} sets {sets!r} is not a list of index sets") from None
    if not fam:
        raise ValidationError(f"{label} sets list is empty")
    if len(set(fam)) != len(fam):
        raise ValidationError(f"duplicate {label} sets")
    fam.sort(key=lambda S: (len(S), sorted(S)))
    for A in fam:
        # distinct sets of one size are never nested: test the larger sets only
        for B in fam[bisect_right(fam, len(A), key=len) :]:
            if A < B:
                raise ValidationError(
                    f"{label} sets {sorted(A)} and {sorted(B)} are nested; "
                    "minimal sets form an antichain"
                )
    covered = frozenset().union(*fam)
    if len(covered) != n:
        missing = sorted(set(range(1, n + 1)) - covered)
        raise ValidationError(f"components {missing} appear in no {label} set")
    return tuple(fam)


class SystemStructure:
    """Component count n plus minimal path sets and/or minimal cut sets.

    Both families are declarations: nested sets are rejected rather than
    minimized, and every component must appear in at least one set of each
    family supplied (irrelevant components have no place in a coherent
    system).  When both are given and n <= LATTICE_N_CAP, the cut sets must
    be the minimal transversals of the path sets; above the cap the pair is
    taken as declared.
    """

    __slots__ = ("n", "path_sets", "cut_sets", "_tables")

    def __init__(
        self,
        n: int,
        path_sets: Iterable[Iterable[int]] | None = None,
        cut_sets: Iterable[Iterable[int]] | None = None,
    ):
        n = _as_int(n, "n", 1)
        if path_sets is None and cut_sets is None:
            raise ValidationError("need path sets, cut sets, or both")
        self.n = n
        self.path_sets = None if path_sets is None else _normalize_family(path_sets, n, "path")
        self.cut_sets = None if cut_sets is None else _normalize_family(cut_sets, n, "cut")
        if self.path_sets is not None and self.cut_sets is not None and n <= LATTICE_N_CAP:
            if _minimal_transversals(self.path_sets, n) != self.cut_sets:
                raise ValidationError("cut sets are not the minimal transversals of the path sets")
        self._tables: dict = {}  # filled on first use by the reads below

    def _table(self, key, build):
        """The object's table ``key``, built on first use; a structure is
        never mutated after construction."""
        tables = self._tables
        if key not in tables:
            tables[key] = build()
        return tables[key]

    def _phi(self) -> np.ndarray:
        """The structure function over the 2^n working sets (bit i-1 for
        component i working), read-only: U works when it contains a path
        set, or, from cut sets alone, when it meets every cut set."""
        def build():
            if self.path_sets is not None:
                phi = _up_closure(self.path_sets, self.n)
            else:
                phi = ~_up_closure(self.cut_sets, self.n)[::-1]  # the failed set, U's complement, holds no cut set
            phi.flags.writeable = False
            return phi
        return self._table("phi", build)

    def _alpha_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The non-zero alpha coefficients as (masks, coefficients), the
        Mobius transform of ``_phi``, which either family gives."""
        def build():
            coeff = _mobius(self._phi().astype(np.int64))
            masks = np.flatnonzero(coeff)
            return masks, coeff[masks]
        return self._table("alpha", build)

    def _alpha_subsets(self) -> dict[frozenset[int], int]:
        """``_alpha_terms`` keyed by component subset, as `alpha_coefficients`
        gives them for path sets, in the same order."""
        def build():
            masks, coeffs = self._alpha_terms()
            return dict(zip(map(_unmask, masks.tolist()), coeffs.tolist()))
        return self._table("alpha subsets", build)

    def _positive_sum(self) -> int:
        """The sum of the positive alpha coefficients, the d-scale of a system
        series: from `alpha_coefficients`, and so under its cap, with path
        sets, else from phi's alpha terms."""
        def build():
            if self.path_sets is not None:
                return sum(c for c in alpha_coefficients(self).values() if c > 0)
            coeffs = self._alpha_terms()[1]
            return int(coeffs[coeffs > 0].sum())
        return self._table("positive", build)

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
    n, k = _as_int(n, "n"), _as_int(k, "k")
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
    """The components of a bit mask (bit i-1 for component i), visiting the
    set bits only, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return frozenset(out)


def _up_closure(family: Sequence[frozenset[int]], n: int) -> np.ndarray:
    """Boolean table over the 2^n component subsets (bit i-1 for component i):
    entry U is True when U contains some set of the family."""
    if n > LATTICE_N_CAP:
        raise CapacityError(f"the component lattice has 2^{n} subsets; cap is n = {LATTICE_N_CAP}")
    up = np.zeros(1 << n, dtype=bool)
    up[[_mask(S) for S in family]] = True
    for b in range(n):
        halves = up.reshape(-1, 2, 1 << b)  # axis 1 is bit b of the subset
        halves[:, 1] |= halves[:, 0]
    return up


def _collection_coefficients(structure: SystemStructure, form: str) -> np.ndarray:
    """Inclusion-exclusion weights of the path sets ("alpha") or the cut sets
    ("beta") over the 2^n component subsets (bit i-1 for component i):
    coeff[U] = sum over non-empty collections with union U of
    (-1)^(collection size + 1).

    These are the coefficients of the unique multilinear form of the
    family's indicator "U contains a set of the family", so they are its
    Mobius transform on the 2^n subset lattice (exact integer arithmetic).
    The indicator is read off the structure function: for path sets it is
    phi itself, for cut sets (U the failed components) the complement of
    phi at U's complement.
    """
    family = structure.path_sets if form == "alpha" else structure.cut_sets
    if family is None:
        raise ValidationError(f"structure has no {'path' if form == 'alpha' else 'cut'} sets")
    if len(family) > COLLECTION_CAP:
        raise CapacityError(f"{len(family)} sets exceed the cap of {COLLECTION_CAP} per family")
    phi = structure._phi()
    return _mobius((phi if form == "alpha" else ~phi[::-1]).astype(np.int64))


def _mobius(table: np.ndarray) -> np.ndarray:
    """The Mobius transform, in place, of an integer table over the subsets
    of log2(len) components: entry U becomes the sum over V <= U of
    (-1)^|U - V| table[V]."""
    for b in range(len(table).bit_length() - 1):
        halves = table.reshape(-1, 2, 1 << b)
        halves[:, 1] -= halves[:, 0]
    return table


def _subset_coefficients(structure: SystemStructure, form: str) -> dict[frozenset[int], int]:
    coeff = _collection_coefficients(structure, form)
    nonzero = np.flatnonzero(coeff)
    return dict(zip(map(_unmask, nonzero.tolist()), coeff[nonzero].tolist()))


def alpha_coefficients(structure: SystemStructure) -> dict[frozenset[int], int]:
    """Subset weights of the survival expansion over minima of path-set unions."""
    return _subset_coefficients(structure, "alpha")


def beta_coefficients(structure: SystemStructure) -> dict[frozenset[int], int]:
    """Subset weights of the failure expansion over maxima of cut-set unions."""
    return _subset_coefficients(structure, "beta")


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


def _check_finite(signature: Sequence) -> None:
    """Refuse a NaN or infinite float entry, which a sum check lets through."""
    bad = [x for x in signature if isinstance(x, (float, np.floating)) and not math.isfinite(x)]
    if bad:
        raise ValidationError(f"signature entries must be finite, not {bad[0]}")


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
    _check_finite(s)
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
    components leaves a non-transversal.  The tables have 2^n entries, so n
    above LATTICE_N_CAP is refused.
    """
    return _minimal_transversals(_normalize_family(path_sets, n, "path"), n)


def _minimal_transversals(fam: Sequence[frozenset[int]], n: int) -> tuple[frozenset[int], ...]:
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

class _System:
    """T of the coherent system ``structure``: its survival series is the
    model kind's route (`JointModel.system_survival_series`), its d-scale
    the positive alpha sum."""

    def __init__(self, model: JointModel, structure: SystemStructure):
        if model.n != structure.n:
            raise ValidationError(f"model.n={model.n} does not match structure.n={structure.n}")
        self.n, self.structure = model.n, structure

    @property
    def scale(self) -> int:
        return self.structure._positive_sum()

    def series(self, model: JointModel, m_hi: int, m_lo: int = 0) -> np.ndarray:
        return model.system_survival_series(self.structure, m_hi, m_lo)

    def values(self, cols: np.ndarray) -> np.ndarray:
        """T at each of N points given coordinate-major, ``cols`` an (n, N)
        array or a list of n rows: the max over path sets of the in-set
        minimum, else the min over cut sets of the in-set maximum, reduced
        along coordinate rows."""
        s = self.structure
        if s.path_sets is not None:
            return _reduce_rows(cols, s.path_sets, np.maximum, np.minimum)
        return _reduce_rows(cols, s.cut_sets, np.minimum, np.maximum)

    def mvg_factorial_moments(self, params: MvgParams, p: int) -> tuple[float, ...]:
        return system_factorial_moments_mvg(params, self.structure, p)


class _Expansion:
    """T of a system as a signed expansion with weights ``coeffs`` on
    component subsets: "alpha" expands P(T > m) over subset minima, "beta"
    P(T <= m) over subset maxima, its d-scale carrying a 2^n - 1 factor
    besides the positive weights."""

    def __init__(self, n: int, coeffs: Mapping[frozenset[int], float], form: str):
        if form not in ("alpha", "beta"):
            raise ValidationError(f"form must be alpha or beta, not {form!r}")
        self.n, self.coeffs, self.form = n, coeffs, form

    @property
    def scale(self):
        scale = sum(c for c in self.coeffs.values() if c > 0)
        return scale * (2**self.n - 1) if self.form == "beta" else scale

    def series(self, model: JointModel, m_hi: int, m_lo: int = 0) -> np.ndarray:
        return model._expansion_series(self.coeffs, self.form, m_hi, m_lo)


_ROW_BLOCK = 1 << 14  # points per block of _reduce_rows: its working rows stay in cache


def _reduce_rows(cols: np.ndarray, sets, outer: np.ufunc, inner: np.ufunc) -> np.ndarray:
    """outer over ``sets`` of inner over each set's rows of ``cols``.  Runs
    a block of points at a time, folding in place into the result and one
    scratch block; ``cols`` is only read."""
    sets = [[i - 1 for i in sorted(S)] for S in sets]
    out = np.empty_like(cols[0])
    scratch = np.empty_like(out[:_ROW_BLOCK])
    for lo in range(0, out.size, _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        res = out[block]
        for k, members in enumerate(sets):
            first, *rest = [cols[i][block] for i in members]
            term = first
            if rest:
                term = scratch[: res.size] if k else res
                inner(first, rest[0], out=term)
                for row in rest[1:]:
                    inner(term, row, out=term)
            if k:
                outer(res, term, out=res)
            elif term is not res:
                np.copyto(res, term)
    return out


def _statistic(model: JointModel, statistic) -> _OrderStat | _System:
    """The statistic kind of a rank or a `SystemStructure`, checked against the model."""
    if isinstance(statistic, SystemStructure):
        return _System(model, statistic)
    return _OrderStat(model, statistic, model.n)


def moments(
    model: JointModel, statistic, orders: Sequence[int], d: float | None | Sequence[float | None] = None
) -> tuple[MomentResult, ...]:
    """E T^p for each p of ``orders``, T the order statistic of a rank or the
    lifetime of a `SystemStructure`; ``d`` is one error bound for every
    order, or one per order.

    Every order and bound is checked first.  A model kind with a closed
    form gives the factorial moments 1..max(orders) once, converted to raw
    moments.  Otherwise each order sums the survival series: to the end of
    a finite support, where its bound is ignored, or on an infinite support
    up to the cutoff planned for its bound, which it needs.
    """
    stat = _statistic(model, statistic)
    orders = tuple(orders)
    if not orders:
        raise ValidationError("orders names no moment")
    bounds = (d,) * len(orders) if np.ndim(d) == 0 else tuple(d)
    if len(bounds) != len(orders):
        raise ValidationError(f"d gives {len(bounds)} bounds for {len(orders)} orders")
    for p, dp in zip(orders, bounds):
        _check_request(p, dp)
    factorials = model.factorial_moments(stat, max(orders))
    if factorials is not None:
        raws = factorial_to_raw(factorials)
        return tuple(MomentResult(raws[p - 1], exact=False) for p in orders)
    if model.support_max() is not None:
        bounds = (None,) * len(orders)
    elif None in bounds:
        raise ValidationError(f"p={orders[bounds.index(None)]}: infinite support needs an error bound d")
    return tuple(_moment(model, stat, p, dp) for p, dp in zip(orders, bounds))


def system_survival(model: JointModel, structure: SystemStructure, m: int) -> float:
    """P(T > m) for a threshold m >= -1, by the model kind's route."""
    return _survival(model, _System(model, structure), m)


def system_moment_exact(model: JointModel, structure: SystemStructure, p: int) -> MomentResult:
    """E T^p on a finite-support model, summed to the end of the support."""
    if model.support_max() is None:
        raise UnsupportedModelError(
            "model has infinite support; use system_moment_approx with an error bound"
        )
    return _moment(model, _System(model, structure), p)


def system_moment_approx(
    model: JointModel,
    structure: SystemStructure,
    p: int,
    d: float,
    plan: TruncationPlan | None = None,
) -> MomentResult:
    """Truncated E T^p of a structure; error lies in [0, d].

    The survival series takes the model kind's route.  The truncation index
    satisfies the tail condition scaled by the sum of positive alpha
    coefficients, so the dropped terms cannot exceed d.
    """
    return _moment(model, _System(model, structure), p, _require_d(d), plan)


def system_factorial_moments_mvg(params: MvgParams, structure: SystemStructure, p: int) -> tuple[float, ...]:
    """Closed-form factorial moments (E(T)_1, ..., E(T)_p) for multivariate
    geometric components.

    Each subset minimum is geometric, so the alpha expansion is a signed sum
    of q! g(theta(K))^q, g = theta/(1-theta), over the subsets K with a
    non-zero coefficient of phi, from either family, theta(K) read from the
    lattice of the parameters.
    """
    if params.n != structure.n:
        raise ValidationError(f"params.n={params.n} does not match structure.n={structure.n}")
    p = _as_order(p)
    masks, coeff = structure._alpha_terms()
    thetas = _lattice(params, range(1, params.n + 1))[masks]
    if (defective := np.flatnonzero(thetas >= 1.0)).size:
        K, theta = _unmask(int(masks[defective[0]])), thetas[defective[0]]
        raise ValidationError(f"defective minimum over {sorted(K)}: theta={theta}")
    g = thetas / (1.0 - thetas)
    # np.float_power calls the C library's pow, as a float ** does; at q = 1
    # pow returns g itself, and so does 1! * g
    return tuple(math.fsum(memoryview(coeff * (g if q == 1 else math.factorial(q) * np.float_power(g, q))))
                 for q in range(1, p + 1))


def system_moment_mvg(params: MvgParams, structure: SystemStructure, p: int) -> float:
    """Closed-form factorial moment E(T)_p, the last of `system_factorial_moments_mvg`."""
    return system_factorial_moments_mvg(params, structure, p)[-1]


def system_mean_var_mvg(params: MvgParams, structure: SystemStructure) -> tuple[float, float]:
    """(ET, Var T) from the first two closed-form factorial moments."""
    m1, m2 = system_factorial_moments_mvg(params, structure, 2)
    return m1, m2 + m1 * (1.0 - m1)


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
    _check_finite(signature)
    total = sum(signature)
    off = abs(total - 1) > 1e-12 if isinstance(total, float) else total != 1
    if off:
        raise ValidationError(f"signature sums to {total}, not 1")
    d = None if model.support_max() is not None else _require_d(d)
    # every subset of size i has the law of the prefix {1..i}
    prefixes = {frozenset(range(1, i + 1)): a for i, a in enumerate(signature, start=1) if a != 0}
    return _moment(model, _Expansion(model.n, prefixes, form), p, d)
