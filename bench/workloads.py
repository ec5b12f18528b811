"""The four benchmark workloads: what one pass runs and how each op is checked.

A workload is a list of items.  An item builds one model, structure or
config inside the pass (a CLI user pays model construction on every table,
so nothing carries across passes) and then runs its ops.  An op is one
public call that returns a value: a moment, a mean/var pair, a signature or
one CLI invocation.  Every op carries a check that runs after timing and
compares the op's output with the golden tables of ``tests/test_acceptance.py``
or with an independent reference from ``reference.py``.

The paper tables are fixed.  The seed generates only the parts named
"seeded" below: parameters are jittered by at most 10% around fixed centres,
so every seed exercises the same regimes with nearly the same work.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

import lifemoments as lm
import lifemoments.cli
import conftest as fixtures
import reference as ref
import test_acceptance as golden

WORKLOADS = ("multinomial_table", "truncated_tables", "mvg_systems", "cli_oracle")

GOLDEN_TOL = 1e-3  # the acceptance tables are printed to three decimals
REFERENCE_TOL = 1e-6  # relative, for ops checked against an exact reference
CANCELLATION_TOL = 1e-9  # absolute, for the IID-geometric cancellation ops
# relative slack on each side of a realized-error window [0, d]: covers float
# rounding in the value and the reference, and stays far below d even for
# moments near 1e6 (d = 1e-3 there is 1e-9 relative)
ROUNDING_SLACK = 1e-11
MC_SIGMAS = 5.0  # Monte Carlo estimates must land within this many standard errors

BRIDGE_PATHS = [sorted(S) for S in golden.BRIDGE_PATHS]
BRIDGE_CUTS = [sorted(S) for S in fixtures.BRIDGE_CUTS]

# Ops that fail at the baseline, each for a defect that the ROADMAP names.
# An op failure is "known" when its name starts with one of these prefixes
# and it fails in the stated way; every other failure makes the run
# incorrect.  The failures still count in fail_frac.
KNOWN_DEFECTS = (
    ("negbin_small_R/", "bound", "NegBin closed-form planner is not a certificate for small R"),
    ("mixed_pair/", "bound", "mixed-family planner picks j0 by mean, not by tail"),
    ("mixed5/", "bound", "mixed-family planner picks j0 by mean, not by tail"),
    ("cli/orderstat_mixed", "bound", "mixed-family planner picks j0 by mean, not by tail"),
    ("iid_geometric/n30", "reference", "MVG closed form loses digits to cancellation"),
    ("iid_geometric/n40", "reference", "MVG closed form loses digits to cancellation"),
    ("iid_geometric/n60", "reference", "MVG closed form loses digits to cancellation"),
    ("kofn/3of7G/", "raised", "35 path sets exceed COLLECTION_CAP"),
)


def known_defect(op_name: str, kind: str) -> str | None:
    for prefix, want, why in KNOWN_DEFECTS:
        if op_name.startswith(prefix) and kind == want:
            return why
    return None


# ---------------------------------------------------------------------------
# ops and verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    ok: bool
    kind: str = ""  # golden | bound | reference | property | raised | exit
    reason: str = ""
    err_over_d: float | None = None  # realized truncation error / d, for truncated ops


@dataclass(frozen=True)
class Raised:
    """The value of an op that raised a library error."""

    error: str


@dataclass
class Op:
    name: str
    run: Callable[[Any], Any]  # item context -> value
    check: Callable[[Any, dict], Verdict]  # (value, all values of the pass) -> verdict
    closed_form: bool = False  # an MVG closed form; counted by mvg.closed_form_wrong


@dataclass
class Item:
    name: str
    build: Callable[[], Any]
    ops: list[Op]


OK = Verdict(True)


def _worst(verdicts) -> Verdict:
    """The first failing verdict, keeping the largest realized error seen."""
    verdicts = list(verdicts)
    errs = [v.err_over_d for v in verdicts if v.err_over_d is not None]
    worst = max(errs, key=abs) if errs else None
    bad = next((v for v in verdicts if not v.ok), None)
    if bad is None:
        return Verdict(True, err_over_d=worst)
    return Verdict(False, bad.kind, bad.reason, worst)


def near_golden(got: float, want: float, label: str) -> Verdict:
    if abs(got - want) <= GOLDEN_TOL:
        return OK
    return Verdict(False, "golden", f"{label}={got!r}, golden {want}")


def within_bound(got: float, truth: float, d: float, label: str) -> Verdict:
    err = truth - got
    slack = ROUNDING_SLACK * max(1.0, abs(truth))
    ok = -slack <= err <= d + slack
    reason = "" if ok else f"{label}: realized error {err:.3g} = {err / d:.3g} d outside [0, d]"
    return Verdict(ok, "bound", reason, err / d)


def near_reference(got: float, truth: float, label: str, tol: float = REFERENCE_TOL, relative: bool = True) -> Verdict:
    scale = max(1.0, abs(truth)) if relative else 1.0
    if abs(got - truth) <= tol * scale:
        return OK
    return Verdict(False, "reference", f"{label}={got!r}, reference {truth!r}")


def check_value(fn: Callable[[Any], Verdict]) -> Callable[[Any, dict], Verdict]:
    """Adapt a check of the value alone; library errors fail as 'raised'."""

    def check(value, _outputs):
        if isinstance(value, Raised):
            return Verdict(False, "raised", value.error)
        return fn(value)

    return check


def lazy(fn: Callable[[], Any]) -> Callable[[], Any]:
    """Compute a reference once, on first use after timing."""
    return functools.cache(fn)


def jitter(rng: np.random.Generator, x: float, rel: float = 0.1) -> float:
    return float(x * rng.uniform(1.0 - rel, 1.0 + rel))


def moment_pair(mean_var) -> tuple[float, float]:
    mean, var = mean_var
    return float(mean), float(var)


def mean_var_from_raw(m1: float, m2: float) -> tuple[float, float]:
    return m1, m2 - m1 * m1


# ---------------------------------------------------------------------------
# multinomial_table: criterion 1, exact series on one explicit pmf
# ---------------------------------------------------------------------------

def multinomial_table(rng, workdir) -> list[Item]:
    ops = []
    for r in range(1, 11):
        for p in (1, 2):
            want = (golden.MULT_MEANS if p == 1 else golden.MULT_M2)[r - 1]
            ops.append(Op(
                f"c1/r{r}/p{p}",
                lambda model, r=r, p=p: lm.exact_moment_finite(model, lm.MomentRequest(r=r, n=10, p=p)).value,
                _multinomial_check(p, want),
            ))
    return [Item("multinomial(20, 0.1 x 10)", lambda: lm.multinomial_pmf(20, [0.1] * 10), ops)]


# sum over ranks of E X_{r:n}^p equals sum over cells of E X_i^p:
# 10 * 2 = 20 for p = 1 and 10 * (1.8 + 4) = 58 for p = 2.  The library sums
# ~10^7 support weights in double precision, which carries up to ~1e-9
# relative rounding, so the identity is checked to that relative tolerance.
_MULT_RANK_SUMS = {1: 20.0, 2: 58.0}
_MULT_IDENTITY_TOL = 1e-9


def _multinomial_check(p: int, want: float):
    def check(value, outputs):
        if isinstance(value, Raised):
            return Verdict(False, "raised", value.error)
        total = math.fsum(
            v for name, v in outputs.items() if name.endswith(f"/p{p}") and not isinstance(v, Raised)
        )
        identity = near_reference(total, _MULT_RANK_SUMS[p], f"sum over ranks p={p}", _MULT_IDENTITY_TOL)
        identity = identity if identity.ok else Verdict(False, "property", identity.reason)
        return _worst([near_golden(value, want, "value"), identity])

    return check


# ---------------------------------------------------------------------------
# truncated_tables: criteria 2-3, bridge Poisson, small-R NegBin, mixed families
# ---------------------------------------------------------------------------

def _planned(model, plan_fn, r, n, p, d):
    req = lm.MomentRequest(r=r, n=n, p=p, d=d)
    plan = plan_fn(req)
    return plan.M0, lm.approx_moment(model, req, plan).value


def _table_check(want: float, want_m0: int, truth: Callable[[], float], d: float):
    def fn(value):
        M0, got = value
        m0 = OK if M0 == want_m0 else Verdict(False, "golden", f"M0={M0}, golden {want_m0}")
        return _worst([m0, near_golden(got, want, "value"), within_bound(got, truth(), d, "value")])

    return check_value(fn)


@functools.cache
def _orderstat_moments(specs: tuple, p: int) -> list[float]:
    return ref.orderstat_moments([ref.scipy_marginal(*s) for s in specs], p)


def _orderstat_truth(specs, r, p):
    specs = tuple(specs)
    return lambda: _orderstat_moments(specs, p)[r - 1]


def _system_truth(specs, path_sets, p):
    return lazy(lambda: ref.system_moment_independent([ref.scipy_marginal(*s) for s in specs], path_sets, p))


_FAMILIES = {"poisson": lm.Poisson, "negbin": lm.NegBin, "geometric": lm.Geometric}


def _independent(specs):
    return lm.IndependentMarginals([_FAMILIES[s[0]](*s[1:]) for s in specs])


def _paper_rows():
    d = 0.0005
    items = []
    for label, rows, means, means_m0, m2, m2_m0 in (
        ("c2", [(None, [float(x) for x in lams]) for lams in golden.POIS_ROWS],
         golden.POIS_MEANS, golden.POIS_MEANS_M0, golden.POIS_M2, golden.POIS_M2_M0),
        ("c3", [(R, list(ps)) for R, ps in golden.NB_ROWS],
         golden.NB_MEANS, golden.NB_MEANS_M0, golden.NB_M2, golden.NB_M2_M0),
    ):
        for ri, (R, params) in enumerate(rows):
            specs = [("poisson", x) if R is None else ("negbin", R, x) for x in params]
            if R is None:
                plan_fn = lambda req, params=params: lm.plan_poisson(params, req)
            else:
                plan_fn = lambda req, R=R, params=params: lm.plan_negbin(R, params, req)
            ops = []
            for p, vals, m0s in ((1, means, means_m0), (2, m2, m2_m0)):
                for r in range(1, 11):
                    ops.append(Op(
                        f"{label}/row{ri + 1}/p{p}/r{r}",
                        lambda model, r=r, p=p, plan_fn=plan_fn: _planned(model, plan_fn, r, 10, p, d),
                        _table_check(vals[ri][r - 1], m0s[ri][r - 1], _orderstat_truth(specs, r, p), d),
                    ))
            items.append(Item(f"{label} row {ri + 1}", lambda specs=specs: _independent(specs), ops))
    return items


def _system_planned(model, structure, p, d):
    res = lm.system_moment_approx(model, structure, p, d)
    return res.M0_used, res.value


def _bridge_poisson_rows():
    d = 0.0005
    items = []
    for ri, (lams, et, m0a, et2, m0b) in enumerate(golden.BRIDGE_POISSON):
        specs = [("poisson", float(x)) for x in lams]
        ops = []
        for p, want, want_m0 in ((1, et, m0a), (2, et2, m0b)):
            ops.append(Op(
                f"bridge_poisson/row{ri + 1}/p{p}",
                lambda ctx, p=p: _system_planned(*ctx, p, d),
                _table_check(want, want_m0, _system_truth(specs, BRIDGE_PATHS, p), d),
            ))
        items.append(Item(
            f"bridge Poisson row {ri + 1}",
            lambda specs=specs: (_independent(specs), lm.SystemStructure(5, path_sets=BRIDGE_PATHS)),
            ops,
        ))
    return items


def _negbin_small_r():
    d = 1e-3
    items = []
    for R in (0.3, 1.0, 3.0):
        for p0 in (0.05, 0.2, 0.5):
            for r, n in ((1, 1), (3, 5), (5, 5)):
                specs = [("negbin", R, p0)] * n
                ops = []
                for p in (1, 2, 3):
                    truth = _orderstat_truth(specs, r, p)
                    ops.append(Op(
                        f"negbin_small_R/R{R}/p0{p0}/r{r}n{n}/p{p}",
                        lambda model, r=r, n=n, p=p, R=R, p0=p0: _planned(
                            model, lambda req: lm.plan_negbin(R, [p0] * n, req), r, n, p, d)[1],
                        check_value(lambda v, truth=truth: within_bound(v, truth(), d, "value")),
                    ))
                items.append(Item(f"NegBin({R}, {p0}) x {n}", lambda specs=specs: _independent(specs), ops))
    return items


def _system_item(prefix: str, specs, structures: dict, d: float) -> Item:
    n = len(specs)
    ops = []
    for sname, paths in structures.items():
        for p in (1, 2):
            truth = _system_truth(specs, paths, p)
            ops.append(Op(
                f"{prefix}/{sname}/p{p}",
                lambda ctx, sname=sname, p=p: lm.system_moment_approx(ctx[0], ctx[1][sname], p, d).value,
                check_value(lambda v, truth=truth: within_bound(v, truth(), d, "value")),
            ))
    return Item(
        prefix,
        lambda: (_independent(specs), {k: lm.SystemStructure(n, path_sets=v) for k, v in structures.items()}),
        ops,
    )


_MIXED_PATTERN = ("poisson", "negbin", "geometric", "poisson", "negbin")


def mixed_specs(rng, k: int):
    """Seeded model k of eight: a rotated family pattern, jittered parameters.

    Centres move with k so the eight models span light and heavy tails; the
    means alone do not order the tails, which is the case the mixed-family
    planner gets wrong.
    """
    fams = _MIXED_PATTERN[k % 5:] + _MIXED_PATTERN[: k % 5]
    specs = []
    for fam in fams:
        if fam == "poisson":
            specs.append((fam, jitter(rng, 1.0 + 0.5 * k)))
        elif fam == "negbin":
            specs.append((fam, jitter(rng, 1.0 + 0.5 * (k % 4)), jitter(rng, 0.3 + 0.05 * k)))
        else:
            specs.append((fam, jitter(rng, 0.15 + 0.05 * k)))
    return specs


def five_component_structures() -> dict:
    return {
        "series": [[1, 2, 3, 4, 5]],
        "parallel": [[i] for i in range(1, 6)],
        "3of5G": [list(c) for c in combinations(range(1, 6), 3)],
        "bridge": BRIDGE_PATHS,
    }


def truncated_tables(rng, workdir) -> list[Item]:
    items = _paper_rows() + _bridge_poisson_rows() + _negbin_small_r()
    pair = [("poisson", 3.0), ("negbin", 1.0, 0.3)]
    items.append(_system_item("mixed_pair", pair, {"parallel": [[1], [2]]}, 1e-4))
    for k in range(8):
        items.append(_system_item(f"mixed5/m{k + 1}", mixed_specs(rng, k), five_component_structures(), 1e-4))
    return items


# ---------------------------------------------------------------------------
# mvg_systems: criterion 4, bridge MVG, sweep, ring MVG, IID geometric, signatures
# ---------------------------------------------------------------------------

def ring_params(rng, n: int):
    """Seeded MVG: n singleton shocks plus n pair shocks around a random ring."""
    order = [int(i) + 1 for i in rng.permutation(n)]
    singles = [1.0 - jitter(rng, 0.15) for _ in range(n)]
    pairs = [1.0 - jitter(rng, 0.05) for _ in range(n)]
    theta = {frozenset([i + 1]): singles[i] for i in range(n)}
    for k in range(n):
        theta[frozenset([order[k], order[(k + 1) % n]])] = pairs[k]
    return theta, (n, singles, pairs, order)


def _mean_var_check(want_mean: float, want_var: float):
    return check_value(lambda v: _worst([near_golden(v[0], want_mean, "mean"), near_golden(v[1], want_var, "var")]))


def _mean_var_reference(truth: Callable[[], tuple[float, float]], tol=REFERENCE_TOL, relative=True):
    def fn(v):
        m, s = truth()
        return _worst([
            near_reference(v[0], m, "mean", tol, relative),
            near_reference(v[1], s, "var", tol, relative),
        ])

    return check_value(fn)


def _mean_var_op(name: str, r: int, n: int, check) -> Op:
    """mvg_orderstat_mean_var on the item's params."""
    return Op(name, lambda params: moment_pair(lm.mvg_orderstat_mean_var(params, r, n)), check, closed_form=True)


def _criterion4():
    items = []
    rows = [(f"general{i + 1}", dict(theta=t), golden.MVG_GENERAL_MEANS[i], golden.MVG_GENERAL_VARS[i])
            for i, t in enumerate(golden._mvg_general_rows())]
    rows += [(f"exch{i + 1}", dict(exchangeable_levels=golden._levels_vector(lv)), golden.MVG_EXCH_MEANS[i],
              golden.MVG_EXCH_VARS[i]) for i, lv in enumerate(golden.MVG_EXCH_ROWS)]
    for label, kwargs, means, varis in rows:
        ops = [_mean_var_op(f"c4/{label}/r{r}", r, 10, _mean_var_check(means[r - 1], varis[r - 1]))
               for r in range(1, 11)]
        items.append(Item(f"criterion 4 {label}", lambda kwargs=kwargs: lm.MvgParams(10, **kwargs), ops))
    return items


def _bridge_mvg():
    items = []
    for setting, et, var in golden.BRIDGE_MVG:
        op = Op(
            f"bridge_mvg/setting{setting}",
            lambda ctx: moment_pair(lm.system_mean_var_mvg(*ctx)),
            _mean_var_check(et, var),
            closed_form=True,
        )
        items.append(Item(
            f"bridge MVG setting {setting}",
            lambda setting=setting: (lm.MvgParams(5, theta=golden._bridge_theta(setting)),
                                     lm.SystemStructure(5, path_sets=BRIDGE_PATHS)),
            [op],
        ))
    return items


def _geometric_sweep():
    items = []
    grid = [float(pi) for pi in np.linspace(0.005, 0.245, 50)]
    for i, pi in enumerate(grid):
        truth = _system_truth([("geometric", pi)] * 5, BRIDGE_PATHS, 1)
        prev = f"sweep_geometric/i{i - 1}" if i else None
        items.append(Item(
            f"geometric sweep pi={pi:.4f}",
            lambda pi=pi: (lm.MvgParams(5, theta={frozenset([j]): 1.0 - pi for j in range(1, 6)}),
                           lm.SystemStructure(5, path_sets=BRIDGE_PATHS)),
            [Op(f"sweep_geometric/i{i}", lambda ctx: lm.system_moment_mvg(ctx[0], ctx[1], 1),
                _decreasing_check(truth, prev), closed_form=True)],
        ))
    return items


def _decreasing_check(truth, prev: str | None):
    def check(value, outputs):
        if isinstance(value, Raised):
            return Verdict(False, "raised", value.error)
        before = outputs.get(prev)
        order = OK
        if prev is not None and not (isinstance(before, float) and before > value):
            order = Verdict(False, "property", f"not below the previous point {before!r}")
        return _worst([near_reference(value, truth(), "ET"), order])

    return check


def _ring_items(rng):
    items = []
    theta16, ring16 = ring_params(rng, 16)
    ops = []
    for r in (8, 16):
        truth = lazy(lambda r=r: mean_var_from_raw(*ref.ring_orderstat_moments(*ring16, r, 2)))
        ops.append(_mean_var_op(f"ring16/r{r}", r, 16, _mean_var_reference(truth)))
    items.append(Item("ring MVG n=16", lambda: lm.MvgParams(16, theta=theta16), ops))

    theta12, ring12 = ring_params(rng, 12)
    d = 1e-4
    truth = lazy(lambda: ref.ring_orderstat_moments(*ring12, 6, 1)[0])
    op = Op("ring12_truncated/p1", lambda model: _ring_truncated(model, 1, d),
            check_value(lambda v: within_bound(v, truth(), d, "value")))
    items.append(Item("ring MVG n=12, truncated", lambda: lm.MvgModel(lm.MvgParams(12, theta=theta12)), [op]))
    return items


def _ring_truncated(model, p: int, d: float) -> float:
    """r=6 of 12 through plan_generic on the slowest geometric marginal."""
    thetas = [lm.mvg_min_param(model.params, [i]) for i in range(1, model.n + 1)]
    j0 = max(range(model.n), key=lambda j: thetas[j]) + 1
    slowest = lm.Geometric(1.0 - thetas[j0 - 1])
    req = lm.MomentRequest(r=6, n=model.n, p=p, d=d)
    plan = lm.plan_generic(lambda m: slowest.tail_moment(p, m), req, j0)
    return lm.approx_moment(model, req, plan).value


def _iid_geometric():
    items = []
    for n in (20, 30, 40, 60):
        r = n // 2
        levels = [0.7] + [1.0] * (n - 1)
        truth = lazy(lambda n=n, r=r: mean_var_from_raw(*ref.iid_geometric_orderstat(n, 0.3, r, 2)))
        check = _mean_var_reference(truth, CANCELLATION_TOL, relative=False)
        build = lambda n=n, levels=levels: lm.MvgParams(n, exchangeable_levels=levels)
        items.append(Item(f"IID geometric n={n}", build, [_mean_var_op(f"iid_geometric/n{n}", r, n, check)]))
    return items


def _signature_items(rng):
    items = []
    cases = [("bridge", 5, BRIDGE_PATHS, BRIDGE_CUTS)]
    for k, n in ((3, 6), (2, 7), (3, 7)):
        cases.append((f"{k}of{n}G", n, [list(c) for c in combinations(range(1, n + 1), k)], None))
    for label, n, paths, cuts in cases:
        theta, _ = ring_params(rng, n)
        sig_truth = lazy(lambda n=n, paths=paths: ref.signatures(n, paths))
        mv_truth = lazy(lambda n=n, theta=theta, paths=paths: mean_var_from_raw(
            *ref.mvg_system_moments(n, theta, paths, 2)))
        if cuts is None:
            build = lambda n=n, k=len(paths[0]), theta=theta: (
                lm.k_out_of_n_structure(n, k, "G"), lm.MvgParams(n, theta=theta))
        else:
            build = lambda n=n, theta=theta: (
                lm.SystemStructure(n, path_sets=BRIDGE_PATHS, cut_sets=BRIDGE_CUTS), lm.MvgParams(n, theta=theta))
        ops = [
            Op(f"kofn/{label}/signature", lambda ctx: _signature_pair(lm.signature_set(ctx[0])),
               check_value(lambda v, t=sig_truth: _signature_verdict(v, t()))),
            Op(f"kofn/{label}/mvg_mean_var", lambda ctx: moment_pair(lm.system_mean_var_mvg(ctx[1], ctx[0])),
               _mean_var_reference(mv_truth), closed_form=True),
        ]
        items.append(Item(f"structure {label}", build, ops))
    return items


def _signature_pair(sig) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(sig.alpha), tuple(sig.beta)


def _signature_verdict(got, want) -> Verdict:
    if tuple(got) == tuple(want):
        return OK
    return Verdict(False, "reference", f"signatures {got}, reference {want}")


def mvg_systems(rng, workdir) -> list[Item]:
    return (_criterion4() + _bridge_mvg() + _geometric_sweep() + _ring_items(rng)
            + _iid_geometric() + _signature_items(rng))


# ---------------------------------------------------------------------------
# cli_oracle: in-process CLI invocations on YAML configs written at set-up
# ---------------------------------------------------------------------------

MC_SAMPLES = 1_000_000


def run_cli(argv: list[str]) -> tuple[int, list[list[str]]]:
    """One in-process invocation; returns the exit code and the CSV rows."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lifemoments.cli.main(argv)
    return code, list(csv.reader(io.StringIO(out.getvalue())))


def _cli_op(name: str, argv: list[str], check_rows: Callable[[list], Verdict]) -> Op:
    def check(value, _outputs):
        if isinstance(value, Raised):
            return Verdict(False, "raised", value.error)
        code, rows = value
        if code != 0:
            return Verdict(False, "exit", f"exit code {code}")
        try:
            return check_rows(rows)
        except (KeyError, IndexError, ValueError) as e:
            return Verdict(False, "exit", f"unparseable output: {e!r}")

    return Op(name, lambda _ctx: run_cli(argv), check)


def _table(rows) -> list[dict]:
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


def _theta_keys(theta: dict) -> dict:
    """MVG shock parameters keyed the way the config schema spells subsets."""
    return {",".join(map(str, I)): t for I, t in theta.items()}


def _write(workdir: Path, name: str, cfg: dict) -> str:
    path = workdir / f"{name}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def cli_oracle(rng, workdir: Path) -> list[Item]:
    ops = []
    csv_flags = ["--format", "csv", "--precision", "full"]

    # README example: Poisson(1) x 10, the first row of criterion 2
    cfg = {"model": {"kind": "independent", "marginal": {"dist": "poisson", "lam": 1.0}, "count": 10},
           "requests": {"moments": [1, 2], "d": 0.0005}}

    def readme_rows(rows):
        table = _table(rows)
        checks = []
        for r, row in enumerate(table, start=1):
            checks += [
                near_golden(float(row["p1"]), golden.POIS_MEANS[0][r - 1], f"r{r} p1"),
                near_golden(float(row["p2"]), golden.POIS_M2[0][r - 1], f"r{r} p2"),
                OK if int(row["M0_p1"]) == golden.POIS_MEANS_M0[0][r - 1] else Verdict(False, "golden", f"r{r} M0_p1"),
                OK if int(row["M0_p2"]) == golden.POIS_M2_M0[0][r - 1] else Verdict(False, "golden", f"r{r} M0_p2"),
            ]
        return _worst(checks) if len(table) == 10 else Verdict(False, "exit", f"{len(table)} rows")

    ops.append(_cli_op("cli/orderstat_poisson",
                       ["orderstat", "--config", _write(workdir, "orderstat_poisson", cfg)] + csv_flags, readme_rows))

    # seeded mixed 3-marginal model: for every seed the Poisson has the
    # largest mean and the NegBin the heaviest tail
    specs = [("poisson", jitter(rng, 4.0)), ("negbin", jitter(rng, 1.0), jitter(rng, 0.3)),
             ("geometric", jitter(rng, 0.4))]
    d_mixed = 1e-4
    cfg = {"model": {"kind": "independent", "marginals": [
        {"dist": "poisson", "lam": specs[0][1]},
        {"dist": "negbin", "R": specs[1][1], "p": specs[1][2]},
        {"dist": "geometric", "pi": specs[2][1]}]},
        "requests": {"moments": [1, 2], "d": d_mixed}}
    truths = {(r, p): _orderstat_truth(specs, r, p) for r in (1, 2, 3) for p in (1, 2)}
    ops.append(_cli_op(
        "cli/orderstat_mixed",
        ["orderstat", "--config", _write(workdir, "orderstat_mixed", cfg)] + csv_flags,
        lambda rows: _worst(
            within_bound(float(row[f"p{p}"]), truths[(int(row["r"]), p)](), d_mixed, f"r{row['r']} p{p}")
            for row in _table(rows) for p in (1, 2)),
    ))

    # bridge MVG, criterion 5 setting 2
    setting, et, var = golden.BRIDGE_MVG[1]
    cfg = {"model": {"kind": "mvg", "n": 5, "theta": _theta_keys(golden._bridge_theta(setting))},
           "structure": {"n": 5, "path_sets": BRIDGE_PATHS}, "requests": {"moments": [1, 2]}}
    ops.append(_cli_op(
        "cli/system_bridge_mvg",
        ["system", "--config", _write(workdir, "system_bridge_mvg", cfg)] + csv_flags,
        lambda rows, et=et, var=var: _worst([near_golden(float(_table(rows)[0]["p1"]), et, "p1"),
                                             near_golden(float(_table(rows)[0]["var"]), var, "var")]),
    ))

    # bridge signature with the Samaniego vector
    cfg = {"structure": {"n": 5, "path_sets": BRIDGE_PATHS, "cut_sets": BRIDGE_CUTS,
                         "samaniego": ["0", "1/5", "3/5", "1/5", "0"]}}
    sig_truth = lazy(lambda: ref.signatures(5, BRIDGE_PATHS))

    def signature_rows(rows):
        by = {}
        for section, key, value in rows[1:]:
            by.setdefault(section, []).append(int(value) if "subset" not in section else value)
        alpha, beta = sig_truth()
        return _worst([
            _signature_verdict((tuple(by["alpha"]), tuple(by["beta"])), (alpha, beta)),
            _signature_verdict(tuple(by["alpha_from_samaniego"]), alpha),
        ])

    ops.append(_cli_op("cli/signature_bridge",
                       ["signature", "--config", _write(workdir, "signature_bridge", cfg)] + csv_flags,
                       signature_rows))

    # sweeps: criterion 8 grids
    lams = [10.0, 20.0, 50.0]
    cfg = {"structure": {"n": 5, "path_sets": BRIDGE_PATHS},
           "sweep": {"family": "poisson", "values": lams, "d": 0.0005}}
    sweep_truth = {(lam, p): _system_truth([("poisson", lam)] * 5, BRIDGE_PATHS, p) for lam in lams for p in (1, 2)}

    def poisson_sweep_rows(rows):
        table = _table(rows)
        checks = [within_bound(float(row[f"ET{'' if p == 1 else '2'}"]), sweep_truth[(float(row["lam"]), p)](),
                  0.0005, f"lam={row['lam']} p{p}") for row in table for p in (1, 2)]
        gaps = [abs(float(row["ET"]) - float(row["lam"])) for row in table]
        shrink = len(gaps) == 3 and gaps[0] > gaps[1] > gaps[2]
        checks.append(OK if shrink else Verdict(False, "property", f"gaps {gaps} do not shrink"))
        return _worst(checks)

    ops.append(_cli_op("cli/sweep_poisson",
                       ["sweep", "--config", _write(workdir, "sweep_poisson", cfg)] + csv_flags, poisson_sweep_rows))

    grid = [float(pi) for pi in np.linspace(0.005, 0.245, 50)]
    cfg = {"structure": {"n": 5, "path_sets": BRIDGE_PATHS},
           "sweep": {"family": "geometric", "values": grid}}
    geo_truth = {(pi, p): _system_truth([("geometric", pi)] * 5, BRIDGE_PATHS, p) for pi in grid for p in (1, 2)}

    def geometric_sweep_rows(rows):
        table = _table(rows)
        checks = [near_reference(float(row[f"ET{'' if p == 1 else '2'}"]), geo_truth[(float(row["pi"]), p)](),
                                 f"pi={row['pi']} p{p}") for row in table for p in (1, 2)]
        ets = [float(row["ET"]) for row in table]
        falling = len(ets) == 50 and all(a > b for a, b in zip(ets, ets[1:]))
        checks.append(OK if falling else Verdict(False, "property", "ET not strictly decreasing"))
        return _worst(checks)

    ops.append(_cli_op("cli/sweep_geometric",
                       ["sweep", "--config", _write(workdir, "sweep_geometric", cfg)] + csv_flags,
                       geometric_sweep_rows))

    # validate: Monte Carlo on an independent Poisson bridge, a small
    # multinomial rank (plus enumeration) and a bridge MVG
    def validate(name, cfg, analytic_check, truth, truth_slack=0.0):
        seed = int(rng.integers(1 << 31))

        def rows_check(rows):
            table = {row["check"]: row for row in _table(rows)}
            mc = table["mc_3sigma"]
            sigma = float(mc["tolerance"]) / 3.0
            checks = [analytic_check(float(mc["analytic"]))]
            t = truth()
            if abs(float(mc["estimate"]) - t) > MC_SIGMAS * sigma + truth_slack:
                checks.append(Verdict(False, "reference", f"MC estimate {mc['estimate']} vs {t!r}"))
            if "enumerate" in table and table["enumerate"]["status"] != "PASS":
                checks.append(Verdict(False, "reference", "enumeration check failed"))
            return _worst(checks)

        argv = ["validate", "--config", _write(workdir, name, cfg), "--format", "csv", "--seed", str(seed)]
        ops.append(_cli_op(f"cli/{name}", argv, rows_check))

    lams = [jitter(rng, lam) for lam in (1.0, 2.0, 3.0, 4.0, 5.0)]
    pois_truth = _system_truth([("poisson", x) for x in lams], BRIDGE_PATHS, 1)
    validate("validate_poisson_system",
             {"model": {"kind": "independent", "marginals": [{"dist": "poisson", "lam": x} for x in lams]},
              "structure": {"n": 5, "path_sets": BRIDGE_PATHS},
              "validate": {"p": 1, "samples": MC_SAMPLES, "d": 1e-6}},
             lambda v: within_bound(v, pois_truth(), 1e-6, "analytic"), pois_truth)

    mult_truth = lazy(lambda: ref.multinomial_orderstat(6, [0.25, 0.25, 0.5], 3, 1))
    validate("validate_multinomial_rank",
             {"model": {"kind": "multinomial", "trials": 6, "probs": [0.25, 0.25, 0.5]},
              "validate": {"rank": 3, "p": 1, "samples": MC_SAMPLES}},
             lambda v: near_reference(v, mult_truth(), "analytic", 1e-9), mult_truth)

    setting, et3, _ = golden.BRIDGE_MVG[2]
    validate("validate_bridge_mvg",
             {"model": {"kind": "mvg", "n": 5, "theta": _theta_keys(golden._bridge_theta(setting))},
              "structure": {"n": 5, "path_sets": BRIDGE_PATHS},
              "validate": {"p": 1, "samples": MC_SAMPLES}},
             lambda v: near_golden(v, et3, "analytic"), lambda: et3, truth_slack=GOLDEN_TOL)

    return [Item(op.name, lambda: None, [op]) for op in ops]


BUILDERS = {
    "multinomial_table": multinomial_table,
    "truncated_tables": truncated_tables,
    "mvg_systems": mvg_systems,
    "cli_oracle": cli_oracle,
}


def generate(workload: str, seed: int, workdir: Path) -> list[Item]:
    """The workload's items for this seed; cli_oracle writes its configs to ``workdir``."""
    return BUILDERS[workload](np.random.default_rng(seed), workdir)
