"""Command-line front end.

Subcommands: ``orderstat``, ``system``, ``signature``, ``sweep``,
``validate``.  Every run takes a YAML config (``--config``); data goes to
stdout, diagnostics to stderr.  Exit codes: 0 success, 2 config or
validation error, 3 capacity refused, 4 numeric/convergence failure.

Config schema (sections used depend on the subcommand)::

    model:
      kind: independent | finite | multinomial | mvg
      # independent: either an explicit list ...
      marginals:
        - {dist: poisson, lam: 1.0}
        - {dist: negbin, R: 2, p: 0.5}
        - {dist: geometric, pi: 0.5}
        - {dist: finite, probs: [0.5, 0.5]}
      # ... or one spec replicated (declares exchangeability):
      marginal: {dist: poisson, lam: 1.0}
      count: 10
      exchangeable: true            # optional declaration for the list form
      # finite: explicit joint pmf
      points: [[0, 0], [0, 1]]
      probs: [0.5, 0.5]
      # multinomial: counts vector of `trials` balls in len(probs) cells
      trials: 20
      probs: [0.1, 0.1, ...]
      # mvg: common-shock geometric parameters
      n: 3
      theta: {"1": 0.8, "1,2,3": 0.9}   # subset -> theta, keys "i,j,k"
      levels: [0.9, 0.99]               # exchangeable alternative to theta

    structure:
      n: 5
      path_sets: [[1, 2], [3, 4], [1, 3, 5], [2, 4, 5]]
      cut_sets: [[1, 4], [2, 3], [1, 3, 5], [2, 4, 5]]   # optional
      samaniego: ["0", "1/5", "3/5", "1/5", "0"]          # optional

    requests:                       # orderstat / system
      ranks: [1, 2, 3]              # orderstat only; default 1..n
      moments: [1, 2]               # default [1, 2]
      d: 0.0005                     # error bound for truncated runs
    # or an explicit list: requests: [{r: 3, p: 2, d: 0.0005}, ...]

    sweep:                          # sweep: IID systems over a parameter grid
      family: geometric | poisson
      parameter: pi | lam
      values: [0.05, 0.10, 0.15]
      d: 0.0005                     # poisson family only; prints ET, ET2 and var

    validate:                       # validate: oracle cross-checks
      rank: 1                       # statistic: a rank ...
      # (or the structure section as the statistic)
      p: 1
      samples: 200000
"""

from __future__ import annotations

import argparse
import csv
import sys
from fractions import Fraction
from functools import cache
from typing import Sequence

import numpy as np
import yaml

from .distributions import (
    ExplicitFinitePMF,
    FinitePMF,
    Geometric,
    IndependentMarginals,
    JointModel,
    MarginalDist,
    MvgModel,
    NegBin,
    Poisson,
    multinomial_pmf,
)
from .errors import CapacityError, LifemomentsError, NumericError, ValidationError, _as_int
from .mvg import MvgParams
from .oracle import enumerate_moment, mc_moment
from .systems import SystemStructure, moments, signature_from_samaniego, signature_set

__all__ = ["main"]

# a seeded validate run depends on numpy's samplers, so the note names its version
_RNG_NAME = f"numpy {np.__version__} default_rng (PCG64)"

# libyaml's parser when PyYAML was built with it; both build the same safe types
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _note(msg: str):
    print(f"# {msg}", file=sys.stderr)


def _require(mapping, key: str, where: str):
    if not isinstance(mapping, dict):
        raise ValidationError(f"{where} must be a mapping")
    if key not in mapping:
        raise ValidationError(f"{where} is missing required key {key!r}")
    return mapping[key]


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as e:
        raise ValidationError(f"cannot read config {path}: {e}") from e
    except yaml.YAMLError as e:
        raise ValidationError(f"config {path} is not valid YAML: {e}") from e
    if not isinstance(cfg, dict):
        raise ValidationError(f"config {path} must be a mapping at top level")
    return cfg


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_marginal(spec) -> MarginalDist:
    dist = _require(spec, "dist", "marginal spec")
    if dist == "poisson":
        return Poisson(_require(spec, "lam", "poisson spec"))
    if dist == "negbin":
        return NegBin(_require(spec, "R", "negbin spec"), _require(spec, "p", "negbin spec"))
    if dist == "geometric":
        return Geometric(_require(spec, "pi", "geometric spec"))
    if dist == "finite":
        return FinitePMF(_require(spec, "probs", "finite marginal spec"))
    raise ValidationError(f"unknown marginal dist {dist!r}")


def _parse_subset_key(key) -> frozenset[int]:
    if isinstance(key, int):
        return frozenset([key])
    try:
        return frozenset(int(tok) for tok in str(key).split(","))
    except ValueError as e:
        raise ValidationError(f"theta key {key!r} is not a comma-separated index set") from e


def build_mvg_params(spec) -> MvgParams:
    n = _require(spec, "n", "mvg model spec")
    has_theta = "theta" in spec
    has_levels = "levels" in spec
    if has_theta == has_levels:
        raise ValidationError("mvg model spec needs exactly one of 'theta' or 'levels'")
    if has_theta:
        theta = {_parse_subset_key(k): float(v) for k, v in _require(spec, "theta", "mvg spec").items()}
        return MvgParams(n, theta=theta)
    return MvgParams(n, exchangeable_levels=[float(v) for v in spec["levels"]])


def build_model(spec) -> JointModel:
    kind = _require(spec, "kind", "model spec")
    if kind == "independent":
        if "count" in spec:
            count = _as_int(spec["count"], "count", 1)
            base = _require(spec, "marginal", "model spec with count")
            margs = [build_marginal(base)] * count  # one marginal, so one set of tables
            return IndependentMarginals(margs, exchangeable=True)
        margs = [build_marginal(s) for s in _require(spec, "marginals", "independent model spec")]
        return IndependentMarginals(margs, exchangeable=bool(spec.get("exchangeable", False)))
    if kind == "finite":
        return ExplicitFinitePMF(
            _require(spec, "points", "finite model spec"),
            _require(spec, "probs", "finite model spec"),
            exchangeable=bool(spec.get("exchangeable", False)),
        )
    if kind == "multinomial":
        return multinomial_pmf(
            _require(spec, "trials", "multinomial spec"),
            [float(x) for x in _require(spec, "probs", "multinomial spec")],
        )
    if kind == "mvg":
        return MvgModel(build_mvg_params(spec))
    raise ValidationError(f"unknown model kind {kind!r}")


def build_structure(spec) -> SystemStructure:
    return SystemStructure(
        _require(spec, "n", "structure spec"),
        path_sets=spec.get("path_sets"),
        cut_sets=spec.get("cut_sets"),
    )


def _expand_requests(cfg: dict, n: int, flag_d, with_ranks: bool) -> list[tuple[int | None, int, float | None]]:
    """Normalize the requests section to a list of (r, p, d) triples."""
    raw = cfg.get("requests", {})
    out: list[tuple[int | None, int, float | None]] = []
    if isinstance(raw, list):
        for item in raw:
            r = _require(item, "r", "request") if with_ranks else None
            p = _as_int(_require(item, "p", "request"), "p")
            d = flag_d if flag_d is not None else item.get("d")
            out.append((r, p, None if d is None else float(d)))
        return out
    if not isinstance(raw, dict):
        raise ValidationError("requests must be a list or a mapping")
    moments = [_as_int(p, "moment") for p in raw.get("moments", [1, 2])]
    d = flag_d if flag_d is not None else raw.get("d")
    d = None if d is None else float(d)
    if with_ranks:
        return [(r, p, d) for r in raw.get("ranks", range(1, n + 1)) for p in moments]
    return [(None, p, d) for p in moments]


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

def _cells(model: JointModel, statistic, requests: list[tuple[int, float | None]]) -> dict[int, dict]:
    """value plus truncation metadata for each (moment, bound) request on one
    statistic, a rank or a structure, keyed by moment (a later request for
    the same moment wins); one `moments` call with a bound per moment."""
    last = dict(requests)
    orders = tuple(last)
    try:
        results = moments(model, statistic, orders, tuple(last.values()))
    except ValidationError as e:
        if "needs an error bound" in str(e):
            raise ValidationError(f"{e}: set requests.d in the config or pass --d") from e
        raise
    return {p: {"value": res.value, "M0": res.M0_used} for p, res in zip(orders, results)}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(x, full: bool) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, Fraction)):
        return str(x)
    if isinstance(x, float):
        return repr(x) if full else f"{x:.3f}"
    return str(x)


def _emit(header: list[str], rows: list[list], fmt: str, full: bool):
    cells = [[_fmt(c, full) for c in row] for row in rows]
    if fmt == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        w.writerows(cells)
        return
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
        for i, h in enumerate(header)
    ]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in cells:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))


def _moment_table(table: list[dict[int, dict]], moments: list[int]) -> tuple[list[str], list[list]]:
    """Columns p<q> (+ M0_p<q> when any cell is truncated) for every requested
    moment, then var when moments 1 and 2 are both requested; one row per
    statistic's cells, blank where that statistic did not request a moment."""
    any_m0 = any(cell["M0"] is not None for cells in table for cell in cells.values())
    with_var = 1 in moments and 2 in moments
    header = []
    for p in moments:
        header += [f"p{p}", f"M0_p{p}"] if any_m0 else [f"p{p}"]
    header += ["var"] if with_var else []
    rows = []
    for cells in table:
        row = []
        for p in moments:
            cell = cells.get(p, {"value": None, "M0": None})
            row += [cell["value"], cell["M0"]] if any_m0 else [cell["value"]]
        if with_var:
            has_both = 1 in cells and 2 in cells
            row.append(cells[2]["value"] - cells[1]["value"] * cells[1]["value"] if has_both else None)
        rows.append(row)
    return header, rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_orderstat(cfg: dict, args) -> int:
    model = build_model(_require(cfg, "model", "config"))
    triples = _expand_requests(cfg, model.n, args.d, with_ranks=True)
    if not triples:
        _emit(["r"], [], args.format, args.precision == "full")
        return 0
    ranks = list(dict.fromkeys(r for r, _, _ in triples))
    moments = list(dict.fromkeys(p for _, p, _ in triples))
    table = [_cells(model, r, [(p, d) for rr, p, d in triples if rr == r]) for r in ranks]
    header, rows = _moment_table(table, moments)
    _note(f"model n={model.n}; ranks={ranks}; moments={moments}")
    _emit(["r"] + header, [[r] + row for r, row in zip(ranks, rows)], args.format, args.precision == "full")
    return 0


def cmd_system(cfg: dict, args) -> int:
    model = build_model(_require(cfg, "model", "config"))
    structure = build_structure(_require(cfg, "structure", "config"))
    triples = _expand_requests(cfg, model.n, args.d, with_ranks=False)
    if not triples:
        _emit(["p1"], [], args.format, args.precision == "full")
        return 0
    cells = _cells(model, structure, [(p, d) for _, p, d in triples])
    moments = list(dict.fromkeys(p for _, p, _ in triples))
    header, rows = _moment_table([cells], moments)
    _note(f"system n={structure.n}; moments={moments}")
    _emit(header, rows, args.format, args.precision == "full")
    return 0


def cmd_signature(cfg: dict, args) -> int:
    spec = _require(cfg, "structure", "config")
    structure = build_structure(spec)
    sigs = signature_set(structure)  # one coefficient table per family supplied
    rows: list[list] = []
    for label, subsets, vec in (("alpha", sigs.alpha_subsets, sigs.alpha), ("beta", sigs.beta_subsets, sigs.beta)):
        if subsets is None:
            continue
        for K, c in sorted(subsets.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
            rows.append([f"{label}_subset", ",".join(map(str, sorted(K))), c])
        for i, a in enumerate(vec, start=1):
            rows.append([label, i, a])
    if "samaniego" in spec:
        sam = [Fraction(str(x)) for x in spec["samaniego"]]
        for i, a in enumerate(signature_from_samaniego(sam, structure.n), start=1):
            rows.append(["alpha_from_samaniego", i, a])
    _emit(["section", "key", "value"], rows, args.format, args.precision == "full")
    return 0


def cmd_sweep(cfg: dict, args) -> int:
    spec = _require(cfg, "sweep", "config")
    structure = build_structure(_require(cfg, "structure", "config"))
    family = _require(spec, "family", "sweep spec")
    if family not in ("geometric", "poisson"):
        raise ValidationError(f"sweep family must be geometric or poisson, not {family!r}")
    param = spec.get("parameter", "pi" if family == "geometric" else "lam")
    values = [float(v) for v in _require(spec, "values", "sweep spec")]
    d = args.d if args.d is not None else float(spec.get("d", 0.0005))
    n = structure.n
    rows = []
    for v in values:
        try:
            if family == "geometric":
                model = MvgModel(MvgParams(n, theta={frozenset([i]): 1.0 - v for i in range(1, n + 1)}))
            else:
                model = IndependentMarginals([Poisson(v)] * n, exchangeable=True)
            m1, m2_raw = (res.value for res in moments(model, structure, (1, 2), d))
            rows.append([v, m1, m2_raw, m2_raw - m1 * m1])
        except LifemomentsError as e:
            _note(f"{param}={v} failed: {e}")
    _note(f"sweep family={family} points={len(values)} emitted={len(rows)}")
    _emit([param, "ET", "ET2", "var"], rows, args.format, args.precision == "full")
    return 0


def cmd_validate(cfg: dict, args) -> int:
    spec = cfg.get("validate", {})
    if not isinstance(spec, dict):
        raise ValidationError("validate section must be a mapping")
    model = build_model(_require(cfg, "model", "config"))
    if "structure" in cfg:
        statistic = build_structure(cfg["structure"])
        label = "system"
    else:
        statistic = spec.get("rank", 1)
        label = f"rank {statistic}"
    p = _as_int(spec.get("p", 1), "p")
    samples = _as_int(spec.get("samples", 200_000), "samples")
    d = args.d if args.d is not None else float(spec.get("d", 1e-6))
    seed = args.seed if args.seed is not None else 0

    analytic = moments(model, statistic, (p,), d)[0].value

    rows = []
    est = mc_moment(model, statistic, p, samples, seed)
    band = 3.0 * est.stderr + 1e-12
    status = "PASS" if abs(analytic - est.mean) <= band else "FAIL"
    rows.append(["mc_3sigma", status, analytic, est.mean, band])
    if model.support_max() is not None:
        try:
            exact = enumerate_moment(model, statistic, p)
            status = "PASS" if abs(analytic - exact) <= 1e-9 else "FAIL"
            rows.append(["enumerate", status, analytic, exact, 1e-9])
        except CapacityError as e:
            _note(f"enumeration skipped: {e}")
    _note(f"validate {label} p={p} samples={samples} seed={seed} rng={_RNG_NAME}")
    _emit(["check", "status", "analytic", "estimate", "tolerance"], rows, args.format, True)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@cache  # parse_args leaves the parser as it was, so every call in a process can share one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifemoments",
        description="Moments of discrete order statistics and coherent-system lifetimes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("orderstat", cmd_orderstat),
        ("system", cmd_system),
        ("signature", cmd_signature),
        ("sweep", cmd_sweep),
        ("validate", cmd_validate),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--format", choices=("csv", "table"), default="table")
        p.add_argument("--precision", choices=("full",), default=None,
                       help="print full float precision instead of 3 decimals")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (validate)")
        p.add_argument("--d", type=float, default=None,
                       help="default error bound for truncated runs")
        p.set_defaults(fn=fn)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.fn(cfg, args)
    except CapacityError as e:
        _note(f"capacity error: {e}")
        return 3
    except NumericError as e:
        _note(f"numeric error: {e}")
        return 4
    except ValidationError as e:
        _note(f"config error: {e}")
        return 2
    except (KeyError, TypeError, ValueError) as e:
        _note(f"config error: {e!r}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
