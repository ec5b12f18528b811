"""Span and counter wrappers installed around the library's public calls.

The wrappers live here, in the benchmark, not in the library: ``install``
replaces each traced function or method with a wrapper in every module of
the package that binds it (``from .x import y`` copies the reference, so
``systems.poisson_truncation_index`` needs its own wrapper beside
``orderstats.poisson_truncation_index``), and ``uninstall`` puts the
originals back.

A span records name, layer, start, end, parent span and op id; spans stay
in memory until the run ends.  A span's self time is its duration minus the
time its direct child spans cover, so the self times of all spans add up to
the time covered by root spans, and the rest of a traced pass is
``trace.unattributed_s``.
"""

from __future__ import annotations

import csv
import gzip
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

LAYERS = ("distributions", "orderstats", "mvg", "systems", "oracle", "cli")

# (module, function or Class.method) pairs wrapped in spans
SPANS = {
    "distributions": [
        "multinomial_pmf", "ExplicitFinitePMF.counts_table", "IndependentMarginals.cdf_matrix",
        *(f"{cls}.{meth}" for cls in ("MarginalDist", "Poisson", "NegBin", "Geometric", "FinitePMF")
          for meth in ("pmf_array", "cdf_array", "quantile", "tail_moment")),
    ],
    "orderstats": [
        "approx_moment", "exact_moment_finite", "survival_orderstat",
        "plan_poisson", "plan_negbin", "plan_generic",
        "poisson_truncation_index", "negbin_truncation_index", "generic_truncation_index",
    ],
    "mvg": [
        "mvg_orderstat_mean_var", "mvg_orderstat_factorial_moment", "factorial_moment_terms",
        "mvg_orderstat_survival", "mvg_min_param",
    ],
    "systems": [
        "alpha_coefficients", "beta_coefficients", "minimal_signature", "maximal_signature",
        "signature_set", "system_moment_approx", "system_moment_exact", "system_moment_mvg",
        "system_mean_var_mvg", "signature_from_samaniego",
    ],
    "oracle": ["mc_moment", "sample_mvg", "enumerate_moment"],
    "cli": ["main", "load_config", "build_model", "build_structure"],
}

# methods that are only counted: a span per call would cost more than the call
COUNTED = {
    "distributions.logpmf_calls": [f"{cls}.logpmf" for cls in ("Poisson", "NegBin", "Geometric", "FinitePMF")],
}

# spans that are also counted, by span name
SPAN_COUNTS = {
    "MarginalDist.pmf_array": "distributions.pmf_array_calls",
    "FinitePMF.pmf_array": "distributions.pmf_array_calls",
    "mvg_min_param": "mvg.min_param_calls",
    "mvg_orderstat_survival": "mvg.survival_calls",
}

PLAN = {"plan_poisson", "plan_negbin", "plan_generic",
        "poisson_truncation_index", "negbin_truncation_index", "generic_truncation_index"}
TAIL = {f"{cls}.{meth}" for cls in ("MarginalDist", "Poisson", "NegBin", "Geometric", "FinitePMF")
        for meth in ("quantile", "tail_moment")}
COEFFICIENTS = {"alpha_coefficients", "beta_coefficients"}
CLI_BUILD = {"load_config", "build_model", "build_structure"}


# every per-layer metric a traced run reports, with its unit
PER_LAYER = {
    "distributions.self_s": "s",
    "distributions.support_points": "count",
    "distributions.counts_table_s": "s",
    "distributions.counts_table_bytes": "bytes",
    "distributions.logpmf_calls": "count",
    "distributions.pmf_array_calls": "count",
    "distributions.tail_s": "s",
    "orderstats.self_s": "s",
    "orderstats.series_terms": "count",
    "orderstats.plan_s": "s",
    "orderstats.plan_calls": "count",
    "orderstats.truncated_ops": "count",
    "orderstats.bound_violations": "count",
    "orderstats.err_over_d_max": "ratio",
    "mvg.self_s": "s",
    "mvg.min_param_calls": "count",
    "mvg.survival_calls": "count",
    "mvg.cancellation_log10_max": "log10",
    "mvg.closed_form_wrong": "count",
    "systems.self_s": "s",
    "systems.coefficient_s": "s",
    "systems.collections": "count",
    "systems.nonzero_coefficients": "count",
    "systems.refused": "count",
    "oracle.self_s": "s",
    "oracle.mc_samples_per_s": "1/s",
    "oracle.enumerate_points_per_s": "1/s",
    "cli.self_s": "s",
    "cli.build_s": "s",
    "cli.nonzero_exits": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    op: str | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self.factorial_terms: list = []  # FactorialMomentTerms returned in the pass
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, layer: str, fn: Callable, on_result=None, on_error=None) -> Callable:
        spans, stack, now = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = now()
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                if on_error is not None:
                    on_error(e, args)
                raise
            finally:
                end = now()
                stack.pop()
                spans[idx] = Span(name, layer, start, end, parent, self.op)
            if on_result is not None:
                on_result(out, args)
            return out

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced target in every loaded module of ``package``."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == package.__name__ or k.startswith(package.__name__ + "."))]
        hooks = self._hooks(package.CapacityError)
        for layer, targets in SPANS.items():
            module = sys.modules[f"{package.__name__}.{layer}"]
            for target in targets:
                on_result, on_error = hooks.get(target, (None, None))
                self._replace(modules, module, target,
                              lambda fn, t=target, l=layer, r=on_result, e=on_error: self.wrap(t, l, fn, r, e))
        module = sys.modules[f"{package.__name__}.distributions"]
        for key, targets in COUNTED.items():
            for target in targets:
                self._replace(modules, module, target, lambda fn, k=key: self.count(k, fn))

    def _replace(self, modules, module, target: str, make: Callable) -> None:
        if "." in target:
            cls_name, meth = target.split(".")
            cls = getattr(module, cls_name)
            if meth not in vars(cls):  # inherited: the base class's wrapper covers it
                return
            self._set(cls, meth, make(vars(cls)[meth]))
            return
        original = getattr(module, target)
        wrapper = make(original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- per-call counters -------------------------------------------------

    def _hooks(self, capacity_error: type) -> dict[str, tuple]:
        c = self.counts
        # support_max of each explicit pmf, read off its counts table: calling
        # support_max() again would scan every support point
        support_max: dict[int, int] = {}

        def support(model, _args):
            c["distributions.support_points"] += int(model.points.shape[0])

        def table_bytes(table, args):
            # the build reads all points once per threshold; later calls are cached
            model = args[0]
            if id(model) not in support_max:
                support_max[id(model)] = table.shape[0] - 2
                c["distributions.counts_table_bytes"] += (table.shape[0] - 1) * int(model.points.nbytes)

        def truncated_terms(res, _args):
            if res.M0_used is not None:
                c["orderstats.series_terms"] += res.M0_used + 1

        def exact_terms(_res, args):
            model = args[0]
            c["orderstats.series_terms"] += support_max.get(id(model)) or int(model.support_max() or 0)

        def coefficients(family: str):
            def on_result(coeffs, args):
                c["systems.collections"] += 2 ** len(getattr(args[0], family))
                c["systems.nonzero_coefficients"] += sum(1 for v in coeffs.values() if v != 0)
            return on_result

        def refused(e, _args):
            if isinstance(e, capacity_error):
                c["systems.refused"] += 1

        def mc(est, _args):
            c["oracle.mc_samples"] += est.samples

        def enumerated(_value, args):
            model = args[0]
            if hasattr(model, "points"):
                c["oracle.enumerated_points"] += int(model.points.shape[0])
            else:
                c["oracle.enumerated_points"] += math.prod(d.support_max() + 1 for d in model.marginals)

        def keep_terms(terms, _args):
            self.factorial_terms.append(terms)

        def exit_code(code, _args):
            c["cli.nonzero_exits"] += int(code != 0)

        return {
            "multinomial_pmf": (support, None),
            "ExplicitFinitePMF.counts_table": (table_bytes, None),
            "approx_moment": (truncated_terms, None),
            "exact_moment_finite": (exact_terms, None),
            "alpha_coefficients": (coefficients("path_sets"), refused),
            "beta_coefficients": (coefficients("cut_sets"), refused),
            "mc_moment": (mc, None),
            "enumerate_moment": (enumerated, None),
            "factorial_moment_terms": (keep_terms, None),
            "main": (exit_code, None),
        }

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time covered by its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def outermost(self, names: set[str]) -> list[Span]:
        """Spans in ``names`` whose ancestors are not in ``names``."""
        inside = [False] * len(self.spans)
        out = []
        for i, s in enumerate(self.spans):
            # parents always precede their children in the list
            inside[i] = s.parent >= 0 and (inside[s.parent] or self.spans[s.parent].name in names)
            if s.name in names and not inside[i]:
                out.append(s)
        return out

    def covered(self) -> float:
        return math.fsum(s.end - s.start for s in self.spans if s.parent < 0)

    def layer_metrics(self, pass_s: float) -> dict[str, float]:
        """Per-layer figures measured by the spans and counters of one traced pass."""
        own = self.self_times()
        by_layer = {layer: 0.0 for layer in LAYERS}
        for s, t in zip(self.spans, own):
            by_layer[s.layer] += t
        c = self.counts + Counter(SPAN_COUNTS[s.name] for s in self.spans if s.name in SPAN_COUNTS)

        def total(spans):
            return math.fsum(s.end - s.start for s in spans)

        ratios = [t.cancellation_ratio() for t in self.factorial_terms]
        ratios = [r for r in ratios if 0.0 < r < math.inf]
        mc_s = total(self.outermost({"mc_moment"}))
        enum_s = total(self.outermost({"enumerate_moment"}))
        plans = self.outermost(PLAN)
        m = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}
        m.update({
            "distributions.support_points": c["distributions.support_points"],
            "distributions.counts_table_s": total(self.outermost({"ExplicitFinitePMF.counts_table"})),
            "distributions.counts_table_bytes": c["distributions.counts_table_bytes"],
            "distributions.logpmf_calls": c["distributions.logpmf_calls"],
            "distributions.pmf_array_calls": c["distributions.pmf_array_calls"],
            "distributions.tail_s": total(self.outermost(TAIL)),
            "orderstats.series_terms": c["orderstats.series_terms"],
            "orderstats.plan_s": total(plans),
            "orderstats.plan_calls": len(plans),
            "mvg.min_param_calls": c["mvg.min_param_calls"],
            "mvg.survival_calls": c["mvg.survival_calls"],
            "mvg.cancellation_log10_max": math.log10(max(ratios)) if ratios else 0.0,
            "systems.coefficient_s": total(self.outermost(COEFFICIENTS)),
            "systems.collections": c["systems.collections"],
            "systems.nonzero_coefficients": c["systems.nonzero_coefficients"],
            "systems.refused": c["systems.refused"],
            "oracle.mc_samples_per_s": c["oracle.mc_samples"] / mc_s if mc_s else 0.0,
            "oracle.enumerate_points_per_s": c["oracle.enumerated_points"] / enum_s if enum_s else 0.0,
            "cli.build_s": total(self.outermost(CLI_BUILD)),
            "cli.nonzero_exits": c["cli.nonzero_exits"],
            "trace.unattributed_s": pass_s - self.covered(),
        })
        return m

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "layer", "start_s", "end_s", "parent", "op"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s.name, s.layer, f"{s.start - t0:.9f}", f"{s.end - t0:.9f}", s.parent, s.op or ""])
