"""Tests of the benchmark itself: tracer arithmetic, tail rule, references,
failure counting and seeded inputs.

    python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import lifemoments as lm  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import test_acceptance as golden  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def synthetic_tracer() -> tracing.Tracer:
    """root [0, 10] with children [1, 4] (which holds [2, 3]) and [5, 6]."""
    t = tracing.Tracer()
    t.spans = [
        tracing.Span("approx_moment", "orderstats", 0.0, 10.0, -1, "op1"),
        tracing.Span("IndependentMarginals.cdf_matrix", "distributions", 1.0, 4.0, 0, "op1"),
        tracing.Span("MarginalDist.pmf_array", "distributions", 2.0, 3.0, 1, "op1"),
        tracing.Span("plan_poisson", "orderstats", 5.0, 6.0, 0, "op1"),
    ]
    return t


def test_self_time_on_nested_spans():
    t = synthetic_tracer()
    assert t.self_times() == [6.0, 2.0, 1.0, 1.0]
    m = t.layer_metrics(pass_s=12.0)
    assert m["orderstats.self_s"] == 7.0
    assert m["distributions.self_s"] == 3.0
    assert m["trace.unattributed_s"] == 2.0
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) + m["trace.unattributed_s"] == 12.0
    assert m["orderstats.plan_s"] == 1.0 and m["orderstats.plan_calls"] == 1
    assert m["distributions.pmf_array_calls"] == 1


def test_outermost_skips_nested_spans_of_the_same_group():
    t = tracing.Tracer()
    t.spans = [
        tracing.Span("plan_poisson", "orderstats", 0.0, 4.0, -1, None),
        tracing.Span("poisson_truncation_index", "orderstats", 1.0, 3.0, 0, None),
        tracing.Span("negbin_truncation_index", "orderstats", 5.0, 6.0, -1, None),
    ]
    assert [s.name for s in t.outermost(tracing.PLAN)] == ["plan_poisson", "negbin_truncation_index"]


def test_wrappers_cover_every_binding_and_uninstall_restores():
    original = lm.orderstats.poisson_truncation_index
    assert lm.systems.poisson_truncation_index is original
    t = tracing.Tracer()
    t.install(lm)
    try:
        assert lm.systems.poisson_truncation_index.__wrapped__ is original
        assert lm.orderstats.poisson_truncation_index is lm.systems.poisson_truncation_index
        model = lm.IndependentMarginals([lm.Poisson(1.0), lm.Poisson(2.0)])
        structure = lm.SystemStructure(2, path_sets=[[1], [2]])
        lm.system_moment_approx(model, structure, 1, 1e-3)
    finally:
        t.uninstall()
    assert lm.systems.poisson_truncation_index is original
    names = [s.name for s in t.spans]
    assert names[0] == "system_moment_approx"
    assert "alpha_coefficients" in names and "poisson_truncation_index" in names
    idx = names.index("poisson_truncation_index")
    assert t.spans[t.spans[idx].parent].name == "system_moment_approx"
    assert t.counts["distributions.logpmf_calls"] > 0
    assert t.counts["systems.collections"] == 4


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    assert run.tail_percentile([float(x) for x in range(1, 41)]) == (30.0, 75.0, 10)
    assert run.tail_percentile([float(x) for x in range(1, 101)]) == (90.0, 90.0, 10)
    value, level, beyond = run.tail_percentile([float(x) for x in range(1, 1001)])
    assert (value, level, beyond) == (990.0, 99.0, 10)


def test_typical_op_takes_each_op_once():
    passes = [run.PassResult(1.0, 0.0, lat, {}) for lat in ([1.0, 2.0, 9.0], [3.0, 2.5, 9.5], [2.0, 2.2, 8.0])]
    assert run.typical_op(passes) == 2.2  # op medians 2.0, 2.2, 9.0


def test_scale_uses_the_samples_either_side_of_each_piece():
    ref = run.CALIBRATION_REF_S
    samples = [ref, 3 * ref, 2 * ref]
    # pieces 0 and 1 ran between samples 0 and 1 (mean 2x slow), piece 2 between 1 and 2
    assert run.scale([2.0, 4.0, 5.0], [0, 0, 1], samples) == pytest.approx([1.0, 2.0, 2.0])
    # the exponent sets how far a piece follows the kernel
    assert run.scale([2.0, 5.0], [0, 1], samples, 0.0) == [2.0, 5.0]
    assert run.scale([2.0, 4.5], [0, 1], samples, 0.5) == pytest.approx([2.0 / 2**0.5, 4.5 / 2.5**0.5])


def test_every_workload_has_a_speed_exponent():
    assert set(run.SPEED_EXPONENT) == set(workloads.WORKLOADS)


def test_pass_times_add_up_to_their_pieces(tmp_path):
    items = bridge_mvg_items(tmp_path)
    res = run.run_pass(items, lm, workloads.Raised)
    assert len(res.calibration_s) >= 2
    assert len(res.latencies) == sum(len(item.ops) for item in items)
    assert 0.0 < sum(res.latencies) < res.seconds
    assert 0.0 < res.first_value_s < res.seconds
    assert res.raw_seconds > 0.0


def test_tail_falls_back_to_the_median_when_samples_are_few():
    assert run.tail_percentile([float(x) for x in range(1, 16)]) == (8.0, 50.0, 7)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def test_reference_reproduces_poisson_row_1():
    dists = [ref.scipy_marginal("poisson", float(lam)) for lam in golden.POIS_ROWS[0]]
    for p, want in ((1, golden.POIS_MEANS[0]), (2, golden.POIS_M2[0])):
        got = ref.orderstat_moments(dists, p)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-3


def test_reference_reproduces_negbin_row_2():
    R, ps = golden.NB_ROWS[1]
    dists = [ref.scipy_marginal("negbin", R, q) for q in ps]
    for p, want in ((1, golden.NB_MEANS[1]), (2, golden.NB_M2[1])):
        got = ref.orderstat_moments(dists, p)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-3


def test_references_agree_on_the_bridge():
    alpha, beta = ref.signatures(5, workloads.BRIDGE_PATHS)
    assert alpha == golden.BRIDGE_MINIMAL_SIGNATURE
    assert beta == lm.maximal_signature(lm.SystemStructure(5, cut_sets=workloads.BRIDGE_CUTS))
    # golden setting 3: independent geometric components, by two references
    theta = {frozenset(k): v for k, v in golden._bridge_theta(3).items()}
    mvg = ref.mvg_system_moments(5, theta, workloads.BRIDGE_PATHS, 1)[0]
    dists = [ref.scipy_marginal("geometric", 1.0 - theta[frozenset([i])]) for i in range(1, 6)]
    assert mvg == pytest.approx(ref.system_moment_independent(dists, workloads.BRIDGE_PATHS, 1), abs=1e-12)
    assert mvg == pytest.approx(golden.BRIDGE_MVG[2][1], abs=1e-3)


def test_ring_reference_matches_the_closed_form_on_a_small_ring():
    theta, ring = workloads.ring_params(np.random.default_rng(3), 6)
    mean, var = lm.mvg_orderstat_mean_var(lm.MvgParams(6, theta=theta), 3, 6)
    m1, m2 = ref.ring_orderstat_moments(*ring, 3, 2)
    assert m1 == pytest.approx(mean, rel=1e-10)
    assert m2 - m1 * m1 == pytest.approx(var, rel=1e-9)


# ---------------------------------------------------------------------------
# checks and failure counting
# ---------------------------------------------------------------------------

def bridge_mvg_items(tmp_path):
    items = workloads.generate("mvg_systems", 0, tmp_path)
    return [item for item in items if item.name.startswith("bridge MVG")]


def test_a_wrong_value_counts_as_a_failure(tmp_path):
    items = bridge_mvg_items(tmp_path)
    res = run.run_pass(items, lm, workloads.Raised)
    clean = run.check_passes(items, [res], workloads)
    assert clean["failing"] == {} and clean["unexpected"] == 0
    name = "bridge_mvg/setting2"
    mean, var = res.outputs[name]
    res.outputs[name] = (mean + 0.01, var)
    bad = run.check_passes(items, [res], workloads)
    assert list(bad["failing"]) == [name]
    assert bad["failing"][name].kind == "golden"
    assert bad["unexpected"] == 1


def test_library_errors_fail_and_known_defects_are_named(tmp_path):
    items = [i for i in workloads.generate("mvg_systems", 0, tmp_path) if i.name == "structure 3of7G"]
    res = run.run_pass(items, lm, workloads.Raised)
    checked = run.check_passes(items, [res], workloads)
    assert {v.kind for v in checked["failing"].values()} == {"raised"}
    assert checked["unexpected"] == 0  # refused by COLLECTION_CAP, a listed defect
    assert workloads.known_defect("kofn/bridge/signature", "raised") is None


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def describe(items):
    out = []
    for item in items:
        out.append(item.name)
        out.extend(op.name for op in item.ops)
    return out


def test_seeded_inputs_repeat_for_one_seed(tmp_path):
    a = workloads.generate("truncated_tables", 7, tmp_path / "a")
    b = workloads.generate("truncated_tables", 7, tmp_path / "b")
    assert describe(a) == describe(b)
    mixed = [i for i in a if i.name.startswith("mixed5")]
    assert len(mixed) == 8
    for x, y in zip(mixed, [i for i in b if i.name.startswith("mixed5")]):
        assert repr(x.build()[0].marginals) == repr(y.build()[0].marginals)
    other = [i for i in workloads.generate("truncated_tables", 8, tmp_path / "c") if i.name.startswith("mixed5")]
    assert repr(mixed[0].build()[0].marginals) != repr(other[0].build()[0].marginals)


def test_seeded_configs_repeat_for_one_seed(tmp_path):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        workloads.generate("cli_oracle", 5, tmp_path / sub)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(files) == 9
    for name in files:
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
