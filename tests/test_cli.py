"""CLI behaviour: configs, output formats, exit codes."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import lifemoments
from lifemoments import (
    FinitePMF,
    Geometric,
    IndependentMarginals,
    MarginalDist,
    MomentRequest,
    NegBin,
    Poisson,
    approx_moment,
    exact_moment_finite,
    factorial_to_raw,
    multinomial_pmf,
    mvg_orderstat_factorial_moment,
    plan_generic,
    plan_negbin,
    plan_poisson,
    system_moment_mvg,
)
from lifemoments import cli, orderstats, systems
from lifemoments.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def parse_csv(out):
    rows = list(csv.reader(io.StringIO(out)))
    return rows[0], rows[1:]


BRIDGE_STRUCTURE = {
    "n": 5,
    "path_sets": [[1, 2], [3, 4], [1, 3, 5], [2, 4, 5]],
}


# ---------------------------------------------------------------------------
# orderstat
# ---------------------------------------------------------------------------

def test_orderstat_poisson_table_row(tmp_path, capsys):
    cfg = {
        "model": {"kind": "independent", "marginal": {"dist": "poisson", "lam": 1.0}, "count": 10},
        "requests": {"moments": [1, 2], "d": 0.0005},
    }
    code, out, err = run_cli(capsys, ["orderstat", "--config", write_cfg(tmp_path, cfg), "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["r", "p1", "M0_p1", "p2", "M0_p2", "var"]
    assert len(rows) == 10
    means = [0.010, 0.070, 0.225, 0.471, 0.737, 0.979, 1.230, 1.551, 1.990, 2.738]
    m0_mean = [6, 7, 8, 8, 8, 9, 9, 9, 9, 9]
    m2 = [0.010, 0.070, 0.227, 0.480, 0.789, 1.173, 1.770, 2.751, 4.412, 8.319]
    m0_m2 = [7, 8, 9, 9, 10, 10, 10, 10, 10, 10]
    for i, row in enumerate(rows):
        assert int(row[0]) == i + 1
        assert float(row[1]) == pytest.approx(means[i], abs=2e-3)
        assert int(row[2]) == m0_mean[i]
        assert float(row[3]) == pytest.approx(m2[i], abs=2e-3)
        assert int(row[4]) == m0_m2[i]
        assert float(row[5]) == pytest.approx(m2[i] - means[i] ** 2, abs=5e-3)
    assert "# model n=10" in err


def test_orderstat_multinomial_exact(tmp_path, capsys):
    cfg = {
        "model": {"kind": "multinomial", "trials": 20, "probs": [0.1] * 10},
        "requests": {"ranks": [1, 10], "moments": [1]},
    }
    code, out, _ = run_cli(capsys, ["orderstat", "--config", write_cfg(tmp_path, cfg), "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["r", "p1"]  # exact run: no M0 columns, no var without p=2
    assert float(rows[0][1]) == pytest.approx(0.215, abs=1e-3)
    assert float(rows[1][1]) == pytest.approx(4.410, abs=1e-3)


def test_orderstat_full_precision_roundtrip(tmp_path, capsys):
    cfg = {
        "model": {"kind": "multinomial", "trials": 6, "probs": [0.2, 0.3, 0.5]},
        "requests": {"ranks": [2], "moments": [2]},
    }
    code, out, _ = run_cli(
        capsys,
        ["orderstat", "--config", write_cfg(tmp_path, cfg), "--format", "csv", "--precision", "full"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    model = multinomial_pmf(6, [0.2, 0.3, 0.5])
    want = exact_moment_finite(model, MomentRequest(r=2, n=3, p=2)).value
    assert float(rows[0][1]) == want  # repr round-trips exactly


def test_orderstat_d_flag_override(tmp_path, capsys):
    cfg = {
        "model": {"kind": "independent", "marginal": {"dist": "poisson", "lam": 1.0}, "count": 10},
        "requests": {"ranks": [10], "moments": [2], "d": 0.5},
    }
    path = write_cfg(tmp_path, cfg)
    code, out, _ = run_cli(capsys, ["orderstat", "--config", path, "--format", "csv", "--d", "0.0005"])
    assert code == 0
    _, rows = parse_csv(out)
    assert int(rows[0][2]) == 10  # the tighter flag bound wins over the config d


def test_d_flag_overrides_both_request_forms(tmp_path, capsys):
    model = {"kind": "independent", "marginal": {"dist": "poisson", "lam": 2.0}, "count": 3}
    forms = {
        "mapping": {"ranks": [3], "moments": [1], "d": 0.1},
        "list": [{"r": 3, "p": 1, "d": 0.1}],
    }
    m0 = {}
    for name, requests in forms.items():
        path = write_cfg(tmp_path, {"model": model, "requests": requests}, f"{name}.yaml")
        code, out, _ = run_cli(capsys, ["orderstat", "--config", path, "--format", "csv", "--d", "1e-9"])
        assert code == 0
        header, rows = parse_csv(out)
        m0[name] = int(rows[0][header.index("M0_p1")])
    assert m0["list"] == m0["mapping"] == 16


def _marginal_spec(dist):
    if isinstance(dist, Poisson):
        return {"dist": "poisson", "lam": dist.lam}
    if isinstance(dist, NegBin):
        return {"dist": "negbin", "R": dist.R, "p": dist.p}
    return {"dist": "geometric", "pi": dist.pi}


def _library_plan(margs, req):
    if all(isinstance(m, Poisson) for m in margs):
        return plan_poisson([m.lam for m in margs], req)
    if all(isinstance(m, NegBin) for m in margs):
        return plan_negbin(margs[0].R, [m.p for m in margs], req)
    j0 = max(range(len(margs)), key=lambda j: (margs[j].mean(), -j)) + 1
    return plan_generic(lambda m: margs[j0 - 1].tail_moment(req.p, m), req, j0)


@pytest.mark.parametrize(
    "margs",
    [
        [Poisson(1.0), Poisson(2.5), Poisson(0.7), Poisson(2.5)],
        [NegBin(2.0, 0.4), NegBin(2.0, 0.25), NegBin(2.0, 0.6)],
        [Poisson(3.0), NegBin(1.0, 0.3), Geometric(0.4)],
    ],
    ids=["poisson", "negbin_shared_R", "mixed"],
)
def test_orderstat_m0_columns_match_library_planners(tmp_path, capsys, margs):
    n, d = len(margs), 1e-4
    cfg = {
        "model": {"kind": "independent", "marginals": [_marginal_spec(m) for m in margs]},
        "requests": {"moments": [1, 2, 3], "d": d},
    }
    code, out, _ = run_cli(capsys, ["orderstat", "--config", write_cfg(tmp_path, cfg), "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    for row in rows:
        r = int(row[0])
        for p in (1, 2, 3):
            plan = _library_plan(margs, MomentRequest(r=r, n=n, p=p, d=d))
            assert int(row[header.index(f"M0_p{p}")]) == plan.M0, f"r={r} p={p}"


def test_orderstat_explicit_request_list(tmp_path, capsys):
    cfg = {
        "model": {"kind": "finite", "points": [[0, 0], [0, 1], [1, 1]], "probs": [0.25, 0.5, 0.25]},
        "requests": [{"r": 2, "p": 1}],
    }
    code, out, _ = run_cli(capsys, ["orderstat", "--config", write_cfg(tmp_path, cfg), "--format", "csv"])
    assert code == 0
    _, rows = parse_csv(out)
    # max of the pair: 0 w.p. 0.25, 1 w.p. 0.75
    assert float(rows[0][1]) == pytest.approx(0.75, abs=1e-9)


def test_orderstat_ranks_with_different_moments_share_one_header(tmp_path, capsys):
    # the header came from the first rank, so E X_{2:2}^2 = 1.75 sat under p1
    cfg = {
        "model": {"kind": "finite", "points": [[0, 1], [2, 0], [1, 1]], "probs": [0.25, 0.25, 0.5]},
        "requests": [{"r": 1, "p": 1}, {"r": 2, "p": 2}],
    }
    code, out, _ = run_cli(capsys, ["orderstat", "--config", write_cfg(tmp_path, cfg), "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["r", "p1", "p2", "var"]
    assert all(len(row) == len(header) for row in rows)
    assert rows == [["1", "0.500", "", ""], ["2", "", "1.750", ""]]


# ---------------------------------------------------------------------------
# system and signature
# ---------------------------------------------------------------------------

def test_system_mvg_bridge_golden(tmp_path, capsys):
    cfg = {
        "model": {
            "kind": "mvg",
            "n": 5,
            "theta": {"1": 0.9, "3": 0.8, "1,4,5": 0.99, "2,3,5": 0.99},
        },
        "structure": BRIDGE_STRUCTURE,
        "requests": {"moments": [1, 2]},
    }
    code, out, _ = run_cli(capsys, ["system", "--config", write_cfg(tmp_path, cfg), "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["p1", "p2", "var"]
    row = rows[0]
    assert float(row[0]) == pytest.approx(49.251, abs=1e-3)
    assert float(row[2]) == pytest.approx(2474.938, abs=1e-3)


def test_system_mvg_levels(tmp_path, capsys):
    cfg = {
        "model": {"kind": "mvg", "n": 10, "levels": [0.9, 0.99] + [1.0] * 8},
        "structure": {"n": 10, "path_sets": [[i for i in range(1, 11)]]},
        "requests": {"moments": [1, 2]},
    }
    code, out, _ = run_cli(capsys, ["system", "--config", write_cfg(tmp_path, cfg), "--format", "csv"])
    assert code == 0
    _, rows = parse_csv(out)
    # series system of 10: lifetime is the sample minimum
    assert float(rows[0][0]) == pytest.approx(0.285, abs=1e-3)
    assert float(rows[0][2]) == pytest.approx(0.366, abs=1e-3)


def test_system_poisson_truncated(tmp_path, capsys):
    cfg = {
        "model": {"kind": "independent", "marginal": {"dist": "poisson", "lam": 1.0}, "count": 5},
        "structure": BRIDGE_STRUCTURE,
        "requests": {"moments": [1], "d": 0.0005},
    }
    code, out, _ = run_cli(capsys, ["system", "--config", write_cfg(tmp_path, cfg), "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["p1", "M0_p1"]
    assert float(rows[0][0]) == pytest.approx(0.877, abs=2e-3)
    assert int(rows[0][1]) == 6


def test_signature_bridge(tmp_path, capsys):
    cfg = {"structure": dict(BRIDGE_STRUCTURE, samaniego=["0", "1/5", "3/5", "1/5", "0"])}
    code, out, _ = run_cli(capsys, ["signature", "--config", write_cfg(tmp_path, cfg), "--format", "csv"])
    assert code == 0
    _, rows = parse_csv(out)
    alpha = [int(r[2]) for r in rows if r[0] == "alpha"]
    assert alpha == [0, 2, 2, -5, 2]
    sam = [int(r[2]) for r in rows if r[0] == "alpha_from_samaniego"]
    assert sam == alpha
    subsets = {r[1]: int(r[2]) for r in rows if r[0] == "alpha_subset"}
    assert subsets["1,2"] == 1
    assert subsets["1,2,3,4,5"] == 2
    assert subsets["1,2,3,4"] == -1
    assert sum(subsets.values()) == 1


def test_signature_table_format(tmp_path, capsys):
    cfg = {"structure": {"n": 2, "path_sets": [[1], [2]], "cut_sets": [[1, 2]]}}
    code, out, _ = run_cli(capsys, ["signature", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["section", "key", "value"]
    assert any("beta" in line for line in lines[1:])


def test_signature_transforms_each_family_once(tmp_path, capsys, monkeypatch):
    transforms = []
    original = systems._collection_coefficients

    def counted(family, n):
        transforms.append(family)
        return original(family, n)

    monkeypatch.setattr(systems, "_collection_coefficients", counted)
    both = dict(BRIDGE_STRUCTURE, cut_sets=[[1, 4], [2, 3], [1, 3, 5], [2, 4, 5]])
    for structure, want in ((BRIDGE_STRUCTURE, 1), (both, 2)):
        transforms.clear()
        code, out, _ = run_cli(capsys, ["signature", "--config", write_cfg(tmp_path, {"structure": structure}),
                                        "--format", "csv"])
        assert code == 0
        assert len(transforms) == want
        _, rows = parse_csv(out)
        assert [int(r[2]) for r in rows if r[0] == "alpha"] == [0, 2, 2, -5, 2]
        assert len([r for r in rows if r[0] == "beta"]) == (5 if want == 2 else 0)


def test_mvg_closed_forms_computed_once_per_rank_or_structure(tmp_path, capsys, monkeypatch):
    # moments [1, 2] build one coefficient table (a Mobius transform) per
    # structure, kept on it for every grid point of a sweep, and read
    # factorial moments 1 and 2 once per rank, not once more for every
    # requested p
    transforms, factorials = [], []

    def counted(calls, fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(systems, "_mobius", counted(transforms, systems._mobius))
    monkeypatch.setattr(orderstats, "mvg_orderstat_factorial_moment",
                        counted(factorials, orderstats.mvg_orderstat_factorial_moment))
    model = {"kind": "mvg", "n": 5, "theta": {"1": 0.9, "3": 0.8, "1,4,5": 0.99, "2,3,5": 0.99}}
    params = cli.build_mvg_params(model)
    runs = [
        ("system", {"model": model, "structure": BRIDGE_STRUCTURE, "requests": {"moments": [1, 2]}}, 1, 0),
        ("sweep", {"structure": BRIDGE_STRUCTURE,
                   "sweep": {"family": "geometric", "values": [0.05, 0.1, 0.15, 0.2]}}, 1, 0),
        ("orderstat", {"model": model, "requests": {"moments": [1, 2]}}, 0, 10),
    ]
    for command, cfg, want_transforms, want_factorials in runs:
        transforms.clear()
        factorials.clear()
        argv = [command, "--config", write_cfg(tmp_path, cfg), "--format", "csv", "--precision", "full"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert (len(transforms), len(factorials)) == (want_transforms, want_factorials), command
        if command == "system":
            _, rows = parse_csv(out)
            structure = cli.build_structure(BRIDGE_STRUCTURE)
            raws = factorial_to_raw([system_moment_mvg(params, structure, q) for q in (1, 2)])
            assert [float(v) for v in rows[0][:2]] == raws
    _, rows = parse_csv(out)
    for r, row in enumerate(rows, start=1):
        raws = factorial_to_raw([mvg_orderstat_factorial_moment(params, r, 5, q) for q in (1, 2)])
        assert [float(row[1]), float(row[2])] == raws


# ---------------------------------------------------------------------------
# sweep and validate
# ---------------------------------------------------------------------------

def test_sweep_geometric_single_point(tmp_path, capsys):
    cfg = {
        "structure": BRIDGE_STRUCTURE,
        "sweep": {"family": "geometric", "values": [0.5]},
    }
    code, out, _ = run_cli(capsys, ["sweep", "--config", write_cfg(tmp_path, cfg), "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["pi", "ET", "ET2", "var"]
    assert float(rows[0][1]) == pytest.approx(0.683564, abs=1e-3)
    var = float(rows[0][3])
    assert var == pytest.approx(float(rows[0][2]) - float(rows[0][1]) ** 2, abs=2e-3)


def test_sweep_empty_grid(tmp_path, capsys):
    cfg = {"structure": BRIDGE_STRUCTURE, "sweep": {"family": "geometric", "values": []}}
    code, out, err = run_cli(capsys, ["sweep", "--config", write_cfg(tmp_path, cfg), "--format", "csv"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["pi", "ET", "ET2", "var"]
    assert rows == []
    assert "emitted=0" in err


def test_sweep_poisson_family(tmp_path, capsys):
    cfg = {
        "structure": BRIDGE_STRUCTURE,
        "sweep": {"family": "poisson", "values": [1.0], "moments": [1, 2], "d": 0.0005},
    }
    code, out, _ = run_cli(capsys, ["sweep", "--config", write_cfg(tmp_path, cfg), "--format", "csv"])
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == pytest.approx(0.877, abs=2e-3)
    assert float(rows[0][2]) == pytest.approx(1.246, abs=2e-3)


def test_validate_passes_and_exits_zero(tmp_path, capsys):
    cfg = {
        "model": {
            "kind": "independent",
            "marginals": [{"dist": "finite", "probs": [0.5, 0.5]}] * 2,
        },
        "structure": {"n": 2, "path_sets": [[1], [2]]},
        "validate": {"p": 1, "samples": 50_000},
    }
    code, out, _ = run_cli(
        capsys, ["validate", "--config", write_cfg(tmp_path, cfg), "--format", "csv", "--seed", "3"]
    )
    assert code == 0
    _, rows = parse_csv(out)
    by_check = {r[0]: r for r in rows}
    assert by_check["mc_3sigma"][1] == "PASS"
    assert by_check["enumerate"][1] == "PASS"
    assert float(by_check["enumerate"][2]) == pytest.approx(0.75, abs=1e-12)


def test_validate_rank_statistic(tmp_path, capsys):
    cfg = {
        "model": {"kind": "multinomial", "trials": 4, "probs": [0.2, 0.3, 0.5]},
        "validate": {"rank": 2, "p": 2, "samples": 30_000},
    }
    code, out, _ = run_cli(capsys, ["validate", "--config", write_cfg(tmp_path, cfg), "--format", "csv"])
    assert code == 0
    _, rows = parse_csv(out)
    assert all(r[1] == "PASS" for r in rows)


_BRIDGE_MVG = {"kind": "mvg", "n": 5, "theta": {
    "1": 0.6, "2": 0.7, "3": 0.5, "4": 0.8, "5": 0.65, "1,2": 0.9, "2,3,4": 0.85, "1,2,3,4,5": 0.95,
}}

# validate stdout at --seed 7, recorded from the oracle that drew every
# multinomial point and reduced statistics with fresh arrays
PINNED_VALIDATE = [
    ({"model": {"kind": "independent", "marginals": [{"dist": "poisson", "lam": x} for x in (1.0, 2.0, 3.0, 4.0, 5.0)]},
      "structure": BRIDGE_STRUCTURE, "validate": {"p": 1, "samples": 20_000, "d": 1e-6}},
     "check,status,analytic,estimate,tolerance\n"
     "mc_3sigma,PASS,2.7279555131887414,2.72295,0.026022890759276086\n"),
    ({"model": {"kind": "multinomial", "trials": 6, "probs": [0.25, 0.25, 0.5]},
      "validate": {"rank": 3, "p": 1, "samples": 20_000}},
     "check,status,analytic,estimate,tolerance\n"
     "mc_3sigma,PASS,3.4658203124999982,3.45685,0.017968396647303805\n"
     "enumerate,PASS,3.4658203124999982,3.4658203125000004,1e-09\n"),
    ({"model": _BRIDGE_MVG, "structure": BRIDGE_STRUCTURE, "validate": {"p": 1, "samples": 20_000}},
     "check,status,analytic,estimate,tolerance\n"
     "mc_3sigma,PASS,0.8954800703373468,0.90505,0.022237361555092795\n"),
]


@pytest.mark.parametrize("cfg, want", PINNED_VALIDATE, ids=["poisson_bridge", "multinomial_rank", "mvg_bridge"])
def test_validate_output_is_pinned(tmp_path, capsys, cfg, want):
    argv = ["validate", "--config", write_cfg(tmp_path, cfg), "--format", "csv", "--seed", "7"]
    assert run_cli(capsys, argv)[:2] == (0, want)


def test_validate_note_names_the_numpy_version(tmp_path, capsys):
    # a seeded run depends on numpy's samplers, so the provenance names them
    cfg, _ = PINNED_VALIDATE[1]
    argv = ["validate", "--config", write_cfg(tmp_path, cfg), "--format", "csv", "--seed", "7"]
    code, _, err = run_cli(capsys, argv)
    assert code == 0
    assert err.splitlines()[-1] == (
        f"# validate rank 3 p=1 samples=20000 seed=7 rng=numpy {np.__version__} default_rng (PCG64)"
    )


# ---------------------------------------------------------------------------
# failure exit codes
# ---------------------------------------------------------------------------

def test_exit_2_missing_config(capsys):
    code, _, err = run_cli(capsys, ["orderstat", "--config", "/nonexistent/cfg.yaml"])
    assert code == 2
    assert "config error" in err


def test_exit_2_bad_model_kind(tmp_path, capsys):
    cfg = {"model": {"kind": "quantum"}, "requests": {"moments": [1]}}
    code, _, err = run_cli(capsys, ["orderstat", "--config", write_cfg(tmp_path, cfg)])
    assert code == 2
    assert "config error" in err


def test_exit_2_infinite_support_without_d(tmp_path, capsys):
    cfg = {
        "model": {"kind": "independent", "marginal": {"dist": "poisson", "lam": 1.0}, "count": 3},
        "requests": {"ranks": [1], "moments": [1]},
    }
    code, _, err = run_cli(capsys, ["orderstat", "--config", write_cfg(tmp_path, cfg)])
    assert code == 2
    assert "error bound" in err
    # the CLI names its own ways to give the bound
    assert "requests.d" in err and "--d" in err


def test_missing_bound_names_the_config_key_and_flag_on_stderr(tmp_path, capsys):
    cfg = {"model": POISSON3, "structure": {"n": 3, "path_sets": [[1, 2], [2, 3]]},
           "requests": [{"p": 1, "d": 1e-3}, {"p": 2}]}
    code, out, err = run_cli(capsys, ["system", "--config", write_cfg(tmp_path, cfg)])
    assert (code, out) == (2, "")
    assert err.strip() == (
        "# config error: p=2: infinite support needs an error bound d: set requests.d in the config or pass --d"
    )
    code, out, _ = run_cli(capsys, ["system", "--config", write_cfg(tmp_path, cfg), "--d", "1e-3"])
    assert code == 0 and out


def test_cells_make_one_moments_call_per_statistic(monkeypatch):
    factorials = []
    original = orderstats.mvg_orderstat_factorial_moment

    def counted(*args):
        factorials.append(args)
        return original(*args)

    monkeypatch.setattr(orderstats, "mvg_orderstat_factorial_moment", counted)
    mvg_model = cli.build_model(REQUEST_CHECK_MODELS["mvg"])
    cells = cli._cells(mvg_model, 2, [(1, 0.1), (2, 0.01)])
    assert len(factorials) == 2  # moments 1 and 2 once, whatever the bounds
    raws = factorial_to_raw([original(mvg_model.params, 2, 3, q) for q in (1, 2)])
    assert cells == {1: {"value": raws[0], "M0": None}, 2: {"value": raws[1], "M0": None}}
    # a truncated series keeps each moment's own bound; the last request wins
    poisson = cli.build_model(POISSON3)
    cells = cli._cells(poisson, 2, [(1, 0.5), (2, 1e-4), (1, 1e-6)])
    for p, d in ((1, 1e-6), (2, 1e-4)):
        res = approx_moment(poisson, MomentRequest(r=2, n=3, p=p, d=d))
        assert cells[p] == {"value": res.value, "M0": res.M0_used}


def test_exit_3_capacity(tmp_path, capsys):
    n = 26
    cfg = {"structure": {"n": n, "path_sets": [[i] for i in range(1, n + 1)]}}
    code, _, err = run_cli(capsys, ["signature", "--config", write_cfg(tmp_path, cfg)])
    assert code == 3
    assert "capacity error" in err


REQUEST_CHECK_MODELS = {
    "mvg": {"kind": "mvg", "n": 3, "levels": [0.9, 0.95, 0.99]},
    "finite": {"kind": "finite", "points": [[0, 0, 0], [1, 1, 1], [0, 1, 2]], "probs": [0.3, 0.3, 0.4]},
    "poisson": {"kind": "independent", "marginal": {"dist": "poisson", "lam": 1.0}, "count": 3},
}


@pytest.mark.parametrize("kind", list(REQUEST_CHECK_MODELS))
@pytest.mark.parametrize("command", ["orderstat", "system"])
@pytest.mark.parametrize("request_, message", [
    pytest.param({"moments": [1], "d": -1}, "error bound d=-1.0 must be positive", id="d_negative"),
    pytest.param({"moments": [0], "d": 1e-3}, "moment order p=0 must be >= 1", id="p_zero"),
])
def test_exit_2_bad_request_on_every_model_kind(tmp_path, capsys, kind, command, request_, message):
    # the checks run before the route is chosen: closed form, exact or truncated
    cfg = {"model": REQUEST_CHECK_MODELS[kind], "requests": request_}
    if command == "system":
        cfg["structure"] = {"n": 3, "path_sets": [[1, 2], [2, 3]]}
    code, out, err = run_cli(capsys, [command, "--config", write_cfg(tmp_path, cfg)])
    assert (code, out) == (2, "")
    assert message in err


POISSON3 = REQUEST_CHECK_MODELS["poisson"]
FINITE3 = REQUEST_CHECK_MODELS["finite"]


@pytest.mark.parametrize("command, cfg", [
    pytest.param("orderstat", {"model": POISSON3, "requests": {"ranks": [1.5], "d": 1e-3}}, id="ranks"),
    pytest.param("orderstat", {"model": POISSON3, "requests": {"moments": [1.7], "d": 1e-3}}, id="moments"),
    pytest.param("orderstat", {"model": POISSON3, "requests": [{"r": 2.9, "p": 1, "d": 1e-3}]}, id="r"),
    pytest.param("orderstat", {"model": POISSON3, "requests": [{"r": 1, "p": 2.0, "d": 1e-3}]}, id="p"),
    pytest.param("orderstat", {"model": {**POISSON3, "count": 3.0}, "requests": {"d": 1e-3}}, id="count"),
    pytest.param("orderstat", {"model": {"kind": "multinomial", "trials": 4.5, "probs": [0.5, 0.5]}},
                 id="trials"),
    pytest.param("orderstat", {"model": {"kind": "mvg", "n": 3.0, "levels": [0.9, 0.95, 0.99]}}, id="mvg_n"),
    pytest.param("system", {"model": FINITE3, "structure": {"n": 3.0, "path_sets": [[1, 2], [2, 3]]}},
                 id="structure_n"),
    pytest.param("validate", {"model": FINITE3, "validate": {"rank": 1.5}}, id="validate_rank"),
    pytest.param("validate", {"model": FINITE3, "validate": {"p": 1.0}}, id="validate_p"),
    pytest.param("validate", {"model": FINITE3, "validate": {"samples": 1000.5}}, id="validate_samples"),
])
def test_exit_2_non_integer_field(tmp_path, capsys, command, cfg):
    # each of these ran at a truncated value and exited 0
    code, out, err = run_cli(capsys, [command, "--config", write_cfg(tmp_path, cfg)])
    assert (code, out) == (2, "")
    assert "is not an integer" in err


@pytest.mark.parametrize("model, message", [
    ("{kind: independent, marginals: [{dist: finite, probs: [.nan, 1.0]}, {dist: finite, probs: [1.0]}]}",
     "FinitePMF entries must be non-negative"),
    ("{kind: finite, points: [[0, 0], [1, 1]], probs: [.nan, 1.0]}", "probabilities must be non-negative"),
    # refused when the model is built, not by the Poisson cells of its first read
    ("{kind: multinomial, trials: 3, probs: [.nan, 1.0]}", "all cell probabilities must be positive"),
], ids=["finite_marginal", "finite", "multinomial"])
def test_exit_2_nan_probability(tmp_path, capsys, model, message):
    path = tmp_path / "cfg.yaml"
    path.write_text(f"model: {model}\nrequests: {{ranks: [1], moments: [1]}}\n")
    code, out, err = run_cli(capsys, ["orderstat", "--config", str(path)])
    assert (code, out) == (2, "")
    assert message in err


def test_exit_2_invalid_yaml(tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text("model: {kind: independent, marginals: [\n")
    code, out, err = run_cli(capsys, ["orderstat", "--config", str(path)])
    assert (code, out) == (2, "")
    assert "is not valid YAML" in err


# every config shape the CLI tests write: safe_dump output and hand-written text
_CONFIG_TEXTS = [
    yaml.safe_dump({"model": {"kind": "finite", "points": [[0, 0], [1, 1]], "probs": [0.5, 0.5]},
                    "requests": [{"r": 1, "p": 2, "d": 1e-06}], "validate": {"samples": 50_000}}),
    yaml.safe_dump({"structure": {"n": 5, "samaniego": ["0", "1/5", "3/5", "1/5", "0"]},
                    "model": {"kind": "mvg", "n": 2, "theta": {"1": 0.8, "1,2": 0.9}}}),
    "model: {kind: finite, points: [[0, 0], [1, 1]], probs: [.nan, 1.0]}\n"
    "requests: {ranks: [1], moments: [1], d: 1e-06}\n"
    "structure: {n: 5, samaniego: [\"0\", \"1/5\", \"3/5\", \"1/5\", \"0\"], path_sets: [[1, 2], [3, 4]]}\n",
]


@pytest.mark.parametrize("text", _CONFIG_TEXTS, ids=["dumped_finite", "dumped_mvg", "hand_written"])
def test_yaml_loaders_read_configs_alike(tmp_path, text):
    libyaml = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert cli._YAML_LOADER is libyaml
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    # repr, since .nan != .nan
    assert repr(cli.load_config(str(path))) == repr(yaml.load(text, Loader=yaml.SafeLoader))
    assert repr(yaml.load(text, Loader=libyaml)) == repr(yaml.load(text, Loader=yaml.SafeLoader))


def test_count_form_shares_one_marginal(monkeypatch):
    want = IndependentMarginals([Poisson(1.0) for _ in range(5)]).class_counts(40)
    built = []
    cdf_array = MarginalDist.cdf_array
    monkeypatch.setattr(MarginalDist, "cdf_array", lambda d, m: built.append(d) or cdf_array(d, m))
    model = cli.build_model({"kind": "independent", "marginal": {"dist": "poisson", "lam": 1.0}, "count": 5})
    assert np.array_equal(model.class_counts(40), want)
    assert len(built) == 1 and all(d is built[0] for d in model.marginals)


def test_exit_4_numeric(tmp_path, capsys):
    cfg = {
        "model": {"kind": "independent", "marginal": {"dist": "poisson", "lam": 1.0}, "count": 5},
        "requests": {"ranks": [1], "moments": [1], "d": 1e-320},
    }
    code, _, err = run_cli(capsys, ["orderstat", "--config", write_cfg(tmp_path, cfg)])
    assert code == 4
    assert "numeric error" in err


def test_exit_4_mvg_counts_beyond_float(tmp_path, capsys):
    cfg = {
        "model": {"kind": "mvg", "n": 1100, "levels": [0.7] + [1.0] * 1099},
        "requests": {"ranks": [550], "moments": [1]},
    }
    code, out, err = run_cli(capsys, ["orderstat", "--config", write_cfg(tmp_path, cfg)])
    assert code == 4
    assert "numeric error" in err and "float range" in err


def test_module_entry_smoke(tmp_path):
    cfg = {
        "model": {"kind": "multinomial", "trials": 4, "probs": [0.5, 0.5]},
        "requests": {"ranks": [1], "moments": [1]},
    }
    path = write_cfg(tmp_path, cfg)
    # the child imports the package under test, installed or not
    src = str(Path(lifemoments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "lifemoments", "orderstat", "--config", path, "--format", "csv"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header[0] == "r"
    assert len(rows) == 1
