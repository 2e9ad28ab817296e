"""Config-driven experiment runs, aggregation and the command line."""

import copy
import json
import re

import numpy as np
import pytest

from pacbayes import ConfigError, aggregate, run_experiment, tasks_from_json
from pacbayes.cli import main
from pacbayes.solver import SolverTrace, TraceRecord

from _oracles import sort_quantile


def supac_config(output_dir, repeats=2):
    return {
        "method": "supac_ce",
        "family": {"structure": "full", "predictor_dim": 1},
        "risk": {"kind": "quadratic_in_f", "eta": [0.3, 0.1]},
        "prior": "standard",
        "supac_ce": {
            "lambda": 1.0,
            "kl_max": 0.5,
            "alpha_max": 1.0,
            "n_initial_queries": 16,
            "n_queries_per_step": 4,
            "n_mc_weights": 200,
            "max_steps": 10,
        },
        "repeats": repeats,
        "master_seed": 7,
        "output_dir": str(output_dir),
    }


def write_trace(path, objs, grid=None):
    trace = SolverTrace()
    grid = grid if grid is not None else 10 * (1 + np.arange(len(objs)))
    for step, (q, obj) in enumerate(zip(grid, objs)):
        trace.append(
            TraceRecord(
                step=step,
                queries=int(q),
                obj_cat=float(obj),
                pb_cat=float(obj) + 1.0,
                kl_to_prior=0.1,
                alpha=0.5,
                theta=np.zeros(2),
            )
        )
    trace.to_csv(path)


def test_validation_rejects_unknown_method(tmp_path):
    cfg = supac_config(tmp_path)
    cfg["method"] = "sgd_fancy"
    with pytest.raises(ConfigError, match="method") as info:
        run_experiment(cfg)
    assert info.value.field == "method"


def test_validation_requires_matching_method_block(tmp_path):
    cfg = supac_config(tmp_path)
    cfg["gd"] = {"lambda": 1.0, "step_size": 0.1}
    with pytest.raises(ConfigError, match="exactly one method block"):
        run_experiment(cfg)
    cfg2 = supac_config(tmp_path)
    del cfg2["supac_ce"]
    with pytest.raises(ConfigError):
        run_experiment(cfg2)


def test_validation_field_errors(tmp_path):
    cfg = supac_config(tmp_path)
    cfg["repeats"] = 0
    with pytest.raises(ConfigError, match="repeats"):
        run_experiment(cfg)
    cfg = supac_config(tmp_path)
    cfg["supac_ce"]["weighting"] = "nearest"
    with pytest.raises(ConfigError, match="supac_ce"):
        run_experiment(cfg)
    cfg = supac_config(tmp_path)
    cfg["risk"] = {"kind": "mystery"}
    with pytest.raises(ConfigError, match="risk.kind"):
        run_experiment(cfg)
    cfg = supac_config(tmp_path)
    cfg["tasks"] = {"n_tasks": 3}
    with pytest.raises(ConfigError, match="tasks"):
        run_experiment(cfg)
    cfg = supac_config(tmp_path)
    cfg["typo_key"] = 1
    with pytest.raises(ConfigError, match="typo_key"):
        run_experiment(cfg)


def test_risk_errors_name_their_field(tmp_path):
    tanh = {"kind": "tanh_synthetic", "omega": 1.0, "a_matrix": [[1.0]], "x0": [0.0]}
    cases = [
        ({"kind": "tanh_synthetic", "omega": 1.0}, "risk.a_matrix"),
        (dict(tanh, scale=2.0), "risk.scale"),
        ({"kind": "quadratic_in_f", "eta": [0.3, 0.1], "scale": 2.0}, "risk.scale"),
        ({"kind": "mystery"}, "risk.kind"),
    ]
    for risk, field in cases:
        with pytest.raises(ConfigError) as info:
            run_experiment(dict(supac_config(tmp_path), risk=risk))
        assert info.value.field == field
        # the field leads the message, and its prefix is written once
        assert str(info.value).startswith(field + ": ")
        assert str(info.value).count("risk.") == 1, str(info.value)
    # the task codec is the same parser, without the config prefix
    for risk, field in [({"kind": "mystery"}, "kind"), ({"kind": "tanh_synthetic"}, "omega")]:
        with pytest.raises(ConfigError) as info:
            tasks_from_json(json.dumps([{"lambda": 0.1, "risk": risk}]))
        assert info.value.field == field


def test_supac_run_writes_artifacts_and_converges_fast(tmp_path):
    cfg = supac_config(tmp_path, repeats=2)
    cfg["supac_ce"]["kl_max"] = float("inf")
    manifest = run_experiment(cfg)
    names = set(manifest["outputs"])
    assert names == {
        "trace_000.csv",
        "trace_001.csv",
        "stack_000.csv",
        "stack_001.csv",
        "posterior_000.json",
        "posterior_001.json",
    }
    assert (tmp_path / "manifest.json").exists()
    # in-span risk without a trust region: optimum at step 0, stop at step 1
    trace = SolverTrace.from_csv(tmp_path / "trace_000.csv")
    assert len(trace) == 2
    assert manifest["quantile_method"] == "linear"


def test_reruns_are_byte_identical(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    digests = []
    for d in dirs:
        manifest = run_experiment(supac_config(d))
        digests.append(manifest["outputs"])
    assert digests[0] == digests[1]
    for name in digests[0]:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_rerun_from_manifest_reproduces_outputs(tmp_path):
    first = run_experiment(supac_config(tmp_path / "a"))
    manifest_path = tmp_path / "a" / "manifest.json"
    second = run_experiment(json.loads(manifest_path.read_text()), output_dir=tmp_path / "b")
    assert first["outputs"] == second["outputs"]


def test_gd_and_nesterov_methods_run(tmp_path):
    cfg = {
        "method": "gd",
        "family": {"structure": "diag", "predictor_dim": 2},
        "risk": {"kind": "quadratic_in_f", "eta": [0.2, 0.1, 0.05, 0.0]},
        "gd": {"lambda": 0.5, "step_size": 0.05, "per_step": 32, "max_queries": 160, "diag_samples": 20},
        "repeats": 1,
        "master_seed": 3,
        "output_dir": str(tmp_path / "gd"),
    }
    manifest = run_experiment(cfg)
    assert "trace_000.csv" in manifest["outputs"]
    trace = SolverTrace.from_csv(tmp_path / "gd" / "trace_000.csv")
    np.testing.assert_array_equal(trace.query_grid, [32, 64, 96, 128, 160])

    cfg_nesterov = dict(cfg)
    cfg_nesterov["method"] = "nesterov"
    cfg_nesterov["nesterov"] = dict(cfg.pop("gd"), momentum=0.5)
    del cfg_nesterov["gd"]
    cfg_nesterov["output_dir"] = str(tmp_path / "nesterov")
    run_experiment(cfg_nesterov)

    bad = dict(cfg_nesterov)
    bad["nesterov"] = dict(bad["nesterov"], momentum=0.0)
    with pytest.raises(ConfigError, match="momentum"):
        run_experiment(bad)


def test_sampled_risk_differs_across_repeats(tmp_path):
    cfg = {
        "method": "supac_ce",
        "family": {"structure": "full", "predictor_dim": 3},
        "risk": {"kind": "tanh_synthetic", "sampled": True},
        "supac_ce": {
            "lambda": 0.1,
            "n_initial_queries": 30,
            "n_queries_per_step": 5,
            "n_mc_weights": 100,
            "max_steps": 2,
            "record_trace": False,
        },
        "repeats": 2,
        "master_seed": 5,
        "output_dir": str(tmp_path),
    }
    manifest = run_experiment(cfg)
    stacks = [manifest["outputs"][f"stack_{r:03d}.csv"] for r in range(2)]
    assert stacks[0] != stacks[1]


def meta_config(output_dir):
    return {
        "method": "meta",
        "family": {"structure": "diag", "predictor_dim": 3},
        "tasks": {"n_tasks": 3, "lambda": 0.1},
        "meta": {
            "epochs": 2,
            "batch_size": 3,
            "inner_first": {
                "lambda": 0.1,
                "n_initial_queries": 30,
                "n_queries_per_step": 10,
                "n_mc_weights": 100,
                "max_steps": 3,
                "record_trace": False,
            },
            "inner_warm": {
                "lambda": 0.1,
                "n_initial_queries": 10,
                "n_queries_per_step": 5,
                "n_mc_weights": 100,
                "max_steps": 2,
                "record_trace": False,
            },
        },
        "repeats": 1,
        "master_seed": 11,
        "output_dir": str(output_dir),
    }


def test_meta_method_runs(tmp_path):
    manifest = run_experiment(meta_config(tmp_path))
    assert set(manifest["outputs"]) == {"meta_trace_000.csv", "prior_000.json"}


def test_aggregate_single_trace_is_identity(tmp_path):
    objs = [3.0, 2.0, 1.5, 1.2]
    write_trace(tmp_path / "trace_000.csv", objs)
    grid, table = aggregate(tmp_path, quantiles=(0.2, 0.5, 0.8))
    np.testing.assert_array_equal(grid, [10, 20, 30, 40])
    for col in range(3):
        np.testing.assert_allclose(table[:, col], objs)


def test_aggregate_median_and_quantiles_match_sort_oracle(tmp_path):
    write_trace(tmp_path / "trace_000.csv", [1.0])
    write_trace(tmp_path / "trace_001.csv", [2.0])
    write_trace(tmp_path / "trace_002.csv", [3.0])
    _, table = aggregate(tmp_path, quantiles=(0.5,))
    assert table[0, 0] == pytest.approx(2.0)

    rng = np.random.default_rng(13)
    deep = tmp_path / "many"
    deep.mkdir()
    values = rng.standard_normal((20, 6))
    for r in range(20):
        write_trace(deep / f"trace_{r:03d}.csv", values[r])
    grid, table = aggregate(deep, quantiles=(0.2, 0.8))
    for j in range(6):
        assert table[j, 0] == pytest.approx(sort_quantile(values[:, j], 0.2), rel=1e-12)
        assert table[j, 1] == pytest.approx(sort_quantile(values[:, j], 0.8), rel=1e-12)


def test_aggregate_order_invariance_and_output_file(tmp_path):
    rng = np.random.default_rng(17)
    values = rng.standard_normal((4, 3))
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for r in range(4):
        write_trace(a / f"trace_{r:03d}.csv", values[r])
        # same traces under permuted file names
        write_trace(b / f"trace_{3 - r:03d}.csv", values[r])
    out_a, out_b = tmp_path / "agg_a.csv", tmp_path / "agg_b.csv"
    _, table_a = aggregate(a, output=out_a)
    _, table_b = aggregate(b, output=out_b)
    np.testing.assert_allclose(table_a, table_b, rtol=1e-15)
    assert out_a.read_bytes() == out_b.read_bytes()
    header = out_a.read_text().splitlines()[0]
    assert header == "queries,q0.2,q0.5,q0.8"


def test_aggregate_rejects_mismatched_grids_and_empty_dirs(tmp_path):
    write_trace(tmp_path / "trace_000.csv", [1.0, 2.0])
    write_trace(tmp_path / "trace_001.csv", [1.0, 2.0], grid=[10, 21])
    with pytest.raises(ValueError, match="query grid"):
        aggregate(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="no trace"):
        aggregate(empty)
    with pytest.raises(ValueError):
        aggregate(tmp_path, quantiles=(1.5,))


def test_cli_run_and_aggregate(tmp_path):
    cfg_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    cfg_path.write_text(json.dumps(supac_config(out_dir, repeats=3)))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (out_dir / "manifest.json").exists()
    agg_path = tmp_path / "summary.csv"
    assert main(
        [
            "aggregate",
            "--input",
            str(out_dir),
            "--quantiles",
            "0.2,0.5,0.8",
            "--output",
            str(agg_path),
        ]
    ) == 0
    lines = agg_path.read_text().splitlines()
    assert lines[0] == "queries,q0.2,q0.5,q0.8"
    assert len(lines) > 1


def test_cli_error_exit_codes(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"method": "sgd_fancy"}))
    assert main(["run", "--config", str(bad_cfg)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["aggregate", "--input", str(empty), "--output", str(tmp_path / "x.csv")]) == 1
    for levels in ("1.5", "-0.1", ""):
        argv = ["aggregate", "--input", str(empty), "--quantiles", levels]
        assert main(argv + ["--output", str(tmp_path / "x.csv")]) == 2, levels

    # invalid values that used to surface as runtime failures
    bad_prior = dict(supac_config(tmp_path / "out"), prior="foo")
    float_steps = supac_config(tmp_path / "out")
    float_steps["supac_ce"]["max_steps"] = 2.0
    fractional_mc = supac_config(tmp_path / "out")
    fractional_mc["supac_ce"]["n_mc_weights"] = 100.5
    sampled_2d = supac_config(tmp_path / "out")
    sampled_2d["family"] = {"structure": "full", "predictor_dim": 2}
    sampled_2d["risk"] = {"kind": "tanh_synthetic", "sampled": True}
    meta_2d = dict(meta_config(tmp_path / "out"), family={"structure": "diag", "predictor_dim": 2})
    meta_float_epochs = meta_config(tmp_path / "out")
    meta_float_epochs["meta"]["epochs"] = 2.0
    meta_bad_lambda = dict(meta_config(tmp_path / "out"), tasks={"n_tasks": 2, "lambda": -0.1})
    # JSON true is not a count
    bool_repeats = dict(supac_config(tmp_path / "out"), repeats=True)
    bool_seed = dict(supac_config(tmp_path / "out"), master_seed=True)
    meta_bool_tasks = dict(meta_config(tmp_path / "out"), tasks={"n_tasks": True})
    for i, cfg in enumerate(
        [bad_prior, float_steps, fractional_mc, sampled_2d, meta_2d, meta_float_epochs, meta_bad_lambda]
        + [bool_repeats, bool_seed, meta_bool_tasks]
    ):
        path = tmp_path / f"invalid_{i}.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2, cfg
    # JSON true is not a lambda either; the error names the field
    bool_lambda = supac_config(tmp_path / "out")
    bool_lambda["supac_ce"]["lambda"] = True
    meta_bool_lambda = dict(meta_config(tmp_path / "out"), tasks={"n_tasks": 2, "lambda": True})
    for field, cfg in (("supac_ce.lambda", bool_lambda), ("tasks.lambda", meta_bool_lambda)):
        path = tmp_path / "bool_lambda.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["run", "--config", str(path)]) == 2, cfg
        assert f"error: {field} " in capsys.readouterr().err
    # a config, or a block of one, that is not a JSON object exits 2 naming it
    def with_block(cfg, method, block):
        cfg = {key: value for key, value in cfg.items() if key != cfg["method"]}
        return dict(cfg, method=method, **{method: block})

    supac, meta = supac_config(tmp_path / "out"), meta_config(tmp_path / "out")
    meta_first = copy.deepcopy(meta)
    meta_first["meta"]["inner_first"] = 5
    meta_warm = copy.deepcopy(meta)
    meta_warm["meta"]["inner_warm"] = [1, 2]
    # no weighting named "uniform", and JSON true is not a float setting
    uniform = copy.deepcopy(supac)
    uniform["supac_ce"]["weighting"] = "uniform"
    gd_block = {"lambda": 1.0, "step_size": 0.1, "per_step": 4, "max_queries": 16}
    meta_bool_step = copy.deepcopy(meta)
    meta_bool_step["meta"]["meta_step_size"] = True
    meta_bool_kl = copy.deepcopy(meta)
    meta_bool_kl["meta"]["meta_kl_max"] = True
    for field, cfg in (
        ("supac_ce", uniform),
        ("step_size", with_block(supac, "gd", dict(gd_block, step_size=True))),
        ("momentum", with_block(supac, "nesterov", dict(gd_block, momentum=True))),
        ("meta_step_size", meta_bool_step),
        ("meta_kl_max", meta_bool_kl),
        ("supac_ce", with_block(supac, "supac_ce", 5)),
        ("supac_ce", with_block(supac, "supac_ce", [1, 2])),
        ("gd", with_block(supac, "gd", 5)),
        ("nesterov", with_block(supac, "nesterov", [1, 2])),
        ("tasks", dict(meta, tasks=5)),
        ("meta", with_block(meta, "meta", [1, 2])),
        ("meta.inner_first", meta_first),
        ("meta.inner_warm", meta_warm),
        ("experiment config", 5),
        ("experiment config", [1, 2]),
    ):
        path = tmp_path / "not_an_object.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["run", "--config", str(path)]) == 2, cfg
        assert field in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()

    # a solve whose first step must fail exits 2 naming the field, before any solve
    def supac_k3(**settings):
        cfg = supac_config(tmp_path / "unsolvable")
        cfg["family"] = {"structure": "full", "predictor_dim": 3}  # dim 9
        cfg["risk"] = {"kind": "tanh_synthetic", "sampled": True}
        cfg["supac_ce"].update(settings)
        return cfg

    def meta_with(block, **settings):
        cfg = meta_config(tmp_path / "unsolvable")  # diag, predictor_dim 3: dim 6
        cfg["meta"][block].update(settings)
        return cfg

    for field, cfg in (
        ("supac_ce.weighting", supac_k3(weighting="exact1d")),
        ("supac_ce.n_initial_queries", supac_k3(n_initial_queries=0)),
        ("supac_ce.n_initial_queries", supac_k3(n_initial_queries=5)),
        ("supac_ce.n_initial_queries", supac_k3(n_initial_queries=9, weighting="importance")),
        ("supac_ce.query_schedule", supac_k3(query_schedule=[9, 10])),
        ("meta.inner_first.n_initial_queries", meta_with("inner_first", n_initial_queries=2)),
        ("meta.inner_first.weighting", meta_with("inner_first", weighting="exact1d")),
        ("meta.inner_warm.weighting", meta_with("inner_warm", weighting="exact1d")),
    ):
        path = tmp_path / "unsolvable.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["run", "--config", str(path)]) == 2, cfg
        assert f"error: {field}: " in capsys.readouterr().err
        assert not list((tmp_path / "unsolvable").glob("*_000.*"))
    # a warm re-solve may draw nothing at its first step
    path.write_text(json.dumps(meta_with("inner_warm", n_initial_queries=0)))
    assert main(["run", "--config", str(path)]) == 0

    # a failing meta inner solve is a runtime failure whose message names the task;
    # one weight draw leaves a single cell with mass and the first projection singular
    starved = meta_config(tmp_path / "starved")
    starved["meta"]["inner_first"]["n_mc_weights"] = 1
    path = tmp_path / "starved.json"
    path.write_text(json.dumps(starved))
    capsys.readouterr()
    assert main(["run", "--config", str(path)]) == 1
    assert re.search(r"^error: inner solve failed for task \d+: ", capsys.readouterr().err, re.M)


def test_cli_seed_and_output_overrides(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(supac_config(tmp_path / "ignored")))
    override = tmp_path / "actual"
    assert (
        main(
            [
                "run",
                "--config",
                str(cfg_path),
                "--output-dir",
                str(override),
                "--seed",
                "99",
            ]
        )
        == 0
    )
    manifest = json.loads((override / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 99
    assert not (tmp_path / "ignored").exists()


def pinned_configs(output_dir):
    """Small runs whose output bytes are pinned, by case name."""
    solve = {
        "method": "supac_ce",
        "family": {"structure": "full", "predictor_dim": 4},
        "risk": {"kind": "tanh_synthetic", "sampled": True},
        "supac_ce": {
            "lambda": 0.05,
            "kl_max": 0.5,
            "alpha_max": 0.5,
            "n_initial_queries": 60,
            "n_queries_per_step": 12,
            "n_mc_weights": 1000,
            "max_steps": 6,
            "convergence_kl_tol": 0.0,
        },
        "repeats": 2,
        "master_seed": 7,
        "output_dir": str(output_dir),
    }
    untraced = copy.deepcopy(solve)
    untraced["supac_ce"]["record_trace"] = False
    importance = copy.deepcopy(solve)
    importance["supac_ce"]["weighting"] = "importance"
    return {
        "voronoi traced": solve,
        "voronoi untraced": untraced,
        "importance traced": importance,
        "meta": meta_config(output_dir),
    }


# sha256 of every output of each pinned run.  A change that moves a byte of
# any output must update these digests and say which outputs moved and why.
PINNED_DIGESTS = {
    "voronoi traced": {
        "posterior_000.json": "03507c346adddc8852b56779e317efee42f75855617a3be50cc73393a2b6e2fb",
        "posterior_001.json": "510279c25387daf81292e4f2c6b9b0fd47753385000c90c28aa5d0bd0a9f82f6",
        "stack_000.csv": "e3f85a8e58da7de48505b70dcd2fcb93479b7e55484adc804d4000daacd50354",
        "stack_001.csv": "fa65566048c2eb48ef1194c48752e6e109810a5ad59050952d8e7628b4ba9731",
        "trace_000.csv": "733e71b9ddb26109308115504c9d55f9c1fb3a75ba93b4c3b1ea20a2a57b2e82",
        "trace_001.csv": "f0608107d6f7b62bdc05e1d9313bb794fdb7b40389805e52f4e16beebe1e53d7",
    },
    "voronoi untraced": {
        "posterior_000.json": "03507c346adddc8852b56779e317efee42f75855617a3be50cc73393a2b6e2fb",
        "posterior_001.json": "510279c25387daf81292e4f2c6b9b0fd47753385000c90c28aa5d0bd0a9f82f6",
        "stack_000.csv": "e3f85a8e58da7de48505b70dcd2fcb93479b7e55484adc804d4000daacd50354",
        "stack_001.csv": "fa65566048c2eb48ef1194c48752e6e109810a5ad59050952d8e7628b4ba9731",
        "trace_000.csv": "9ab66f4348a9902b5811ae96a54e6412b757f945492f9953bf7525bf3d6b12de",
        "trace_001.csv": "9ab66f4348a9902b5811ae96a54e6412b757f945492f9953bf7525bf3d6b12de",
    },
    "importance traced": {
        "posterior_000.json": "6c89d549b4728f403de3bb0393061ed6cabcec88bfd9036b2a374886830832c8",
        "posterior_001.json": "63972ad49b7d01e053dfb880e6632bf432dcd7bc425441ea67e6e9e7e2036c4d",
        "stack_000.csv": "490ab347cd38fd817e58c62211e80d8635f64aefeeb4cf5f798e3eb39acd6467",
        "stack_001.csv": "2b4131d72b3078c8a7e7b3d5de87733df683d9561345a5e027327d6935e1f1c9",
        "trace_000.csv": "b6f09daccf4d4a0af0955b327ac82b546e4b935453971e45b3fa406dba04cac3",
        "trace_001.csv": "6be2b15f513ef735b1de12ab861ad44c55b71123f3b11f38ae5d64eff3faff73",
    },
    "meta": {
        "meta_trace_000.csv": "edf5de98d6387de4413f57abef1f19fbbc550d53fbe4b4c80adc98fd29cf080e",
        "prior_000.json": "fed285f5b22672ad830f06a9a4ef59fb814a1f061e893520cfee5dbe81a4fcd2",
    },
}


@pytest.mark.parametrize("case", list(PINNED_DIGESTS))
def test_output_bytes_are_pinned(tmp_path, case):
    manifest = run_experiment(pinned_configs(tmp_path)[case])
    assert manifest["outputs"] == PINNED_DIGESTS[case]
