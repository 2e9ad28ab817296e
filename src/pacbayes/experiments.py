"""Config-driven experiment runs and trace aggregation.

An experiment is described by a JSON document:

    {
      "method": "supac_ce" | "gd" | "nesterov" | "meta",
      "family": {"structure": "full", "predictor_dim": 8, "blocks": null},
      "risk":   {...},            # non-meta methods
      "tasks":  {...},            # meta only
      "prior":  "standard" | [natural coords] | {"mean": [...], "cov": [[...]]},
      "init":   same forms, defaults to the prior,
      "<method>": {...},          # exactly one block, matching "method"
      "repeats": 2,
      "master_seed": 1,
      "output_dir": "out"
    }

Risk forms: {"kind": "quadratic_in_f", "eta": [...], "offset": 0.0},
{"kind": "tanh_synthetic", "omega": w, "a_matrix": [[...]], "x0": [...]}, or
{"kind": "tanh_synthetic", "sampled": true} to draw a fresh task per repeat
from the run seed.  Each repeat r runs with seed master_seed + r and writes
its own trace and final parameter files; a manifest with content digests ties
the outputs to the config.  Re-running from a manifest reproduces the files
byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import GDConfig, run_gd
from .families import ConfigError, GaussianFamily, params_to_json, standard_normal_params
from .meta import (
    _SYNTHETIC_MIN_DIM,
    MetaConfig,
    TaskEnvironment,
    run_meta_sgd,
    sample_synthetic_task,
)
from .risk import risk_from_dict
from .seeding import ROLE_TASK, child_int, child_seed
from .solver import CatoniConfig, SolverTrace, _check_solvable, run_supac_ce

logger = logging.getLogger("pacbayes")

_METHODS = ("supac_ce", "gd", "nesterov", "meta")


def _require(data, key, where):
    if key not in data:
        raise ConfigError(f"missing required field '{where}{key}'", field=where + key)
    return data[key]


def _reject_unknown(data, allowed, where):
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown field '{where}{unknown[0]}'" + ("" if len(unknown) == 1 else f" (+{len(unknown) - 1} more)"),
            field=where + unknown[0],
        )


def _object(data, where):
    """A copy of the config block ``where``, which must be a JSON object."""
    if not isinstance(data, dict):
        raise ConfigError(f"'{where}' must be an object", field=where)
    return dict(data)


def _dataclass_from(cls, data, where, rename=()):
    data = _object(data, where[:-1])
    for src, dst in rename:
        if src in data:
            data[dst] = data.pop(src)
    names = {f.name for f in dataclasses.fields(cls)}
    _reject_unknown(data, names, where)
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where[:-1]}: {exc}", field=where[:-1]) from None


def _catoni_from(data, where, family, cold=True):
    """A solver block, checked to get past a solve's first step on ``family``."""
    # JSON true would otherwise reach CatoniConfig as lam and be named there.
    if isinstance(data, dict) and isinstance(data.get("lambda"), bool):
        raise ConfigError(f"{where}lambda must be a number", field=where + "lambda")
    config = _dataclass_from(CatoniConfig, data, where, rename=(("lambda", "lam"),))
    try:
        _check_solvable(config, family, cold)
    except ConfigError as exc:
        raise ConfigError(f"{where}{exc}", field=where + exc.field) from None
    return config


def _parse_family(data):
    if not isinstance(data, dict):
        raise ConfigError("'family' must be an object", field="family")
    _reject_unknown(data, ("structure", "predictor_dim", "blocks"), "family.")
    try:
        return GaussianFamily.from_dict(data)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"family: {exc}", field="family") from None


def _parse_params(spec, family, where):
    if spec is None or spec == "standard":
        return standard_normal_params(family)
    if isinstance(spec, dict):
        _reject_unknown(spec, ("mean", "cov"), where + ".")
        try:
            return family.natural_from_moments(
                np.asarray(_require(spec, "mean", where + "."), dtype=float),
                np.asarray(_require(spec, "cov", where + "."), dtype=float),
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}", field=where) from None
    expected = f"{where}: expected {family.dim} natural coordinates inside the domain"
    try:
        theta = np.asarray(spec, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(expected, field=where) from None
    if theta.shape != (family.dim,) or not family.in_domain(theta):
        raise ConfigError(expected, field=where)
    return theta


def _require_synthetic_dim(family, where):
    """Refuse a family that synthetic tasks cannot be drawn in, before any is drawn."""
    if family.predictor_dim < _SYNTHETIC_MIN_DIM:
        raise ConfigError(
            f"{where}: synthetic tasks need predictor_dim >= {_SYNTHETIC_MIN_DIM}", field=where
        )


def _parse_risk(data, family):
    """The risk of each repeat, as a function of the run seed."""
    if not isinstance(data, dict):
        raise ConfigError("'risk' must be an object", field="risk")
    if "sampled" in data:
        if data != {"kind": "tanh_synthetic", "sampled": True}:
            raise ConfigError(
                'risk.sampled: a sampled risk is exactly {"kind": "tanh_synthetic", "sampled": true}',
                field="risk.sampled",
            )
        _require_synthetic_dim(family, "risk")
        return lambda run_seed: sample_synthetic_task(run_seed, family.predictor_dim).risk
    try:
        risk = risk_from_dict(data, family)
    except ConfigError as exc:
        raise ConfigError(f"risk.{exc}", field=f"risk.{exc.field}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"risk: {exc}", field="risk") from None
    return lambda run_seed: risk


_TOP_KEYS = (
    "method",
    "family",
    "risk",
    "tasks",
    "prior",
    "init",
    "supac_ce",
    "gd",
    "nesterov",
    "meta",
    "repeats",
    "master_seed",
    "output_dir",
)


def _validate_top(config):
    _reject_unknown(config, _TOP_KEYS, "")
    method = _require(config, "method", "")
    if method not in _METHODS:
        raise ConfigError(f"method: unknown method name {method!r}", field="method")
    present = [m for m in _METHODS if m in config]
    if present != [method]:
        raise ConfigError(
            f"exactly one method block matching '{method}' must be present, found {present}",
            field="method",
        )
    # Counts are exactly int: JSON true decodes to a bool, an int subclass.
    repeats = config.get("repeats", 1)
    if type(repeats) is not int or repeats < 1:
        raise ConfigError("repeats: must be a positive integer", field="repeats")
    master_seed = config.get("master_seed", 0)
    if type(master_seed) is not int or master_seed < 0:
        raise ConfigError("master_seed: must be a nonnegative integer", field="master_seed")
    if method == "meta" and "risk" in config:
        raise ConfigError("meta experiments take 'tasks', not 'risk'", field="risk")
    if method != "meta" and "tasks" in config:
        raise ConfigError("'tasks' is only valid for the meta method", field="tasks")
    return method, repeats, master_seed


def _parse_method(method, config, family, theta_p, theta0):
    """Check the method's block and inputs once, before anything runs or is written.

    Returns ``run(run_seed)``, which runs one repeat and returns its final
    parameter and a dict of artifact name -> writer.
    """
    if method == "supac_ce":
        risk_for = _parse_risk(_require(config, "risk", ""), family)
        solver_cfg = _catoni_from(_require(config, "supac_ce", ""), "supac_ce.", family)

        def run(run_seed):
            theta, trace, stack = run_supac_ce(
                risk_for(run_seed), family, theta_p, theta0, solver_cfg, run_seed
            )
            return theta, {"trace": trace.to_csv, "stack": stack.to_csv}

        return run
    if method in ("gd", "nesterov"):
        risk_for = _parse_risk(_require(config, "risk", ""), family)
        block = _object(_require(config, method, ""), method)
        where = method + "."
        objective_keys = {"lambda": "lam", "delta": None, "n_data": None, "c_range": None}
        catoni_kwargs = {}
        for src, dst in objective_keys.items():
            if src in block:
                catoni_kwargs[dst or src] = block.pop(src)
        if "lam" not in catoni_kwargs:
            raise ConfigError(f"{where}lambda is required", field=where + "lambda")
        try:
            catoni_cfg = CatoniConfig(**catoni_kwargs)
        except ValueError as exc:
            raise ConfigError(f"{method}: {exc}", field=method) from None
        gd_cfg = _dataclass_from(GDConfig, block, where)
        if method == "nesterov" and not gd_cfg.momentum > 0:
            raise ConfigError("nesterov.momentum must be positive", field="nesterov.momentum")

        def run(run_seed):
            theta, trace = run_gd(
                risk_for(run_seed), family, theta_p, theta0, gd_cfg, catoni_cfg, run_seed
            )
            return theta, {"trace": trace.to_csv}

        return run
    # meta
    tasks_block = _object(_require(config, "tasks", ""), "tasks")
    _reject_unknown(tasks_block, ("n_tasks", "lambda"), "tasks.")
    n_tasks = tasks_block.get("n_tasks", 10)
    if type(n_tasks) is not int or n_tasks < 1:
        raise ConfigError("tasks.n_tasks must be a positive integer", field="tasks.n_tasks")
    task_lam = tasks_block.get("lambda", 0.1)
    if isinstance(task_lam, bool) or not isinstance(task_lam, (int, float)) or not task_lam > 0:
        raise ConfigError("tasks.lambda must be a positive number", field="tasks.lambda")
    _require_synthetic_dim(family, "tasks")
    block = _object(_require(config, "meta", ""), "meta")
    if "inner_first" not in block:
        raise ConfigError("meta.inner_first is required", field="meta.inner_first")
    block["inner_first"] = _catoni_from(block["inner_first"], "meta.inner_first.", family)
    if block.get("inner_warm") is not None:
        # A warm re-solve starts on the task's ledger, so it may draw nothing at first.
        block["inner_warm"] = _catoni_from(
            block["inner_warm"], "meta.inner_warm.", family, cold=False
        )
    meta_cfg = _dataclass_from(MetaConfig, block, "meta.")

    def run(run_seed):
        env = TaskEnvironment.sample(child_seed(run_seed, 0, ROLE_TASK), family.predictor_dim)
        tasks = [
            sample_synthetic_task(
                child_int(run_seed, 1, i, ROLE_TASK), family.predictor_dim, env=env, lam=task_lam
            )
            for i in range(n_tasks)
        ]
        theta_prior, trace = run_meta_sgd(family, tasks, theta_p, meta_cfg, run_seed)
        return theta_prior, {"meta_trace": trace.to_csv}

    return run


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_experiment(config, output_dir=None, master_seed=None):
    """Run an experiment config and write traces, parameters and a manifest.

    Parameters
    ----------
    config : dict or str or pathlib.Path
        Config object, path to a config JSON file, or a manifest (an object
        with a "config" key), in which case the embedded config is re-run.
    output_dir : str, optional
        Overrides the config's ``output_dir``.
    master_seed : int, optional
        Overrides the config's ``master_seed``.

    Returns
    -------
    dict
        The manifest, also written to ``<output_dir>/manifest.json``.
    """
    if isinstance(config, (str, Path)):
        with open(config) as fh:
            config = json.load(fh)
    if isinstance(config, dict) and "config" in config and "method" not in config:
        config = config["config"]
    if not isinstance(config, dict):
        raise ConfigError("experiment config must be a JSON object", field="")
    config = dict(config)
    if output_dir is not None:
        config["output_dir"] = str(output_dir)
    if master_seed is not None:
        config["master_seed"] = int(master_seed)

    method, repeats, seed0 = _validate_top(config)
    family = _parse_family(_require(config, "family", ""))
    theta_p = _parse_params(config.get("prior"), family, "prior")
    theta0 = _parse_params(config.get("init"), family, "init") if "init" in config else theta_p

    run = _parse_method(method, config, family, theta_p, theta0)

    out = Path(config.get("output_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    outputs = {}
    final_key = "prior" if method == "meta" else "posterior"
    for rep in range(repeats):
        run_seed = seed0 + rep
        logger.info("run %d/%d (seed %d)", rep + 1, repeats, run_seed)
        theta, writers = run(run_seed)
        for name, writer in writers.items():
            path = out / f"{name}_{rep:03d}.csv"
            writer(path)
            outputs[path.name] = _sha256(path)
        param_path = out / f"{final_key}_{rep:03d}.json"
        param_path.write_text(params_to_json(theta))
        outputs[param_path.name] = _sha256(param_path)

    manifest = {
        "config": config,
        "package_version": __version__,
        "quantile_method": "linear",
        "outputs": outputs,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    logger.info("wrote %s", manifest_path)
    return manifest


def aggregate(input_dir, quantiles=(0.2, 0.5, 0.8), output=None):
    """Pool trace files from repeated runs into per-query-count quantiles.

    Reads every ``trace_*.csv`` under ``input_dir``; all traces must share an
    identical query grid.  For each grid point the requested quantiles of the
    objective estimates are computed with linear interpolation.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        The query grid (m,) and the quantile table (m, len(quantiles)).
    """
    quantiles = [float(q) for q in quantiles]
    if not quantiles or any(not 0 <= q <= 1 for q in quantiles):
        raise ConfigError("quantiles must lie in [0, 1]", field="quantiles")
    paths = sorted(Path(input_dir).glob("trace_*.csv"))
    if not paths:
        raise ValueError(f"no trace_*.csv files found under {input_dir}")
    traces = [SolverTrace.from_csv(p) for p in paths]
    grid = traces[0].query_grid
    for path, trace in zip(paths, traces):
        if not np.array_equal(trace.query_grid, grid):
            raise ValueError(f"query grid of {path.name} does not match {paths[0].name}")
    values = np.stack([t.column("obj_cat") for t in traces], axis=1)
    table = np.quantile(values, quantiles, axis=1, method="linear").T
    if output is not None:
        header = ["queries"] + [f"q{q:g}" for q in quantiles]
        with open(output, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for qcount, row in zip(grid, table):
                fh.write(",".join([str(int(qcount))] + [repr(float(v)) for v in row]) + "\n")
    return grid, table
