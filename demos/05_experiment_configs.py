"""
Config-driven experiments and trace aggregation
===============================================

Benchmark runs are described by a JSON config: method, family, risk, prior,
method settings, repeats, and a master seed.  Each repeat writes a trace CSV
and final parameters, plus a manifest with content digests; re-running the
same config reproduces every file byte for byte.  The same entry points are
exposed on the command line as ``pacbayes run`` and ``pacbayes aggregate``.
"""

import json
import tempfile
from pathlib import Path

from pacbayes import aggregate, run_experiment
from pacbayes.cli import main as cli_main

config = {
    "method": "supac_ce",
    "family": {"structure": "full", "predictor_dim": 3},
    "risk": {"kind": "tanh_synthetic", "sampled": True},
    "prior": "standard",
    "supac_ce": {
        "lambda": 0.1,
        "kl_max": 1.0,
        "alpha_max": 0.5,
        "n_initial_queries": 60,
        "n_queries_per_step": 15,
        "n_mc_weights": 2000,
        "max_steps": 8,
        "convergence_kl_tol": 0.0,
    },
    "repeats": 5,
    "master_seed": 21,
}

# Every file lives in a temporary directory that is removed on exit.
with tempfile.TemporaryDirectory(prefix="pacbayes_demo_") as tmp:
    workdir = Path(tmp)
    out_a = workdir / "run_a"

    # Python API: run the experiment and inspect the manifest.
    manifest = run_experiment(dict(config), output_dir=out_a)
    print("files written:", sorted(manifest["outputs"]))
    print("package version recorded:", manifest["package_version"])

    # Determinism: a second run of the same config produces identical digests.
    manifest_b = run_experiment(dict(config), output_dir=workdir / "run_b")
    print("re-run digests identical:", manifest["outputs"] == manifest_b["outputs"])

    # Aggregation pools the repeat traces on their common query grid and reports
    # quantiles of the objective, here the 20/50/80 percent levels.
    grid, table = aggregate(out_a, quantiles=(0.2, 0.5, 0.8))
    print("\nqueries  q0.2     q0.5     q0.8")
    for q, row in zip(grid, table):
        print(f"{q:7d}  {row[0]:.4f}  {row[1]:.4f}  {row[2]:.4f}")

    # The CLI wraps the same functions.  "pacbayes run" takes the config path;
    # "pacbayes aggregate" takes the run directory and writes a summary CSV.
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps({**config, "output_dir": str(workdir / "run_cli")}))
    code = cli_main(["run", "--config", str(config_path)])
    print("\ncli run exit code:", code)
    code = cli_main(
        [
            "aggregate",
            "--input",
            str(workdir / "run_cli"),
            "--output",
            str(workdir / "summary.csv"),
        ]
    )
    print("cli aggregate exit code:", code)
    print("summary head:", (workdir / "summary.csv").read_text().splitlines()[0])
