"""Command line entry points: run an experiment config, aggregate traces.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration or usage.
Set PACBAYES_LOG_LEVEL (e.g. INFO, DEBUG) to control verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .experiments import ConfigError, aggregate, run_experiment


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pacbayes",
        description="Minimize Catoni PAC-Bayes bounds over Gaussian families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("--config", required=True, help="path to the experiment JSON")
    run_p.add_argument("--output-dir", default=None, help="override the config's output_dir")
    run_p.add_argument("--seed", type=int, default=None, help="override the master seed")

    agg_p = sub.add_parser("aggregate", help="pool run traces into quantile curves")
    agg_p.add_argument("--input", required=True, help="directory holding trace_*.csv files")
    agg_p.add_argument(
        "--quantiles",
        default="0.2,0.5,0.8",
        help="comma separated quantile levels (default 0.2,0.5,0.8)",
    )
    agg_p.add_argument("--output", required=True, help="destination CSV file")
    return parser


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("PACBAYES_LOG_LEVEL", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            manifest = run_experiment(
                args.config, output_dir=args.output_dir, master_seed=args.seed
            )
            out = manifest["config"].get("output_dir", ".")
            print(f"wrote {len(manifest['outputs'])} files and manifest.json to {out}")
        else:
            try:
                levels = [float(v) for v in args.quantiles.split(",") if v.strip()]
            except ValueError:
                raise ConfigError("quantiles: expected comma separated numbers", field="quantiles")
            grid, table = aggregate(args.input, levels, output=args.output)
            print(f"wrote {table.shape[0]} rows x {table.shape[1]} quantiles to {args.output}")
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a config that cannot be read (a directory, say) is invalid
        print(f"error: {exc}", file=sys.stderr)
        return 2 if exc.filename == getattr(args, "config", None) else 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
