"""Benchmark of the pacbayes surrogate solver, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve_voronoi_k8 --seed 1 --seconds 30 --trace 0

Runs the workload in a process of its own (``worker.py``), times set-up and
each round from outside the program, scales round times to a nominal machine
speed with the probes of ``speed.py``, reads the worker's peak resident memory,
checks the program's outputs against the benchmark's own computations
(``checks.py``), and prints one JSON object as the last line:
``correct``, ``attempted`` and ``failed`` solves, and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits non-zero, printing no result, when the program is
missing or a run cannot finish.
"""

import os

# One BLAS thread in this process and the worker: steadier timings on a
# shared machine, and faster on two cores than the default.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Every run must end within 180 s; leave room for the checks.
WORKER_TIMEOUT_S = 150.0

sys.path.insert(0, str(HERE))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_worker(args, out):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"worker did not finish within {WORKER_TIMEOUT_S:.0f} s")
    if code != 0:
        fail(f"worker exited with code {code}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return json.loads((out / "info.json").read_text()), peak_rss_mb


def verify(workload, seed, out):
    """(bound, failure messages) for the outputs in ``out``."""
    import checks
    import workloads as wl

    inputs = wl.make_inputs(workload, seed)
    rng = wl.workload_rng(workload, seed, "check")
    if workload == "solve_voronoi_k8":
        return checks.verify_voronoi(inputs, out / "experiment", rng)
    import numpy as np

    with np.load(out / "outputs.npz") as data:
        outputs = dict(data)
    if workload == "solve_importance_k8":
        return checks.verify_importance(inputs, outputs, rng)
    return checks.verify_meta(inputs, outputs, rng)


def main():
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "pacbayes" / "__init__.py").is_file():
        fail(f"no pacbayes package under {SRC}")
    sys.path.insert(0, str(SRC))
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    info, peak_rss_mb = run_worker(args, out)
    if Path(info["pacbayes"]).resolve().parent != (SRC / "pacbayes").resolve():
        fail(f"worker imported pacbayes from {info['pacbayes']}, not from {SRC}")
    if not info["outputs"]:
        fail("no round finished without a failed solve")
    bound, fails = verify(args.workload, args.seed, out)
    for message in fails:
        print(f"CHECK FAILED {message}", file=sys.stderr)

    if args.trace:
        from tracer import layer_metrics

        metrics = layer_metrics(info["layers"], len(info["traced_round_s"]), info["overhead_s"])
    else:
        from speed import scaled_round_s

        metrics = {
            "setup_s": {"value": info["setup_s"], "unit": "s"},
            "run_s": {"value": scaled_round_s(info["net_round_s"], info["probe_s"], wl.PROBES[args.workload]),
                      "unit": "s"},
            "bound": {"value": bound, "unit": "risk"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")
        probes = ", ".join(f"{kind} {statistics.fmean(t) * 1e3:.4g} ms" for kind, t in info["probe_s"].items())
        print(f"wall time: median round {statistics.median(info['round_s']):.6g} s; "
              f"{len(info['probe_s']['memory'])} probes, mean {probes}")
    print(f"solves attempted = {info['attempted']}, failed = {info['failed']}, "
          f"rounds = {len(info['round_s'])} plain + {len(info['traced_round_s'])} traced")
    result = {
        "correct": not fails,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
