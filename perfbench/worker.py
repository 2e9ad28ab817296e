"""Run one workload in a process of its own: set up, time whole rounds, save outputs.

``run.py`` starts this script with the BLAS thread variables set and
``src`` on ``PYTHONPATH``, and passes the monotonic clock reading taken just
before the start, so that set-up is timed from the process's start to ready
inputs.  Each round repeats the same operations.  A further round starts
only while a typical round still ends within ``--seconds``; at least one of
each kind runs.  With ``--trace 0`` the speed probes of ``speed.py`` run
during every round.  With ``--trace 1`` rounds alternate between plain and
traced, with no probe, so the traced run measures its own tracing overhead.
Outputs of the last good round go to ``--out`` for ``run.py`` to check;
nothing is printed on standard output.
"""

import time  # noqa: I001 - first, so imports count towards set-up

import argparse
import json
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def _catoni(settings):
    import pacbayes

    kwargs = {("lam" if key == "lambda" else key): value for key, value in settings.items()}
    return pacbayes.CatoniConfig(**kwargs)


def _failure(what):
    print(f"{what} failed:", file=sys.stderr)
    traceback.print_exc()


class VoronoiSolve:
    """One criterion-6 solve through ``run_experiment``, the ``pacbayes run`` path."""

    def __init__(self, inputs, out):
        self.config = inputs["config"]
        self.expdir = out / "experiment"

    def round(self):
        import pacbayes

        try:
            pacbayes.run_experiment(self.config, output_dir=str(self.expdir))
        except Exception:
            _failure("run_experiment")
            return 1, 1, None
        return 1, 0, self.expdir

    def save(self, result, out):
        pass  # the experiment files are the outputs


class ImportanceSolves:
    """The same solver settings with importance weights, one solve per task."""

    def __init__(self, inputs, out):
        import pacbayes
        import workloads as wl

        self.tasks = pacbayes.tasks_from_json(json.dumps(wl.tasks_json_items(inputs["tasks"])))
        self.family = pacbayes.GaussianFamily(wl.K, structure="full")
        self.prior = pacbayes.standard_normal_params(self.family)
        self.config = _catoni(inputs["settings"])
        self.seeds = inputs["seeds"]

    def round(self):
        import pacbayes

        results, failed = [], 0
        for task, seed in zip(self.tasks, self.seeds):
            try:
                results.append(
                    pacbayes.run_supac_ce(task.risk, self.family, self.prior, self.prior, self.config, seed)
                )
            except Exception:
                _failure("run_supac_ce")
                failed += 1
                results.append(None)
        return len(self.tasks), failed, results

    def save(self, results, out):
        import numpy as np

        arrays = {}
        for i, result in enumerate(results):
            if result is None:
                continue
            theta, trace, stack = result
            arrays.update({
                f"task{i}_theta": theta,
                f"task{i}_trace_thetas": np.asarray(trace.thetas),
                f"task{i}_trace_queries": trace.query_grid,
                f"task{i}_trace_kl": trace.column("kl_to_prior"),
                f"task{i}_points": stack.points,
                f"task{i}_values": stack.values,
                f"task{i}_steps": stack.steps,
            })
        np.savez(out / "outputs.npz", **arrays)


class MetaLearning:
    """``run_meta_sgd`` over the training tasks, then held-out solves from the learned prior."""

    def __init__(self, inputs, out):
        import pacbayes
        import workloads as wl

        meta = inputs["meta"]
        items = wl.tasks_json_items(inputs["tasks"])
        self.train_json = json.dumps(items[: meta["n_train"]])
        self.heldout_json = json.dumps(items[meta["n_train"]:])
        self.family = pacbayes.GaussianFamily(wl.K, structure="full")
        self.prior0 = pacbayes.standard_normal_params(self.family)
        self.first = _catoni(inputs["first"])
        self.config = pacbayes.MetaConfig(
            epochs=meta["epochs"],
            inner_first=self.first,
            inner_warm=_catoni(inputs["warm"]),
            batch_size=meta["batch_size"],
            meta_step_size=meta["meta_step_size"],
            meta_kl_max=meta["meta_kl_max"],
            n_eval=meta["n_eval"],
        )
        self.meta = meta
        self.meta_seed = inputs["meta_seed"]
        self.heldout_seed = inputs["heldout_seed"]

    def round(self):
        import capture
        import pacbayes

        meta = self.meta
        n_meta = meta["epochs"] * meta["n_train"]
        attempted = n_meta + meta["n_heldout"]
        tasks = pacbayes.tasks_from_json(self.train_json)
        heldout = pacbayes.tasks_from_json(self.heldout_json)
        try:
            prior, trace = pacbayes.run_meta_sgd(self.family, tasks, self.prior0, self.config, self.meta_seed)
        except Exception:
            _failure("run_meta_sgd")
            return attempted, attempted, None
        posteriors = []
        try:
            with capture.solves(posteriors):
                pacbayes.evaluate_prior(self.family, heldout, prior, self.first, self.heldout_seed,
                                        n_eval=meta["heldout_n_eval"])
        except Exception:
            _failure("evaluate_prior")
            return attempted, meta["n_heldout"], None
        return attempted, 0, (tasks, prior, trace, posteriors)

    def save(self, result, out):
        import numpy as np

        tasks, prior, trace, posteriors = result
        arrays = {
            "prior": prior,
            "meta_priors": np.asarray([r.theta_p for r in trace.records]),
            "meta_kl_step": trace.column("kl_step"),
            "heldout_posteriors": np.asarray(posteriors),
        }
        for i, task in enumerate(tasks):
            arrays.update({
                f"task{i}_posterior": task.posterior,
                f"task{i}_points": task.stack.points,
                f"task{i}_values": task.stack.values,
                f"task{i}_steps": task.stack.steps,
            })
        np.savez(out / "outputs.npz", **arrays)


JOBS = {
    "solve_voronoi_k8": VoronoiSolve,
    "solve_importance_k8": ImportanceSolves,
    "meta_k8": MetaLearning,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)

    import pacbayes
    import workloads as wl

    inputs = wl.make_inputs(args.workload, args.seed)
    job = JOBS[args.workload](inputs, out)
    setup_s = time.monotonic() - args.t0

    tracer = sampler = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    else:
        from speed import Sampler

        sampler = Sampler()
    times = {"plain": [], "traced": []}
    net_times, probe_times = [], {"compute": [], "memory": []}
    attempted = failed = 0
    last_good = None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(times["traced"]) < len(times["plain"])
        if traced:
            tracer.install()
        elif sampler is not None:
            sampler.start()
        t = time.perf_counter()
        try:
            n, n_failed, result = job.round()
        finally:
            elapsed = time.perf_counter() - t
            if traced:
                tracer.uninstall()
            elif sampler is not None:
                probes = sampler.stop()
                for kind, times_of_kind in probes.items():
                    probe_times[kind] += times_of_kind
                net_times.append(elapsed - sum(map(sum, probes.values())))
        times["traced" if traced else "plain"].append(elapsed)
        attempted += n
        failed += n_failed
        if n_failed == 0:
            last_good = result
        # Start another round only if a typical one still ends within --seconds.
        all_rounds = times["plain"] + times["traced"]
        ends = time.perf_counter() - start + statistics.median(all_rounds)
        if ends > args.seconds and (tracer is None or times["traced"]):
            break

    if last_good is not None:
        job.save(last_good, out)
    info = {
        "setup_s": setup_s,
        "round_s": times["plain"],
        "traced_round_s": times["traced"],
        "net_round_s": net_times,
        "probe_s": probe_times,
        "attempted": attempted,
        "failed": failed,
        "outputs": last_good is not None,
        "pacbayes": pacbayes.__file__,
    }
    if tracer is not None:
        info["layers"] = tracer.summary()
        info["overhead_s"] = statistics.median(times["traced"]) - statistics.median(times["plain"])
        tracer.save(out / "spans.npz")
    (out / "info.json").write_text(json.dumps(info, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
