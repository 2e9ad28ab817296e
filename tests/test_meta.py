"""Prior meta-optimization: synthetic tasks, meta gradient, meta descent."""

import multiprocessing
import os
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from pacbayes import (
    CatoniConfig,
    CustomRisk,
    EvalStack,
    GaussianFamily,
    MetaConfig,
    QuadraticRisk,
    TaskEnvironment,
    evaluate_prior,
    meta_objective,
    run_meta_sgd,
    sample_synthetic_task,
    standard_normal_params,
    tasks_from_json,
    tasks_to_json,
)
from pacbayes.meta import MetaRecord, MetaTrace, TaskSpec, _batch_workers, meta_gradient
from pacbayes.risk import eval_risk

from _oracles import fd_grad


def exact_inner_config(lam=0.1):
    """Inner solver settings that solve in-span risks exactly."""
    return CatoniConfig(
        lam=lam,
        kl_max=np.inf,
        alpha_max=1.0,
        n_initial_queries=16,
        n_queries_per_step=4,
        n_mc_weights=200,
        max_steps=10,
        convergence_kl_tol=1e-12,
        record_trace=False,
    )


def quadratic_tasks(family, etas, lams):
    return [
        TaskSpec(
            risk=QuadraticRisk(family, eta=np.asarray(eta, dtype=float)),
            lam=float(lam),
            stack=EvalStack(family.predictor_dim),
        )
        for eta, lam in zip(etas, lams)
    ]


def test_environment_sample_properties():
    for seed in range(20):
        env = TaskEnvironment.sample(seed, predictor_dim=5)
        assert abs(np.linalg.norm(env.center) - 2.0) < 1e-12
        eigs = np.sort(np.linalg.eigvalsh(env.cov))
        np.testing.assert_allclose(eigs[:3], 0.0025, atol=1e-10)
        assert np.all(eigs[3:] >= np.exp(-1.0) - 1e-9)
        assert np.all(eigs[3:] <= np.exp(1.0) + 1e-9)
        np.testing.assert_allclose(env.cov, env.cov.T, atol=1e-14)
    with pytest.raises(ValueError):
        TaskEnvironment.sample(0, predictor_dim=1)


def test_synthetic_task_sampling():
    env = TaskEnvironment.sample(3, predictor_dim=4)
    omegas = []
    for seed in range(50):
        task = sample_synthetic_task(seed, 4, env=env, lam=0.2)
        assert task.lam == 0.2
        assert task.risk.predictor_dim == 4
        assert len(task.stack) == 0
        omegas.append(task.risk.omega)
        # risk minimum sits at the drawn x0
        assert eval_risk(task.risk, task.risk.x0) == pytest.approx(np.tanh(0.1))
    omegas = np.asarray(omegas)
    assert np.all(omegas >= 1.5 * np.pi) and np.all(omegas <= 2.5 * np.pi)
    assert omegas.std() > 0.1  # actually varies across seeds
    again = sample_synthetic_task(7, 4, env=env)
    first = sample_synthetic_task(7, 4, env=env)
    np.testing.assert_array_equal(again.risk.x0, first.risk.x0)
    np.testing.assert_array_equal(again.risk.a_matrix, first.risk.a_matrix)
    with pytest.raises(ValueError):
        sample_synthetic_task(0, 2)
    with pytest.raises(ValueError):
        sample_synthetic_task(0, 5, env=env)


def test_task_json_round_trip():
    env = TaskEnvironment.sample(11, predictor_dim=3)
    tasks = [sample_synthetic_task(s, 3, env=env, lam=0.15) for s in range(3)]
    fam = GaussianFamily(3, structure="diag")
    tasks.append(
        TaskSpec(
            risk=QuadraticRisk(fam, eta=np.arange(1.0, 7.0), offset=0.5),
            lam=0.3,
            stack=EvalStack(3),
        )
    )
    back = tasks_from_json(tasks_to_json(tasks), family=fam)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10, 3))
    for a, b in zip(tasks, back):
        assert b.lam == a.lam
        assert len(b.stack) == 0
        np.testing.assert_allclose(eval_risk(b.risk, x), eval_risk(a.risk, x), rtol=1e-15)


def test_meta_gradient_values():
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    assert np.all(meta_gradient(fam, theta_p, [theta_p, theta_p], [0.5, 0.5]) == 0.0)
    # posterior N(1,1) vs prior N(0,1), lam 0.1: grad g moves by (1, 1)
    posterior = fam.natural_from_moments([1.0], [[1.0]])
    grad = meta_gradient(fam, theta_p, [posterior], [0.1])
    np.testing.assert_allclose(grad, [-0.1, -0.1], rtol=1e-12)
    with pytest.raises(ValueError):
        meta_gradient(fam, theta_p, [posterior], [0.1, 0.2])


def test_meta_objective_closed_form_and_task_order():
    fam = GaussianFamily(1)
    theta_p = fam.natural_from_moments([0.2], [[1.1]])
    etas = [np.array([0.3, 0.1]), np.array([-0.2, 0.15]), np.array([0.1, -0.05])]
    lams = [0.5, 0.8, 1.2]
    tasks = quadratic_tasks(fam, etas, lams)
    expected = 0.0
    for eta, lam in zip(etas, lams):
        risk = QuadraticRisk(fam, eta=eta)
        theta_hat = risk.gibbs_posterior(theta_p, lam)
        expected += risk.expected_value(theta_hat) + lam * fam.kl(theta_hat, theta_p)
    val = meta_objective(fam, theta_p, tasks, exact_inner_config(), seed=0)
    assert val == pytest.approx(expected, abs=1e-8)
    # the tasks are left untouched
    assert all(t.posterior is None and len(t.stack) == 0 for t in tasks)
    shuffled = [tasks[2], tasks[0], tasks[1]]
    val2 = meta_objective(fam, theta_p, shuffled, exact_inner_config(), seed=5)
    assert val2 == pytest.approx(val, abs=1e-10)


def test_meta_objective_zero_risk_tasks():
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    tasks = quadratic_tasks(fam, [np.zeros(2), np.zeros(2)], [0.4, 0.4])
    val = meta_objective(fam, theta_p, tasks, exact_inner_config(), seed=1)
    assert val == pytest.approx(0.0, abs=1e-10)
    # epoch 0 solves at the initial prior, and a zero risk keeps the prior
    cfg = MetaConfig(epochs=1, inner_first=exact_inner_config(), batch_size=2)
    run_meta_sgd(fam, tasks, theta_p, cfg, seed=1)
    for task in tasks:
        np.testing.assert_allclose(task.posterior, theta_p, atol=1e-10)


def test_meta_gradient_matches_finite_differences():
    # the arbiter for the gradient's sign: central differences of the
    # meta objective with exact inner solves, 1e-5 relative
    fam = GaussianFamily(1)
    theta_p = fam.natural_from_moments([0.3], [[0.9]])
    etas = [np.array([0.25, 0.1]), np.array([-0.15, 0.12]), np.array([0.05, -0.04])]
    lams = [0.6, 0.9, 1.3]
    tasks = quadratic_tasks(fam, etas, lams)
    inner = exact_inner_config()

    def objective(tp):
        return meta_objective(fam, tp, tasks, inner, seed=0)

    posteriors = [
        QuadraticRisk(fam, eta=eta).gibbs_posterior(theta_p, lam)
        for eta, lam in zip(etas, lams)
    ]
    analytic = meta_gradient(fam, theta_p, posteriors, lams)
    fd = fd_grad(objective, theta_p, h=1e-5)
    np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)


def test_meta_config_validation_and_warm_default():
    inner = exact_inner_config()
    cfg = MetaConfig(epochs=3, inner_first=inner)
    assert cfg.inner_warm is inner
    with pytest.raises(ValueError):
        MetaConfig(epochs=0, inner_first=inner)
    with pytest.raises(ValueError):
        MetaConfig(epochs=1, inner_first=inner, meta_kl_max=0.0)
    with pytest.raises(ValueError, match="epochs"):
        MetaConfig(epochs=2.0, inner_first=inner)
    for name in ("meta_step_size", "meta_kl_max"):
        with pytest.raises(ValueError, match=name):
            MetaConfig(epochs=1, inner_first=inner, **{name: True})


def test_meta_sgd_stationary_for_zero_risk_tasks():
    fam = GaussianFamily(1)
    theta_p0 = standard_normal_params(fam)
    tasks = quadratic_tasks(fam, [np.zeros(2)] * 3, [0.5] * 3)
    cfg = MetaConfig(epochs=3, inner_first=exact_inner_config(0.5), batch_size=3)
    theta_p, trace = run_meta_sgd(fam, tasks, theta_p0, cfg, seed=2)
    np.testing.assert_allclose(theta_p, theta_p0, atol=1e-9)
    assert np.all(trace.column("kl_step") < 1e-15)


def test_meta_sgd_descends_on_shared_optimum_tasks():
    # tasks whose Gibbs posteriors all sit at the same shifted mean
    fam = GaussianFamily(1)
    theta_p0 = standard_normal_params(fam)
    eta = np.array([-0.8, 0.0])  # pulls the posterior mean to +1 at lam=0.8
    tasks = quadratic_tasks(fam, [eta] * 4, [0.8] * 4)
    inner = exact_inner_config(0.8)
    cfg = MetaConfig(
        epochs=10, inner_first=inner, batch_size=4, meta_step_size=0.5, meta_kl_max=0.2
    )
    m_before = meta_objective(fam, theta_p0, tasks, inner, seed=0)
    theta_p, trace = run_meta_sgd(fam, tasks, theta_p0, cfg, seed=3)
    m_after = meta_objective(fam, theta_p, tasks, inner, seed=0)
    assert m_after < m_before
    batch_objs = trace.column("meta_obj")
    assert len(batch_objs) == 10
    assert np.all(np.diff(batch_objs) < 1e-12)  # strict decrease every epoch
    assert np.all(trace.column("kl_step") <= 0.2 + 1e-9)


def test_meta_sgd_deterministic(tmp_path):
    fam = GaussianFamily(1)
    theta_p0 = standard_normal_params(fam)
    rng = np.random.default_rng(5)
    tasks = quadratic_tasks(
        fam, [0.3 * rng.standard_normal(2) for _ in range(4)], [0.5, 0.7, 0.9, 1.1]
    )
    blobs = []
    for run in range(2):
        fresh = tasks_from_json(tasks_to_json(tasks), family=fam)
        cfg = MetaConfig(epochs=4, inner_first=exact_inner_config(), batch_size=2)
        _, trace = run_meta_sgd(fam, fresh, theta_p0, cfg, seed=11)
        path = tmp_path / f"meta_{run}.csv"
        trace.to_csv(path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_meta_trace_round_trip(tmp_path):
    trace = MetaTrace()
    rng = np.random.default_rng(7)
    for epoch in range(3):
        for batch in range(2):
            trace.append(
                MetaRecord(
                    epoch=epoch,
                    batch=batch,
                    meta_obj=rng.standard_normal(),
                    kl_step=rng.uniform(),
                    theta_p=rng.standard_normal(2),
                )
            )
    path = tmp_path / "meta.csv"
    trace.to_csv(path)
    back = MetaTrace.from_csv(path)
    assert len(back) == 6
    np.testing.assert_array_equal(back.column("meta_obj"), trace.column("meta_obj"))
    priors = back.priors_by_epoch()
    assert len(priors) == 3
    np.testing.assert_array_equal(priors[1], trace.records[3].theta_p)


def test_evaluate_prior_ranks_priors_and_leaves_tasks_alone():
    fam = GaussianFamily(1)
    eta = np.array([-0.8, 0.0])
    tasks = quadratic_tasks(fam, [eta] * 3, [0.8] * 3)
    inner = exact_inner_config(0.8)
    theta_far = standard_normal_params(fam)
    theta_near = fam.natural_from_moments([1.0], [[1.0]])  # matches the optima
    score_far = evaluate_prior(fam, tasks, theta_far, inner, seed=0)
    score_near = evaluate_prior(fam, tasks, theta_near, inner, seed=0)
    assert score_near < score_far
    assert all(t.posterior is None and len(t.stack) == 0 for t in tasks)


def test_inner_solve_failures_name_the_task():
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    good = TaskSpec(
        risk=QuadraticRisk(fam, eta=np.array([0.1, 0.0])), lam=0.5, stack=EvalStack(1)
    )
    bad = TaskSpec(
        risk=CustomRisk(lambda x: np.full(np.atleast_2d(x).shape[0], np.nan), 1),
        lam=0.5,
        stack=EvalStack(1),
    )
    with pytest.raises(ValueError, match="task 1"):
        meta_objective(fam, theta_p, [good, bad], exact_inner_config(0.5), seed=0)

    # an error class whose constructor takes two arguments is chained, not rebuilt
    class BackendError(Exception):
        def __init__(self, code, detail):
            super().__init__(f"{code}: {detail}")

    def failing_backend(x):
        raise BackendError(503, "risk backend unavailable")

    bad = TaskSpec(risk=CustomRisk(failing_backend, 1), lam=0.5, stack=EvalStack(1))
    with pytest.raises(ValueError, match="task 1.*risk backend unavailable") as info:
        meta_objective(fam, theta_p, [good, bad], exact_inner_config(0.5), seed=0)
    assert isinstance(info.value.__cause__, BackendError)


def test_meta_sgd_respects_per_task_temperatures():
    # tasks carry their own lam; inner solves must use it, not the shared one
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    eta = np.array([0.4, 0.1])
    lam_task = 2.0
    tasks = quadratic_tasks(fam, [eta], [lam_task])
    inner = exact_inner_config(lam=0.1)  # deliberately different temperature
    val = meta_objective(fam, theta_p, tasks, inner, seed=0)
    risk = QuadraticRisk(fam, eta=eta)
    theta_hat = risk.gibbs_posterior(theta_p, lam_task)
    expected = risk.expected_value(theta_hat) + lam_task * fam.kl(theta_hat, theta_p)
    assert val == pytest.approx(expected, abs=1e-8)
    # epoch 0 solves at the initial prior, so it stores the Gibbs posterior at the task's lam
    run_meta_sgd(fam, tasks, theta_p, MetaConfig(epochs=1, inner_first=inner), seed=0)
    np.testing.assert_allclose(tasks[0].posterior, theta_hat, atol=1e-8)


def test_only_meta_sgd_writes_task_state():
    # meta_objective and evaluate_prior solve cold and store nothing, before
    # and after run_meta_sgd has stored a posterior and a ledger on each task
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    tasks = quadratic_tasks(fam, [np.array([0.3, 0.1]), np.array([-0.2, 0.15])], [0.5, 0.8])
    inner = exact_inner_config()

    def state():
        return [(t.posterior, t.stack, len(t.stack)) for t in tasks]

    def assert_untouched(before):
        for (posterior, stack, rows), task in zip(before, tasks):
            assert task.posterior is posterior and task.stack is stack
            assert len(task.stack) == rows

    for visited in (False, True):
        if visited:
            run_meta_sgd(fam, tasks, theta_p, MetaConfig(epochs=1, inner_first=inner), seed=4)
            assert all(t.posterior is not None and len(t.stack) > 0 for t in tasks)
        before = state()
        meta_objective(fam, theta_p, tasks, inner, seed=0)
        assert_untouched(before)
        evaluate_prior(fam, tasks, theta_p, inner, seed=0)
        assert_untouched(before)


def synthetic_meta_run(n_tasks, batch_size, risk=None):
    """A small Voronoi-weighted meta run; returns every array it leaves behind."""
    fam = GaussianFamily(3, structure="full")
    env = TaskEnvironment.sample(5, 3)
    tasks = [sample_synthetic_task(100 + i, 3, env=env) for i in range(n_tasks)]
    if risk is not None:
        for task in tasks:
            task.risk = risk
    inner = CatoniConfig(
        lam=0.1,
        n_initial_queries=30,
        n_queries_per_step=6,
        n_mc_weights=200,
        max_steps=3,
        convergence_kl_tol=0.0,
        record_trace=False,
    )
    cfg = MetaConfig(epochs=2, inner_first=inner, batch_size=batch_size, n_eval=50)
    theta_p, trace = run_meta_sgd(fam, tasks, standard_normal_params(fam), cfg, seed=42)
    arrays = [theta_p, trace.column("meta_obj"), trace.column("kl_step")]
    arrays += [r.theta_p for r in trace.records]
    for task in tasks:
        arrays += [task.posterior, task.stack.points, task.stack.values, task.stack.steps]
    return arrays


def assert_same_bytes(arrays, reference):
    assert len(arrays) == len(reference)
    for a, b in zip(arrays, reference):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_meta_batches_fork_one_worker_per_cpu_and_blas_thread(cpus, monkeypatch):
    cpus(4)
    assert [_batch_workers(n) for n in (1, 2, 3, 5)] == [1, 2, 3, 4]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert _batch_workers(5) == 2
    # with no BLAS thread variable set, BLAS takes every CPU
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var)
    assert _batch_workers(5) == 1
    # a process that runs another thread is not forked
    cpus(4)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _batch_workers(5) == 1
    finally:
        stop.set()
        thread.join()
    assert _batch_workers(5) == 4


@pytest.mark.parametrize(
    "n_tasks, batch_size",
    [(5, 3), (3, 2)],  # batches of 3 and 2 tasks; batches of 2 and 1
)
def test_meta_sgd_gives_the_same_bytes_for_any_worker_count(cpus, n_tasks, batch_size):
    cpus(1)
    reference = synthetic_meta_run(n_tasks, batch_size)
    for workers in (2, 3):
        cpus(workers)
        assert_same_bytes(synthetic_meta_run(n_tasks, batch_size), reference)
    assert multiprocessing.active_children() == []


def test_meta_sgd_workers_run_a_risk_that_cannot_be_pickled(cpus):
    # the workers are forked, so the lambda is inherited, never pickled
    parent = os.getpid()

    def outside_parent(x):
        assert os.getpid() != parent, "a batch task was solved in the calling process"
        return np.tanh(0.1 * np.sum((x - 0.5) ** 2, axis=1))

    cpus(1)
    risk = CustomRisk(lambda x: np.tanh(0.1 * np.sum((x - 0.5) ** 2, axis=1)), 3)
    reference = synthetic_meta_run(4, 4, risk=risk)
    cpus(2)
    assert_same_bytes(synthetic_meta_run(4, 4, risk=risk), reference)
    assert_same_bytes(synthetic_meta_run(4, 4, risk=CustomRisk(outside_parent, 3)), reference)


def test_meta_sgd_worker_failures_name_the_task_and_leave_no_process(cpus):
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    cfg = MetaConfig(epochs=1, inner_first=exact_inner_config(0.5), batch_size=4)

    def tasks_with(failing, bad_indices):
        tasks = quadratic_tasks(fam, [np.array([0.1, 0.0])] * 4, [0.5] * 4)
        for idx in bad_indices:
            tasks[idx].risk = CustomRisk(failing, 1)
        return tasks

    def run(tasks, workers, error=ValueError):
        cpus(workers)
        with pytest.raises(error) as info:
            run_meta_sgd(fam, tasks, theta_p, cfg, seed=0)
        assert multiprocessing.active_children() == []
        return info.value

    def unavailable(x):
        raise ConnectionError("risk backend unavailable")

    error = run(tasks_with(unavailable, [2]), workers=2)
    assert "task 2" in str(error) and "risk backend unavailable" in str(error)
    assert isinstance(error.__cause__, ConnectionError)
    assert str(error.__cause__) == "risk backend unavailable"
    # with two failing tasks, the one the in-process loop meets first is named
    for bad in ([0, 3], [1, 2], [0, 1, 2, 3]):
        in_process = run(tasks_with(unavailable, bad), workers=1)
        assert str(run(tasks_with(unavailable, bad), workers=2)) == str(in_process)

    # an error class whose constructor takes two arguments cannot be rebuilt
    # from its pickle, so the worker chains a RuntimeError with its traceback
    class BackendError(Exception):
        def __init__(self, code, detail):
            super().__init__(f"{code}: {detail}")

    def failing_backend(x):
        raise BackendError(503, "risk backend unavailable")

    error = run(tasks_with(failing_backend, [1]), workers=2)
    assert "task 1" in str(error) and "503: risk backend unavailable" in str(error)
    assert isinstance(error.__cause__, RuntimeError)
    assert "BackendError: 503: risk backend unavailable" in str(error.__cause__)

    # a worker that dies without a result breaks the pool, and every worker is joined
    parent = os.getpid()

    def exit_in_worker(x):
        assert os.getpid() != parent, "a batch task was solved in the calling process"
        os._exit(3)

    run(tasks_with(exit_in_worker, [0]), workers=2, error=BrokenProcessPool)
