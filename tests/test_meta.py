"""Prior meta-optimization: synthetic tasks, meta gradient, meta descent."""

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
from pacbayes.meta import MetaRecord, MetaTrace, TaskSpec, meta_gradient
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
