"""End-to-end acceptance suite.

Each test covers one acceptance criterion with its stated tolerance and
prints a single [PASS] line on success.  The two long-running benchmarks
(criteria 6 and 8) use fixed seeds, so their outcomes are reproducible.
"""

import json
import math
import time

import numpy as np
from scipy.stats import spearmanr

from pacbayes import (
    CatoniConfig,
    EvalStack,
    GaussianFamily,
    GDConfig,
    MetaConfig,
    QuadraticRisk,
    TaskEnvironment,
    evaluate_objective,
    evaluate_prior,
    meta_objective,
    run_experiment,
    run_gd,
    run_meta_sgd,
    run_supac_ce,
    sample_synthetic_task,
    standard_normal_params,
    tasks_from_json,
    tasks_to_json,
    voronoi_weights,
)
from pacbayes.meta import meta_gradient
from pacbayes.solver import surrogate_argmin
from pacbayes.weighting import exact_voronoi_weights_1d

from _oracles import (
    family_moments,
    fd_grad,
    fd_jacobian,
    gauss_expect,
    normalization_1d,
    quad_projection,
    random_spd,
)


def clipped_cube(u):
    """x^3 on [-10, 10], continued smoothly to a bounded function outside."""
    u = np.asarray(u, dtype=float)
    out = np.clip(u, -10.0, 10.0) ** 3
    over = u > 10.0
    under = u < -10.0
    out = np.where(over, 1000.0 + 300.0 * (1.0 - np.exp(-(u - 10.0))), out)
    out = np.where(under, -1000.0 - 300.0 * (1.0 - np.exp(-(-u - 10.0))), out)
    return out


def cube_risk(x):
    return np.sum(clipped_cube(np.atleast_2d(x)), axis=1)


def random_theta(family, rng, mean_scale=1.0):
    k = family.predictor_dim
    mean = mean_scale * rng.uniform(-1.0, 1.0, size=k)
    cov = np.zeros((k, k))
    for block in family.blocks:
        ix = np.ix_(block, block)
        if len(block) == 1:
            cov[ix] = np.exp(rng.uniform(-0.5, 0.5))
        else:
            cov[ix] = random_spd(rng, len(block), scale=0.8)
    return family.natural_from_moments(mean, cov)


def test_criterion_01_gradient_invariance():
    # FD gradient of the objective through the risk and through its
    # population projection agree within 1e-3 relative at 20 random states.
    start = time.monotonic()
    rng = np.random.default_rng(101)
    lam = 0.5
    worst = 0.0
    cases = [(GaussianFamily(1), 80, 10), (GaussianFamily(2, structure="full"), 48, 10)]
    for fam, n_nodes, n_states in cases:
        theta_p = standard_normal_params(fam)
        for _ in range(n_states):
            theta_star = random_theta(fam, rng)
            eta, c = quad_projection(fam, theta_star, cube_risk, n_nodes=n_nodes)

            def obj_risk(th):
                m, v = family_moments(fam, th)
                return gauss_expect(cube_risk, m, v, n_nodes=n_nodes) + lam * fam.kl(
                    th, theta_p
                )

            def obj_proxy(th):
                return float(eta @ fam.mean_suff_stat(th)) + c + lam * fam.kl(th, theta_p)

            g_risk = fd_grad(obj_risk, theta_star, h=1e-5)
            g_proxy = fd_grad(obj_proxy, theta_star, h=1e-5)
            rel = np.linalg.norm(g_risk - g_proxy) / np.linalg.norm(g_risk)
            worst = max(worst, rel)
            assert rel <= 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"[PASS] criterion 1: projection leaves the objective gradient unchanged "
        f"(worst rel {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_02_gibbs_posterior_is_fixed_point():
    # solver started at the exact penalized optimum stays there for 20 steps
    fam = GaussianFamily(1)
    theta_p = fam.natural_from_moments([0.2], [[1.3]])
    risk = QuadraticRisk(fam, eta=np.array([-0.4, 0.3]), offset=0.2)
    lam = 0.8
    theta_hat = risk.gibbs_posterior(theta_p, lam)
    cfg = CatoniConfig(
        lam=lam,
        kl_max=np.inf,
        alpha_max=1.0,
        n_initial_queries=32,
        n_queries_per_step=8,
        weighting="exact1d",
        max_steps=20,
        convergence_kl_tol=0.0,
    )
    _, trace, _ = run_supac_ce(risk, fam, theta_p, theta_hat, cfg, seed=2)
    assert len(trace) == 20
    drifts = []
    previous = theta_hat
    for th in trace.thetas:
        drifts.append(fam.kl(th, previous))
        previous = th
    assert all(d < 1e-6 for d in drifts)
    print(
        f"[PASS] criterion 2: Gibbs posterior is a fixed point "
        f"(max KL drift per step {max(drifts):.2e} over 20 steps)"
    )


def test_criterion_03_natural_gradient_identity():
    # theta_tilde - theta = -(1/lam) I(theta)^-1 grad Obj within 1e-6 relative
    rng = np.random.default_rng(303)
    families = (
        GaussianFamily(1),
        GaussianFamily(2, structure="full"),
        GaussianFamily(3, structure="diag"),
    )
    worst = 0.0
    for i in range(50):
        fam = families[i % len(families)]
        theta = random_theta(fam, rng)
        theta_p = random_theta(fam, rng)
        eta = 0.3 * rng.standard_normal(fam.dim)
        lam = rng.uniform(0.3, 2.0)
        risk = QuadraticRisk(fam, eta=eta)

        def objective(th):
            return risk.expected_value(th) + lam * fam.kl(th, theta_p)

        grad = fd_grad(objective, theta, h=1e-6)
        lhs = surrogate_argmin(theta_p, eta, lam) - theta
        rhs = -np.linalg.solve(fam.fisher_info(theta), grad) / lam
        rel = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
        worst = max(worst, rel)
        assert rel <= 1e-6
    print(
        f"[PASS] criterion 3: surrogate step equals the natural-gradient step "
        f"(worst rel {worst:.2e} over 50 instances)"
    )


def test_criterion_04_finite_step_convergence():
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    risk = QuadraticRisk(fam, eta=np.array([3.0, 0.3]))
    lam = 1.0
    theta_hat = risk.gibbs_posterior(theta_p, lam)
    kl_total = fam.kl(theta_hat, theta_p)

    # full steps under a KL-0.5 trust region reach the exact optimum in at
    # most ceil(KL / 0.5) + 1 steps
    cfg = CatoniConfig(
        lam=lam,
        kl_max=0.5,
        alpha_max=1.0,
        n_initial_queries=32,
        n_queries_per_step=8,
        weighting="exact1d",
        max_steps=30,
        convergence_kl_tol=0.0,
    )
    _, trace, _ = run_supac_ce(risk, fam, theta_p, theta_p, cfg, seed=4)
    gaps = [fam.kl(th, theta_hat) for th in trace.thetas]
    reached = next(t for t, gap in enumerate(gaps) if gap < 1e-8)
    budget = math.ceil(kl_total / 0.5) + 1
    assert reached + 1 <= budget

    # with damping 0.7 the tail KL to the optimum contracts by (1 - 0.7)^2
    cfg_damped = CatoniConfig(
        lam=lam,
        kl_max=np.inf,
        alpha_max=0.7,
        n_initial_queries=32,
        n_queries_per_step=8,
        weighting="exact1d",
        max_steps=25,
        convergence_kl_tol=0.0,
    )
    _, trace_d, _ = run_supac_ce(risk, fam, theta_p, theta_p, cfg_damped, seed=5)
    gaps_d = [fam.kl(th, theta_hat) for th in trace_d.thetas]
    ratios = [
        after / before
        for before, after in zip(gaps_d, gaps_d[1:])
        if 1e-11 < before < 1e-3 and after > 1e-13
    ]
    assert len(ratios) >= 3
    target = (1.0 - 0.7) ** 2
    for r in ratios:
        assert abs(r - target) <= 0.05 * target
    print(
        f"[PASS] criterion 4: exact optimum in {reached + 1} <= {budget} steps; "
        f"tail contraction {np.mean(ratios):.4f} vs {target:.4f}"
    )


def test_criterion_05_voronoi_weights_match_cell_probabilities():
    fam = GaussianFamily(1)
    stack = EvalStack(1)
    stack.record(np.array([[-1.0], [0.0], [2.0]]), np.zeros(3), step=0)
    theta = standard_normal_params(fam)
    n_mc = 100_000
    w = voronoi_weights(stack, fam, theta, n_mc=n_mc, seed=0)
    exact = exact_voronoi_weights_1d(stack, fam, theta)
    err = np.abs(w - exact).max()
    assert err <= 3.0 / math.sqrt(n_mc)
    print(
        f"[PASS] criterion 5: Voronoi weights within {err:.2e} of normal-CDF "
        f"cell masses (bound {3.0 / math.sqrt(n_mc):.2e})"
    )


def test_criterion_06_query_efficiency_benchmark():
    # 2000-query budget, 10 paired repeats: the surrogate solver's median
    # final objective must beat every descent configuration's median.
    start = time.monotonic()
    k = 8
    fam = GaussianFamily(k, structure="full")
    theta_p = standard_normal_params(fam)
    lam = 0.01
    repeats = 10
    tasks = []
    for r in range(repeats):
        env = TaskEnvironment.sample(1000 + r, k)
        tasks.append(sample_synthetic_task(2000 + r, k, env=env, lam=lam))
    eval_cfg = CatoniConfig(lam=lam)

    supac_cfg = CatoniConfig(
        lam=lam,
        kl_max=1.0,
        alpha_max=0.5,
        n_initial_queries=160,
        n_queries_per_step=32,
        n_mc_weights=10_000,
        max_steps=58,
        convergence_kl_tol=0.0,
        record_trace=False,
    )
    supac_objs = []
    for r, task in enumerate(tasks):
        theta, _, stack = run_supac_ce(
            task.risk, fam, theta_p, theta_p, supac_cfg, seed=100 + r
        )
        assert stack.query_count <= 2000
        obj, _ = evaluate_objective(
            task.risk, fam, theta, theta_p, eval_cfg, n_samples=10_000, seed=3000 + r
        )
        supac_objs.append(obj)
    supac_median = float(np.median(supac_objs))

    baseline_medians = {}
    for momentum in (0.0, 0.5):
        for per_step in (80, 160):
            for step_size in (0.025, 0.05):
                objs = []
                for r, task in enumerate(tasks):
                    cfg = GDConfig(
                        step_size=step_size,
                        momentum=momentum,
                        per_step=per_step,
                        max_queries=2000,
                        diag_samples=10,
                    )
                    theta, trace = run_gd(
                        task.risk, fam, theta_p, theta_p, cfg, eval_cfg, seed=100 + r
                    )
                    assert trace.query_grid[-1] <= 2000
                    obj, _ = evaluate_objective(
                        task.risk,
                        fam,
                        theta,
                        theta_p,
                        eval_cfg,
                        n_samples=10_000,
                        seed=3000 + r,
                    )
                    objs.append(obj)
                baseline_medians[(momentum, per_step, step_size)] = float(
                    np.median(objs)
                )

    best_baseline = min(baseline_medians.values())
    elapsed = time.monotonic() - start
    assert supac_median < best_baseline
    assert elapsed < 600.0
    print(
        f"[PASS] criterion 6: median objective {supac_median:.4f} beats best "
        f"descent baseline {best_baseline:.4f} at 2000 queries ({elapsed:.0f}s)"
    )


def test_criterion_07_meta_gradient_matches_finite_differences():
    # in-span task set solved exactly: closed-form meta gradient vs central
    # differences of the meta objective, 1e-5 relative
    fam = GaussianFamily(2, structure="diag")
    theta_p = fam.natural_from_moments(np.array([0.3, -0.2]), np.diag([0.9, 1.2]))
    # small risk coefficients keep every Gibbs posterior inside the domain
    etas = [
        np.array([0.25, -0.1, 0.08, 0.05]),
        np.array([-0.15, 0.12, -0.06, 0.1]),
        np.array([0.05, -0.04, 0.1, -0.08]),
        np.array([-0.2, 0.18, 0.04, 0.06]),
    ]
    lams = [0.5, 0.8, 1.1, 1.6]
    tasks = [
        {"lambda": lam, "risk": {"kind": "quadratic_in_f", "eta": eta.tolist(), "offset": 0.0}}
        for eta, lam in zip(etas, lams)
    ]
    task_list = tasks_from_json(json.dumps(tasks), family=fam)
    inner = CatoniConfig(
        lam=0.1,
        kl_max=np.inf,
        alpha_max=1.0,
        n_initial_queries=24,
        n_queries_per_step=6,
        n_mc_weights=200,
        max_steps=10,
        convergence_kl_tol=1e-12,
        record_trace=False,
    )

    def objective(tp):
        return meta_objective(fam, tp, task_list, inner, seed=0)

    posteriors = [
        QuadraticRisk(fam, eta=eta).gibbs_posterior(theta_p, lam)
        for eta, lam in zip(etas, lams)
    ]
    analytic = meta_gradient(fam, theta_p, posteriors, lams)
    fd = fd_grad(objective, theta_p, h=1e-5)
    rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
    assert rel <= 1e-5
    print(
        f"[PASS] criterion 7: closed-form meta gradient matches finite "
        f"differences (rel {rel:.2e})"
    )


def test_criterion_08_meta_learning_improves_prior():
    start = time.monotonic()
    k = 8
    fam = GaussianFamily(k, structure="full")
    theta_p0 = standard_normal_params(fam)
    lam = 0.1
    env = TaskEnvironment.sample(424242, k)
    train = [sample_synthetic_task(s, k, env=env, lam=lam) for s in range(20)]
    test = [sample_synthetic_task(100 + s, k, env=env, lam=lam) for s in range(10)]
    train_json = tasks_to_json(train)

    inner_first = CatoniConfig(
        lam=lam,
        kl_max=1.0,
        alpha_max=0.5,
        query_schedule=(100, 100, 100, 100, 50, 50, 50, 50, 50, 50, 50, 50),
        n_mc_weights=10_000,
        max_steps=12,
        convergence_kl_tol=0.0,
        record_trace=False,
    )
    inner_warm = CatoniConfig(
        lam=lam,
        kl_max=1.0,
        alpha_max=0.5,
        query_schedule=(20, 0, 20, 0),
        n_mc_weights=10_000,
        max_steps=4,
        convergence_kl_tol=0.0,
        record_trace=False,
    )
    cfg = MetaConfig(
        epochs=30,
        inner_first=inner_first,
        inner_warm=inner_warm,
        batch_size=10,
        meta_step_size=1.5,
        meta_kl_max=0.2,
        n_eval=2000,
    )

    m_initial = meta_objective(
        fam,
        theta_p0,
        tasks_from_json(train_json),
        inner_first,
        seed=777,
        n_eval=10_000,
    )
    theta_p, trace = run_meta_sgd(fam, train, theta_p0, cfg, seed=31337)
    m_final = meta_objective(
        fam,
        theta_p,
        tasks_from_json(train_json),
        inner_first,
        seed=777,
        n_eval=10_000,
    )
    decrease = (m_initial - m_final) / m_initial
    assert decrease >= 0.40

    priors = [theta_p0] + trace.priors_by_epoch()
    assert len(priors) == 31
    scores = [
        evaluate_prior(fam, test, tp, inner_first, seed=9999, n_eval=10_000)
        for tp in priors
    ]
    rho = float(spearmanr(np.arange(len(priors)), scores).statistic)
    elapsed = time.monotonic() - start
    assert rho < -0.5
    assert elapsed < 1800.0
    print(
        f"[PASS] criterion 8: meta objective down {100 * decrease:.1f}% "
        f"({m_initial:.2f} -> {m_final:.2f}), held-out Spearman {rho:.3f} "
        f"({elapsed:.0f}s)"
    )


def test_criterion_09_exponential_family_unit_suite():
    rng = np.random.default_rng(909)
    fam1 = GaussianFamily(1)
    fam2 = GaussianFamily(2, structure="full")

    # KL against quadrature of the log density ratio, 1e-6
    kl_err = 0.0
    for _ in range(5):
        theta1 = random_theta(fam1, rng)
        theta2 = random_theta(fam1, rng)
        m1, c1 = family_moments(fam1, theta1)
        quad = gauss_expect(
            lambda x: fam1.log_density(theta1, x) - fam1.log_density(theta2, x),
            m1,
            c1,
            n_nodes=80,
        )
        kl_err = max(kl_err, abs(fam1.kl(theta1, theta2) - quad))
    assert kl_err <= 1e-6

    # mean statistic against FD of the log partition, 1e-5 relative
    for fam in (fam1, fam2):
        for _ in range(5):
            theta = random_theta(fam, rng)
            fd = fd_grad(fam.log_partition, theta, h=1e-5)
            np.testing.assert_allclose(fam.mean_suff_stat(theta), fd, rtol=1e-5)

    # Fisher information against FD of the mean statistic, 1e-4 relative
    for fam in (fam1, fam2):
        for _ in range(5):
            theta = random_theta(fam, rng)
            fd = fd_jacobian(fam.mean_suff_stat, theta, h=1e-5)
            np.testing.assert_allclose(
                fam.fisher_info(theta), fd, rtol=1e-4, atol=1e-7
            )

    # normalization: direct integral of exp(theta . T) matches exp(g), 1e-6
    for _ in range(5):
        theta = random_theta(fam1, rng)
        np.testing.assert_allclose(
            np.log(normalization_1d(theta)), fam1.log_partition(theta), atol=1e-6
        )

    # moment round trip, 1e-10 relative
    for fam in (
        fam1,
        fam2,
        GaussianFamily(3, structure="diag"),
        GaussianFamily(4, structure="block", blocks=[(0, 1), (2, 3)]),
    ):
        for _ in range(25):
            k = fam.predictor_dim
            mean = 2.0 * rng.standard_normal(k)
            cov = np.zeros((k, k))
            for block in fam.blocks:
                ix = np.ix_(block, block)
                cov[ix] = random_spd(rng, len(block))
            theta = fam.natural_from_moments(mean, cov)
            back = fam.moments_from_natural(theta)
            np.testing.assert_allclose(back.mean, mean, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(back.cov, cov, rtol=1e-10, atol=1e-12)

    print(
        "[PASS] criterion 9: KL/quadrature 1e-6, grad-g/FD 1e-5, Fisher/FD 1e-4, "
        "normalization 1e-6, round trip 1e-10"
    )


def test_criterion_10_experiment_determinism(tmp_path):
    config = {
        "method": "supac_ce",
        "family": {"structure": "full", "predictor_dim": 3},
        "risk": {"kind": "tanh_synthetic", "sampled": True},
        "prior": "standard",
        "supac_ce": {
            "lambda": 0.1,
            "kl_max": 1.0,
            "alpha_max": 0.5,
            "n_initial_queries": 40,
            "n_queries_per_step": 10,
            "n_mc_weights": 1000,
            "max_steps": 6,
            "convergence_kl_tol": 0.0,
        },
        "repeats": 2,
        "master_seed": 13,
    }
    digests = []
    for name in ("a", "b"):
        manifest = run_experiment(dict(config), output_dir=tmp_path / name)
        digests.append(manifest["outputs"])
    assert digests[0] == digests[1]
    for name in digests[0]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    n_traces = sum(1 for n in digests[0] if n.startswith("trace_"))
    print(
        f"[PASS] criterion 10: re-run with the same master seed reproduced "
        f"{n_traces} trace files byte for byte"
    )
