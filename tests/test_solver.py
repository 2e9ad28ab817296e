"""Catoni objective pieces and the damped surrogate-projection solver."""

import copy
import functools
import math

import numpy as np
import pytest

from pacbayes import (
    CatoniConfig,
    ConfigError,
    CustomRisk,
    DomainError,
    EvalStack,
    GaussianFamily,
    QuadraticRisk,
    TanhSyntheticRisk,
    evaluate_objective,
    run_supac_ce,
    standard_normal_params,
)
from pacbayes.meta import MetaRecord, MetaTrace
from pacbayes.solver import (
    SolverTrace,
    TraceRecord,
    _ray_kl,
    bound_offset,
    catoni_bound,
    catoni_objective,
    damped_update,
    estimate_mean_risk,
    surrogate_argmin,
)

from _oracles import family_moments, fd_grad, gauss_expect, quad_projection, random_theta


def small_config(**kwargs):
    base = dict(
        lam=1.0,
        kl_max=np.inf,
        alpha_max=1.0,
        n_initial_queries=16,
        n_queries_per_step=4,
        n_mc_weights=500,
        max_steps=30,
        convergence_kl_tol=1e-10,
    )
    base.update(kwargs)
    return CatoniConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        CatoniConfig(lam=0.0)
    with pytest.raises(ValueError):
        CatoniConfig(lam=1.0, delta=1.0)
    with pytest.raises(ValueError):
        CatoniConfig(lam=1.0, alpha_max=1.5)
    with pytest.raises(ValueError):
        CatoniConfig(lam=1.0, weighting="nearest")
    with pytest.raises(ValueError):
        CatoniConfig(lam=1.0, query_schedule=[10, -1])
    # integer fields reject floats, including integral ones from JSON
    with pytest.raises(ValueError, match="max_steps"):
        CatoniConfig(lam=1.0, max_steps=2.0)
    with pytest.raises(ValueError, match="max_steps"):
        CatoniConfig(lam=1.0, max_steps=True)
    with pytest.raises(ValueError, match="n_mc_weights"):
        CatoniConfig(lam=1.0, n_mc_weights=100.5)
    with pytest.raises(ValueError, match="query_schedule"):
        CatoniConfig(lam=1.0, query_schedule=[10, 2.5])
    # float fields reject booleans, and the trace flag takes nothing but one
    for name in ("lam", "delta", "c_range", "kl_max", "alpha_max", "convergence_kl_tol"):
        with pytest.raises(ValueError, match=name):
            CatoniConfig(**{"lam": 1.0, name: True})
    with pytest.raises(ValueError, match="record_trace"):
        CatoniConfig(lam=1.0, record_trace=0)


def test_query_schedule():
    cfg = CatoniConfig(lam=1.0, n_initial_queries=160, n_queries_per_step=32)
    assert cfg.queries_at(0) == 160
    assert cfg.queries_at(5) == 32
    sched = CatoniConfig(lam=1.0, query_schedule=[100, 50, 0, 20])
    assert [sched.queries_at(s) for s in range(6)] == [100, 50, 0, 20, 20, 20]


def test_objective_and_bound_constants():
    assert catoni_objective(0.0, 0.0, 1.0) == 0.0
    # arithmetic decomposition at reported scale: 0.102 + 0.002 * 9.5 = 0.121
    assert catoni_objective(0.102, 9.5, 0.002) == pytest.approx(0.121)
    cfg = CatoniConfig(lam=0.002, delta=0.05, n_data=100, c_range=1.0)
    # 1 / (8 * 0.002 * 100) - 0.002 log(0.05) = 0.625 + 0.002 log 20
    np.testing.assert_allclose(bound_offset(cfg), 0.630991464547108, rtol=1e-12)
    np.testing.assert_allclose(
        bound_offset(cfg), 0.625 + 0.002 * math.log(20.0), rtol=1e-12
    )
    assert catoni_bound(0.1, 2.0, cfg) == pytest.approx(
        0.1 + 0.002 * 2.0 + bound_offset(cfg)
    )
    # the offset vanishes as the range shrinks and delta approaches one
    tiny = CatoniConfig(lam=0.002, delta=1.0 - 1e-12, n_data=100, c_range=1e-9)
    assert bound_offset(tiny) == pytest.approx(0.0, abs=1e-12)


def test_surrogate_argmin_values():
    theta_p = np.array([0.0, -0.5])
    np.testing.assert_array_equal(surrogate_argmin(theta_p, np.zeros(2), 1.0), theta_p)
    # R(x) = x^2 / 2 has eta = (0, 1/2); lam = 1 gives the Gibbs posterior N(0, 1/2)
    np.testing.assert_allclose(
        surrogate_argmin(theta_p, np.array([0.0, 0.5]), 1.0), [0.0, -1.0]
    )
    e1 = np.array([1.0, 0.0])
    np.testing.assert_allclose(
        surrogate_argmin(theta_p, e1, 0.002), theta_p - 500.0 * e1
    )


def test_damped_update_inactive_constraint():
    fam = GaussianFamily(1)
    theta = standard_normal_params(fam)
    cand = fam.natural_from_moments([0.1], [[1.0]])
    nxt, alpha = damped_update(fam, theta, cand, kl_max=1.0, alpha_max=0.5)
    assert alpha == 0.5
    np.testing.assert_allclose(nxt, theta + 0.5 * (cand - theta))


def test_damped_update_bisects_to_trust_region_boundary():
    # unit-variance mean shift by 2: KL = 2 alpha^2, so kl_max = 1 gives 1/sqrt(2)
    fam = GaussianFamily(1)
    theta = standard_normal_params(fam)
    cand = fam.natural_from_moments([2.0], [[1.0]])
    nxt, alpha = damped_update(fam, theta, cand, kl_max=1.0, alpha_max=1.0)
    assert alpha == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)
    assert fam.kl(nxt, theta) <= 1.0


def test_damped_update_stays_inside_domain():
    fam = GaussianFamily(1)
    theta = standard_normal_params(fam)
    cand = np.array([0.0, 1.0])  # positive quadratic coordinate: not a density
    nxt, alpha = damped_update(fam, theta, cand, kl_max=np.inf, alpha_max=1.0)
    assert fam.in_domain(nxt)
    assert alpha < 1.0
    # crossing happens at q = 0, i.e. alpha = 0.5 along this ray
    assert alpha < 0.5


def test_damped_update_degenerate_direction():
    fam = GaussianFamily(1)
    theta = standard_normal_params(fam)
    nxt, alpha = damped_update(fam, theta, theta.copy(), kl_max=1.0, alpha_max=0.7)
    np.testing.assert_array_equal(nxt, theta)
    assert alpha == 0.7


def test_damped_update_rejects_bad_inputs():
    fam = GaussianFamily(2)
    theta = standard_normal_params(fam)
    for bad in (np.nan, np.inf):
        cand = theta.copy()
        cand[0] = bad
        with pytest.raises(ValueError, match="theta_cand"):
            damped_update(fam, theta, cand, kl_max=1.0, alpha_max=0.5)
    outside = theta.copy()
    outside[2] = 0.5  # q_11 = -Lambda_11 / 2 > 0: not a density
    with pytest.raises(DomainError):
        damped_update(fam, outside, theta, kl_max=1.0, alpha_max=0.5)


RAY_FAMILIES = (
    GaussianFamily(4, structure="full"),
    GaussianFamily(4, structure="diag"),
    GaussianFamily(5, structure="block", blocks=[(0, 2), (1, 3, 4)]),
)


def test_ray_kl_matches_family_kl():
    rng = np.random.default_rng(61)
    inside = outside = 0
    for fam in RAY_FAMILIES:
        for _ in range(70):
            theta = random_theta(fam, rng)
            # A scaled random parameter: with a negative scale the ray leaves the domain.
            delta = rng.uniform(-2.0, 2.0) * random_theta(fam, rng) - theta
            ray_kl = _ray_kl(fam, theta, delta)
            for alpha in rng.uniform(0.05, 3.0, size=4):
                try:
                    expected = fam.kl(theta + alpha * delta, theta)
                except DomainError:
                    assert ray_kl(alpha) is None
                    outside += 1
                else:
                    assert ray_kl(alpha) == pytest.approx(expected, rel=1e-10, abs=0.0)
                    inside += 1
    assert inside > 200 and outside > 200


def test_ray_kl_gives_the_bits_of_scipys_triangular_solves():
    # _ray_kl's two solves call LAPACK's trtrs directly; the same formula
    # through scipy's wrappers gives the same KL at every trial, bit for bit.
    from scipy.linalg import cho_factor, solve_triangular

    def reference(fam, theta, delta):
        k = fam.predictor_dim
        chol = cho_factor(fam.precision_mean_form(theta)[0], lower=True)[0]
        d_lam, d_b = fam.precision_mean_form(delta)
        rhs = np.column_stack([d_lam, fam.precision_mean_form(theta)[1], d_b])
        white = solve_triangular(chol, rhs, lower=True, check_finite=False)
        step = solve_triangular(chol, white[:, :k].T, lower=True, check_finite=False)
        eig, vecs = np.linalg.eigh(step)
        c0, dc = (vecs.T @ white[:, k:]).T

        def kl(alpha):
            s = 1.0 + alpha * eig
            if not np.all(s > 0):
                return None
            r = (c0 + alpha * dc) / s - c0
            return 0.5 * float(np.sum(1.0 / s) - eig.size + r @ r + np.sum(np.log(s)))

        return kl

    rng = np.random.default_rng(62)
    for k in range(1, 11):
        fam = GaussianFamily(k, structure="full")
        for _ in range(5):
            theta = random_theta(fam, rng)
            delta = rng.uniform(-2.0, 2.0) * random_theta(fam, rng) - theta
            got, want = _ray_kl(fam, theta, delta), reference(fam, theta, delta)
            for alpha in rng.uniform(0.0, 3.0, size=6):
                assert got(alpha) == want(alpha)


def _bisection_over_kl(family, theta, theta_cand, kl_max, alpha_max):
    """The trust-region step as a bisection calling ``family.kl`` at every trial."""
    delta = theta_cand - theta
    if not np.any(delta):
        return theta.copy(), float(alpha_max)

    def feasible(alpha):
        try:
            return family.kl(theta + alpha * delta, theta) <= kl_max
        except DomainError:
            return False

    if feasible(alpha_max):
        return theta + alpha_max * delta, float(alpha_max)
    lo, hi = 0.0, float(alpha_max)
    for _ in range(200):
        if hi - lo <= 1e-9:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return theta + lo * delta, lo


def test_damped_update_matches_a_bisection_over_family_kl():
    rng = np.random.default_rng(67)
    binding = 0
    for fam in RAY_FAMILIES:
        for _ in range(40):
            theta = random_theta(fam, rng)
            cand = rng.uniform(-2.0, 2.0) * random_theta(fam, rng)
            kl_max = rng.choice([0.05, 0.5, 2.0, np.inf])
            alpha_max = rng.choice([0.5, 1.0])
            expected, expected_alpha = _bisection_over_kl(fam, theta, cand, kl_max, alpha_max)
            nxt, alpha = damped_update(fam, theta, cand, kl_max, alpha_max)
            assert alpha == expected_alpha
            np.testing.assert_array_equal(nxt, expected)
            binding += alpha < alpha_max
    assert 20 < binding < 100


def test_estimate_mean_risk():
    stack = EvalStack(1)
    stack.record(np.zeros((2, 1)), [0.0, 1.0], step=0)
    assert estimate_mean_risk(stack, [0.5, 0.5]) == pytest.approx(0.5)
    assert estimate_mean_risk(stack, [1.0, 0.0]) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        estimate_mean_risk(EvalStack(1), [])


def test_solver_one_step_convergence_without_trust_region():
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    risk = QuadraticRisk(fam, eta=np.array([0.3, 0.1]))
    theta_hat = risk.gibbs_posterior(theta_p, lam=1.0)
    theta, trace, stack = run_supac_ce(
        risk, fam, theta_p, theta_p, small_config(), seed=0
    )
    assert fam.kl(theta, theta_hat) < 1e-8
    # step 0 jumps to the optimum; step 1 observes a zero step and stops
    assert len(trace) == 2
    assert trace.records[0].alpha == 1.0
    assert fam.kl(trace.thetas[0], theta_hat) < 1e-12
    assert trace.records[-1].queries == stack.query_count


def test_solver_finite_steps_stay_on_segment():
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    risk = QuadraticRisk(fam, eta=np.array([2.0, -0.4]))
    theta_hat = risk.gibbs_posterior(theta_p, lam=1.0)
    kl_total = fam.kl(theta_hat, theta_p)
    assert kl_total > 1.0  # several trust-region steps needed
    cfg = small_config(kl_max=0.5, convergence_kl_tol=1e-12)
    theta, trace, _ = run_supac_ce(risk, fam, theta_p, theta_p, cfg, seed=1)
    assert fam.kl(theta, theta_hat) < 1e-8
    steps_used = len(trace)
    assert steps_used <= math.ceil(kl_total / 0.5) + 1
    direction = theta_hat - theta_p
    unit = direction / np.linalg.norm(direction)
    for th in trace.thetas:
        offset = th - theta_p
        residual = offset - (offset @ unit) * unit
        assert np.linalg.norm(residual) < 1e-9
        s = (offset @ unit) / np.linalg.norm(direction)
        assert -1e-12 <= s <= 1.0 + 1e-12


def test_solver_fixed_point_with_analytic_weights():
    fam = GaussianFamily(1)
    theta_p = fam.natural_from_moments([0.2], [[1.3]])
    risk = QuadraticRisk(fam, eta=np.array([-0.4, 0.3]), offset=0.2)
    theta_hat = risk.gibbs_posterior(theta_p, lam=0.8)
    cfg = small_config(lam=0.8, weighting="exact1d", max_steps=20, convergence_kl_tol=0.0)
    theta, trace, _ = run_supac_ce(risk, fam, theta_p, theta_hat, cfg, seed=2)
    assert len(trace) == 20
    previous = theta_hat
    for th in trace.thetas:
        assert fam.kl(th, previous) < 1e-6
        previous = th
    assert fam.kl(theta, theta_hat) < 1e-10


def test_solver_trace_is_deterministic(tmp_path):
    fam = GaussianFamily(2, structure="diag")
    theta_p = standard_normal_params(fam)
    rng = np.random.default_rng(7)
    risk = QuadraticRisk(fam, eta=0.2 * rng.standard_normal(fam.dim))
    cfg = small_config(alpha_max=0.5, kl_max=1.0, max_steps=6, convergence_kl_tol=0.0)
    paths = []
    for run in range(2):
        _, trace, _ = run_supac_ce(risk, fam, theta_p, theta_p, cfg, seed=123)
        path = tmp_path / f"trace_{run}.csv"
        trace.to_csv(path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_solver_warm_stack_continues_accounting():
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    risk = QuadraticRisk(fam, eta=np.array([0.2, 0.1]))
    cfg = small_config(max_steps=3, convergence_kl_tol=0.0)
    theta, trace, stack = run_supac_ce(risk, fam, theta_p, theta_p, cfg, seed=5)
    first_total = stack.query_count
    assert first_total == 16 + 2 * 4
    theta2, trace2, stack2 = run_supac_ce(
        risk, fam, theta_p, theta, cfg, seed=6, stack=stack
    )
    assert stack2 is stack
    assert stack.query_count == first_total + 16 + 2 * 4
    assert trace2.records[0].queries == first_total + 16
    # warm batches are charged to fresh step indices
    assert stack.steps.max() == 5


def test_importance_weighting_warm_starts_from_the_ledger(monkeypatch, tmp_path):
    from pacbayes import importance_weights
    from pacbayes import solver as solver_mod

    fam = GaussianFamily(3, structure="full")
    theta_p = standard_normal_params(fam)
    rng = np.random.default_rng(41)
    risk = QuadraticRisk(fam, eta=0.1 * rng.standard_normal(fam.dim))
    cfg = small_config(
        n_initial_queries=40,
        n_queries_per_step=20,
        max_steps=4,
        kl_max=0.5,
        alpha_max=0.5,
        convergence_kl_tol=0.0,
        weighting="importance",
    )
    theta, trace, stack = run_supac_ce(risk, fam, theta_p, theta_p, cfg, seed=3)
    assert stack.query_count == 100
    # the batch of step s was drawn from the iterate before step s
    generation = {0: theta_p, **{s + 1: th for s, th in enumerate(trace.thetas[:-1])}}
    # a ledger read back from CSV carries no generation parameters
    stack.to_csv(tmp_path / "stack.csv")
    with pytest.raises(
        ValueError, match="missing generation parameter for step 0: .*EvalStack.from_csv"
    ):
        run_supac_ce(
            risk, fam, theta_p, theta, cfg, seed=4, stack=EvalStack.from_csv(tmp_path / "stack.csv")
        )

    calls = []

    def spy(stack_, family, theta_, generation_params):
        w = importance_weights(stack_, family, theta_, generation_params)
        calls.append((len(stack_), theta_.copy(), w))
        return w

    monkeypatch.setattr(solver_mod, "importance_weights", spy)
    _, trace2, _ = run_supac_ce(risk, fam, theta_p, theta, cfg, seed=4, stack=stack)
    generation.update({4: theta, **{s + 5: th for s, th in enumerate(trace2.thetas[:-1])}})
    assert len(calls) == 2 * cfg.max_steps
    for n, theta_w, w in calls:
        prefix = EvalStack(3)
        for s in np.unique(stack.steps[:n]):
            mask = stack.steps[:n] == s
            prefix.record(stack.points[:n][mask], stack.values[:n][mask], s)
        np.testing.assert_array_equal(w, importance_weights(prefix, fam, theta_w, generation))


def test_solver_requires_identifiable_first_projection():
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    risk = QuadraticRisk(fam, eta=np.array([0.1, 0.05]))
    cfg = small_config(n_initial_queries=2, n_queries_per_step=2)
    with pytest.raises(ValueError, match="n_initial_queries"):
        run_supac_ce(risk, fam, theta_p, theta_p, cfg, seed=3)


def test_unsolvable_configs_fail_before_any_risk_query():
    def never(x):
        raise AssertionError("the risk was queried")

    fam = GaussianFamily(3)  # dim 9
    theta_p = standard_normal_params(fam)
    risk = CustomRisk(never, 3)
    for kwargs, field in (
        (dict(weighting="exact1d"), "weighting"),
        (dict(n_initial_queries=0), "n_initial_queries"),
        (dict(n_initial_queries=5), "n_initial_queries"),
        (dict(n_initial_queries=9, weighting="importance"), "n_initial_queries"),
        (dict(query_schedule=(9, 40)), "query_schedule"),
    ):
        with pytest.raises(ConfigError, match=field) as info:
            run_supac_ce(risk, fam, theta_p, theta_p, small_config(**kwargs), seed=0)
        assert info.value.field == field
    # a warm re-solve may draw nothing at its first step; a ledger too small
    # to fit the first projection then fails there, saying how many it needs
    stack = EvalStack(3).record(np.random.default_rng(0).standard_normal((5, 3)), np.zeros(5), 0)
    cfg = small_config(n_initial_queries=0, n_queries_per_step=0)
    with pytest.raises(ValueError, match=r"more than 9 distinct evaluations \(ledger holds 5\)"):
        run_supac_ce(risk, fam, theta_p, theta_p, cfg, seed=0, stack=stack)


def test_first_step_needs_one_more_evaluation_than_the_dimension():
    # dim + 1 evaluations fit the first projection; dim do not
    rng = np.random.default_rng(2)
    fam3 = GaussianFamily(3)
    risk3 = TanhSyntheticRisk(omega=2.0, a_matrix=np.eye(3), x0=rng.standard_normal(3))
    fam1 = GaussianFamily(1)
    risk1 = TanhSyntheticRisk(omega=2.0, a_matrix=np.eye(1), x0=np.array([0.7]))
    for fam, risk, weighting in (
        (fam3, risk3, "voronoi"),
        (fam3, risk3, "importance"),
        (fam1, risk1, "exact1d"),
    ):
        theta_p = standard_normal_params(fam)
        for n_first, solves in ((fam.dim + 1, True), (fam.dim, False)):
            cfg = small_config(
                lam=0.05, n_initial_queries=n_first, max_steps=3, weighting=weighting
            )
            if solves:
                theta, _, stack = run_supac_ce(risk, fam, theta_p, theta_p, cfg, seed=4)
                assert fam.in_domain(theta) and len(stack) == n_first + 2 * 4
            else:
                with pytest.raises(ConfigError, match="n_initial_queries"):
                    run_supac_ce(risk, fam, theta_p, theta_p, cfg, seed=4)


def test_solver_trace_recording_does_not_affect_iterates():
    # A traced step takes over the weigher that the reporting pass built at
    # its iterate (a Voronoi one then scores only the new batch); the iterate
    # and the ledger must not move under any weighting, for a cold solve, a
    # warm re-solve, and a schedule with zero-draw steps.
    fam4 = GaussianFamily(4, structure="full")
    rng = np.random.default_rng(8)
    risk4 = TanhSyntheticRisk(
        omega=2.0, a_matrix=np.eye(4) + 0.2 * rng.standard_normal((4, 4)), x0=rng.standard_normal(4)
    )
    fam1 = GaussianFamily(1)
    risk1 = TanhSyntheticRisk(omega=2.0, a_matrix=np.eye(1), x0=np.array([0.7]))

    def both(fam, risk, weighting, theta0, stack, seed, **kwargs):
        settings = dict(lam=0.05, kl_max=0.5, alpha_max=0.5, n_mc_weights=3000, max_steps=6)
        settings.update(convergence_kl_tol=0.0, weighting=weighting, **kwargs)
        runs = [
            run_supac_ce(
                risk,
                fam,
                standard_normal_params(fam),
                theta0,
                small_config(record_trace=flag, **settings),
                seed=seed,
                stack=copy.deepcopy(stack),
            )
            for flag in (True, False)
        ]
        (theta, trace, ledger), (quiet_theta, quiet_trace, quiet_ledger) = runs
        np.testing.assert_array_equal(theta, quiet_theta)
        for name in ("points", "values", "steps"):
            np.testing.assert_array_equal(getattr(ledger, name), getattr(quiet_ledger, name))
        assert len(trace) == settings["max_steps"] and len(quiet_trace) == 0
        return theta, ledger

    for fam, risk, weighting in (
        (fam4, risk4, "voronoi"),
        (fam4, risk4, "importance"),
        (fam1, risk1, "exact1d"),
    ):
        run = functools.partial(both, fam, risk, weighting)
        theta, stack = run(
            standard_normal_params(fam), None, 31, n_initial_queries=60, n_queries_per_step=12
        )
        run(theta, stack, 32, n_initial_queries=20, n_queries_per_step=12)
        run(theta, stack, 33, query_schedule=(20, 0, 20, 0), max_steps=4)


def _counted_draw_sets(monkeypatch):
    """Record the arguments of every Voronoi draw set built from now on."""
    from pacbayes import weighting as wmod

    built = []
    init = wmod._DrawSet.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(wmod._DrawSet, "__init__", counted)
    return built


@pytest.mark.parametrize("record_trace", [True, False])
def test_voronoi_solve_shares_one_draw_set_and_weighs_as_fresh_searches(monkeypatch, record_trace):
    # A Voronoi solve draws one set of normals and hands it to every step's
    # search and every report's.  Sharing must change nothing but the cost:
    # each step's and each report's weights equal a fresh voronoi_weights at
    # that iterate over the ledger as it stood, with the solve's draw seed.
    from pacbayes import solver as solver_mod
    from pacbayes import voronoi_weights
    from pacbayes.seeding import ROLE_WEIGHTS, child_seed

    fam = GaussianFamily(8, structure="full")
    rng = np.random.default_rng(61)
    risk = TanhSyntheticRisk(
        omega=2.0, a_matrix=np.eye(8) + 0.2 * rng.standard_normal((8, 8)), x0=rng.standard_normal(8)
    )
    theta_p = standard_normal_params(fam)
    cfg = small_config(
        lam=0.05,
        kl_max=0.5,
        alpha_max=0.5,
        query_schedule=(80, 16, 16, 0, 16),
        n_mc_weights=2000,
        max_steps=6,
        convergence_kl_tol=0.0,
        record_trace=record_trace,
    )
    steps, reports = [], []
    project, mean_risk = solver_mod.project, solver_mod.estimate_mean_risk

    def spy_project(stack, weights, family, theta):
        steps.append((len(stack), theta.copy(), weights.copy()))
        return project(stack, weights, family, theta)

    def spy_mean_risk(stack, weights):
        reports.append((len(stack), weights.copy()))
        return mean_risk(stack, weights)

    monkeypatch.setattr(solver_mod, "project", spy_project)
    monkeypatch.setattr(solver_mod, "estimate_mean_risk", spy_mean_risk)
    built = _counted_draw_sets(monkeypatch)
    seed = 9
    _, trace, stack = run_supac_ce(risk, fam, theta_p, theta_p, cfg, seed=seed)
    assert len(built) == 1 and len(steps) == cfg.max_steps
    assert len(reports) == (cfg.max_steps if record_trace else 0)
    weighed = steps + [(n, theta, w) for (n, w), theta in zip(reports, trace.thetas)]
    for n, theta, w in weighed:
        prefix = EvalStack(8)
        for s in np.unique(stack.steps[:n]):
            mask = stack.steps[:n] == s
            prefix.record(stack.points[:n][mask], stack.values[:n][mask], s)
        fresh = voronoi_weights(
            prefix, fam, theta, n_mc=cfg.n_mc_weights, seed=child_seed(seed, 0, ROLE_WEIGHTS)
        )
        np.testing.assert_array_equal(w, fresh)


@pytest.mark.parametrize("weighting", ["voronoi", "importance", "exact1d"])
def test_only_a_voronoi_solve_draws_a_set_and_it_draws_one(monkeypatch, weighting):
    fam = GaussianFamily(1)
    theta_p = standard_normal_params(fam)
    risk = TanhSyntheticRisk(omega=2.0, a_matrix=np.eye(1), x0=np.array([0.7]))
    built = _counted_draw_sets(monkeypatch)
    cfg = small_config(lam=0.05, kl_max=0.5, max_steps=5, weighting=weighting)
    run_supac_ce(risk, fam, theta_p, theta_p, cfg, seed=4)
    assert len(built) == (1 if weighting == "voronoi" else 0)


@pytest.mark.parametrize("weighting", ["importance", "voronoi"])
def test_solves_factor_each_parameter_once_and_match_solves_without_the_memo(
    monkeypatch, tmp_path, weighting
):
    # The family keeps the factorization of the last few parameters.  Traced
    # solves, cold and then warm on the same ledger, must give the same bytes
    # with the memo bypassed, and factor each parameter they visit once.
    from pacbayes import families as fmod

    rng = np.random.default_rng(12)
    risk = TanhSyntheticRisk(
        omega=2.0, a_matrix=np.eye(4) + 0.2 * rng.standard_normal((4, 4)), x0=rng.standard_normal(4)
    )
    cfg = small_config(
        lam=0.05,
        kl_max=0.5,
        alpha_max=0.5,
        n_initial_queries=40,
        n_queries_per_step=12,
        n_mc_weights=2000,
        max_steps=16,
        convergence_kl_tol=0.0,
        weighting=weighting,
    )
    cho_factor = fmod.cho_factor

    def solves(memo_size):
        monkeypatch.setattr(fmod, "_MEMO_SIZE", memo_size)
        fam = GaussianFamily(4, structure="full")
        theta_p = standard_normal_params(fam)
        factorizations = []

        def counted_cho_factor(*args, **kwargs):
            factorizations.append(None)
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(fmod, "cho_factor", counted_cho_factor)
        runs, theta0, stack = [], theta_p, None
        for seed in (5, 6):
            factorizations.clear()
            theta, trace, stack = run_supac_ce(risk, fam, theta_p, theta0, cfg, seed=seed, stack=stack)
            path = tmp_path / f"trace-{memo_size}-{seed}.csv"
            trace.to_csv(path)
            # an importance solve also takes densities under the parameters
            # that drew the ledger it inherits
            drew = stack.generation_params.values() if weighting == "importance" else ()
            distinct = {th.tobytes() for th in (theta_p, theta0, *trace.thetas, *drew)}
            outputs = (theta, stack.points, stack.values, stack.steps, path.read_bytes())
            runs.append((outputs, len(factorizations), len(distinct)))
            theta0 = theta
        return runs

    with_memo, bypassed = solves(fmod._MEMO_SIZE), solves(0)
    for (outputs, factorizations, distinct), (reference, unmemoised, _) in zip(with_memo, bypassed):
        for got, want in zip(outputs, reference):
            assert np.array_equal(got, want) if isinstance(got, np.ndarray) else got == want
        assert factorizations <= distinct + 2
        assert unmemoised > 3 * distinct


def test_solver_holds_suff_stats_only_while_it_runs():
    # T(x) and the generating log densities are held while the solve runs
    # and dropped when it returns or raises; nothing derived from a family
    # is left on the ledger.
    fam = GaussianFamily(2)
    theta_p = standard_normal_params(fam)
    config = small_config(weighting="importance", max_steps=2)
    stack = EvalStack(2)
    held = []

    def risk(x):
        tables = stack._held[1] if stack._held is not None else {}
        held.append({name: filled for name, (_, filled) in tables.items()})
        if len(held) == 3:
            raise RuntimeError("risk failed")
        return np.sin(x).sum(axis=1)

    run_supac_ce(CustomRisk(risk, 2), fam, theta_p, theta_p, config, seed=0, stack=stack)
    # the first draw finds both tables empty, the second both filled by step 0
    n0 = config.queries_at(0)
    assert held == [{"suff_stat": 0, "log_density": 0}, {"suff_stat": n0, "log_density": n0}]
    assert stack._held is None
    with pytest.raises(RuntimeError, match="risk failed"):
        run_supac_ce(CustomRisk(risk, 2), fam, theta_p, theta_p, config, seed=1, stack=stack)
    assert held[2] == {"suff_stat": 0, "log_density": 0} and stack._held is None
    assert not [name for name in vars(stack) if name.startswith("_log_den")]


def test_solver_rejects_out_of_domain_inputs():
    fam = GaussianFamily(1)
    risk = QuadraticRisk(fam, eta=np.zeros(2))
    good = standard_normal_params(fam)
    bad = np.array([0.0, 0.5])
    with pytest.raises(ValueError):
        run_supac_ce(risk, fam, bad, good, small_config(), seed=0)
    with pytest.raises(ValueError):
        run_supac_ce(risk, fam, good, bad, small_config(), seed=0)
    with pytest.raises(ValueError):
        run_supac_ce(risk, fam, good, good, small_config(), seed=0, stack=EvalStack(2))


def test_surrogate_step_is_descent_direction():
    # finite-difference objective gradient dotted with (argmin - theta) <= 0
    fam = GaussianFamily(1)
    rng = np.random.default_rng(11)
    risk = lambda x: np.tanh(np.atleast_2d(x)[:, 0]) + 0.2 * np.atleast_2d(x)[:, 0] ** 2
    lam = 0.8
    for _ in range(100):
        theta = fam.natural_from_moments(
            [rng.uniform(-1.0, 1.0)], [[np.exp(rng.uniform(-0.7, 0.7))]]
        )
        theta_p = fam.natural_from_moments(
            [rng.uniform(-1.0, 1.0)], [[np.exp(rng.uniform(-0.7, 0.7))]]
        )

        def objective(th):
            m, v = family_moments(fam, th)
            return gauss_expect(risk, m, v, n_nodes=80) + lam * fam.kl(th, theta_p)

        eta, _ = quad_projection(fam, theta, risk, n_nodes=80)
        cand = surrogate_argmin(theta_p, eta, lam)
        grad = fd_grad(objective, theta, h=1e-6)
        assert float(grad @ (cand - theta)) <= 1e-8


def test_solver_trace_csv_round_trip(tmp_path):
    trace = SolverTrace()
    rng = np.random.default_rng(13)
    for step in range(4):
        trace.append(
            TraceRecord(
                step=step,
                queries=16 + 4 * step,
                obj_cat=rng.standard_normal(),
                pb_cat=rng.standard_normal(),
                kl_to_prior=rng.uniform(),
                alpha=rng.uniform(),
                theta=rng.standard_normal(2),
            )
        )
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back = SolverTrace.from_csv(path)
    assert len(back) == 4
    np.testing.assert_array_equal(back.column("obj_cat"), trace.column("obj_cat"))
    np.testing.assert_array_equal(back.query_grid, trace.query_grid)
    for a, b in zip(back.thetas, trace.thetas):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(KeyError):
        trace.column("theta")


def test_trace_csv_text_is_pinned_and_headers_checked(tmp_path):
    solver = SolverTrace()
    solver.append(TraceRecord(0, 16, 0.5, 1.25, 0.0, 1.0, np.array([0.5, -1.0])))
    solver.append(TraceRecord(1, 20, 1 / 3, -2.0, 1e-20, 0.125, np.array([0.1, 3.0])))
    meta = MetaTrace()
    meta.append(MetaRecord(0, 0, 2.5, 0.2, np.array([0.0, -0.5])))
    meta.append(MetaRecord(0, 1, 1 / 3, 1e-20, np.array([0.25])))
    solver.to_csv(tmp_path / "trace.csv")
    meta.to_csv(tmp_path / "meta.csv")
    assert (tmp_path / "trace.csv").read_bytes() == (
        b"step,queries,obj_cat,pb_cat,kl_to_prior,alpha,theta_json\r\n"
        b'0,16,0.5,1.25,0.0,1.0,"[0.5, -1.0]"\r\n'
        b'1,20,0.3333333333333333,-2.0,1e-20,0.125,"[0.1, 3.0]"\r\n'
    )
    assert (tmp_path / "meta.csv").read_bytes() == (
        b"epoch,batch,meta_obj,kl_step,theta_p_json\r\n"
        b'0,0,2.5,0.2,"[0.0, -0.5]"\r\n'
        b"0,1,0.3333333333333333,1e-20,[0.25]\r\n"
    )
    # each table refuses the other's file
    with pytest.raises(ValueError, match="header"):
        SolverTrace.from_csv(tmp_path / "meta.csv")
    with pytest.raises(ValueError, match="header"):
        MetaTrace.from_csv(tmp_path / "trace.csv")


def test_evaluate_objective_matches_closed_form():
    fam = GaussianFamily(2, structure="full")
    rng = np.random.default_rng(17)
    theta_p = standard_normal_params(fam)
    eta = 0.3 * rng.standard_normal(fam.dim)
    risk = QuadraticRisk(fam, eta=eta, offset=0.2)
    theta = fam.natural_from_moments(
        np.array([0.4, -0.3]), np.array([[0.9, 0.2], [0.2, 1.1]])
    )
    cfg = CatoniConfig(lam=0.5)
    n = 200_000
    obj, bound = evaluate_objective(risk, fam, theta, theta_p, cfg, n_samples=n, seed=3)
    exact = risk.expected_value(theta) + 0.5 * fam.kl(theta, theta_p)
    risk_var = float(eta @ fam.fisher_info(theta) @ eta)
    assert abs(obj - exact) < 4.0 * math.sqrt(risk_var / n)
    assert bound == pytest.approx(obj + bound_offset(cfg))
