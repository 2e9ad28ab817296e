"""Voronoi reuse weights and the weighted projection onto span(1, T)."""

import numpy as np
import pytest
from scipy.special import ndtr

from pacbayes import (
    EvalStack,
    GaussianFamily,
    QuadraticRisk,
    importance_weights,
    project,
    standard_normal_params,
    voronoi_weights,
)
from pacbayes.risk import eval_risk
from pacbayes.weighting import GRAM_CONDITION_LIMIT, exact_voronoi_weights_1d, uniform_weights

from _oracles import gauss_nodes, quad_projection, random_spd, random_theta


def stack_from_points(points, values=None):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if values is None:
        values = np.zeros(points.shape[0])
    stack = EvalStack(points.shape[1])
    stack.record(points, values, step=0)
    return stack


def test_voronoi_single_point_gets_all_mass():
    fam = GaussianFamily(1)
    stack = stack_from_points([[0.7]])
    w = voronoi_weights(stack, fam, standard_normal_params(fam), n_mc=100, seed=0)
    np.testing.assert_allclose(w, [1.0])


def test_voronoi_symmetric_pair_splits_evenly():
    fam = GaussianFamily(1)
    stack = stack_from_points([[-1.3], [1.3]])
    w = voronoi_weights(stack, fam, standard_normal_params(fam), n_mc=100_000, seed=1)
    assert w.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(w, [0.5, 0.5], atol=0.01)


def test_voronoi_three_point_cells_match_normal_cdf():
    # cells of {-1, 0, 2} under N(0,1) split at -0.5 and 1
    fam = GaussianFamily(1)
    stack = stack_from_points([[-1.0], [0.0], [2.0]])
    n_mc = 100_000
    w = voronoi_weights(stack, fam, standard_normal_params(fam), n_mc=n_mc, seed=0)
    exact = np.array([ndtr(-0.5), ndtr(1.0) - ndtr(-0.5), 1.0 - ndtr(1.0)])
    np.testing.assert_allclose(w, exact, atol=3.0 / np.sqrt(n_mc))


def test_voronoi_deterministic_and_consistent_in_n_mc():
    fam = GaussianFamily(1)
    rng = np.random.default_rng(2)
    stack = stack_from_points(rng.standard_normal((12, 1)))
    theta = fam.natural_from_moments([0.3], [[1.5]])
    again = [voronoi_weights(stack, fam, theta, n_mc=5000, seed=7) for _ in range(2)]
    np.testing.assert_array_equal(again[0], again[1])
    exact = exact_voronoi_weights_1d(stack, fam, theta)
    for n_mc in (1000, 100_000):
        w = voronoi_weights(stack, fam, theta, n_mc=n_mc, seed=3)
        np.testing.assert_allclose(w, exact, atol=3.0 / np.sqrt(n_mc))


def test_voronoi_chunked_search_matches_direct_assignment():
    # force multiple distance chunks and compare with a one-shot 1-NN count
    from pacbayes import weighting as wmod

    fam = GaussianFamily(2, structure="full")
    rng = np.random.default_rng(5)
    stack = stack_from_points(rng.standard_normal((400, 2)))
    theta = fam.natural_from_moments(
        np.array([0.2, -0.1]), np.array([[1.0, 0.3], [0.3, 0.8]])
    )
    w_small_chunks = voronoi_weights(stack, fam, theta, n_mc=30_000, seed=11)
    assert 400 * 30_000 > wmod._CHUNK_BUDGET
    old = wmod._CHUNK_BUDGET
    wmod._CHUNK_BUDGET = 400 * 30_000
    try:
        w_one_chunk = voronoi_weights(stack, fam, theta, n_mc=30_000, seed=11)
    finally:
        wmod._CHUNK_BUDGET = old
    np.testing.assert_array_equal(w_small_chunks, w_one_chunk)


def test_voronoi_blocks_match_cdist_assignment(monkeypatch):
    # blocks of one draw, and blocks that do not divide n_mc, against a
    # one-shot cdist 1-NN count over the same Philox draws, whitened metric
    from scipy.spatial.distance import cdist

    from pacbayes import weighting as wmod

    fam = GaussianFamily(8, structure="full")
    rng = np.random.default_rng(37)
    stack = stack_from_points(rng.standard_normal((300, 8)))
    mean = 0.3 * rng.standard_normal(8)
    cov = random_spd(rng, 8)
    theta = fam.natural_from_moments(mean, cov)
    n_mc, seed = 2000, 19
    chol = np.linalg.cholesky(cov)
    xw = np.linalg.solve(chol, (stack.points - mean).T).T
    z = np.random.Generator(np.random.Philox(seed)).standard_normal((n_mc, 8))
    expected = np.bincount(np.argmin(cdist(z, xw), axis=1), minlength=300) / n_mc
    for budget, per_block in ((300, 1), (300 * 7, 7)):
        monkeypatch.setattr(wmod, "_CHUNK_BUDGET", budget)
        assert max(1, wmod._CHUNK_BUDGET // 300) == per_block
        assert per_block == 1 or n_mc % per_block != 0
        w = voronoi_weights(stack, fam, theta, n_mc=n_mc, seed=seed)
        np.testing.assert_array_equal(w, expected)


def test_voronoi_search_extended_by_appended_rows_matches_a_fresh_search(monkeypatch):
    # the solver's reporting pass hands its search to the next step, which
    # scores only the rows appended to the ledger since
    from pacbayes import weighting as wmod

    fam = GaussianFamily(4, structure="full")
    rng = np.random.default_rng(43)
    theta = fam.natural_from_moments(0.3 * rng.standard_normal(4), random_spd(rng, 4))
    # at 500 points BLAS can round one score differently in different columns
    old = rng.standard_normal((500, 4))
    n_mc, seed = 10_000, 23
    appended = {
        "copy of an old point": np.vstack([rng.standard_normal((5, 4)), old[17:18]]),
        "no rows": np.empty((0, 4)),
    }
    # the default block size, then blocks of one draw
    for budget in (wmod._CHUNK_BUDGET, 1):
        monkeypatch.setattr(wmod, "_CHUNK_BUDGET", budget)
        for case, new in appended.items():
            stack = stack_from_points(old)
            search = wmod._NearestPoints(fam, theta, n_mc, seed)
            before = search.weights(stack)
            if len(new):
                stack.record(new, np.zeros(len(new)), step=1)
            w = search.weights(stack)
            fresh = voronoi_weights(stack, fam, theta, n_mc=n_mc, seed=seed)
            np.testing.assert_array_equal(w, fresh, err_msg=f"{case}, budget {budget}")
            if len(new):
                # the copy takes nothing; the first occurrence keeps what
                # the five new points left it
                assert w[-1] == 0.0 and 0.0 < w[17] <= before[17]
            else:
                np.testing.assert_array_equal(w, before)


def test_voronoi_near_ties_match_a_float64_cdist_assignment():
    # every point has a neighbour about 3e-5 away, inside the float32
    # screen's rounding bound for many draws: those draws must be settled in
    # float64 (a plain float32 argmin moves 149 of them here)
    from scipy.spatial.distance import cdist

    from pacbayes import weighting as wmod

    fam = GaussianFamily(8, structure="full")
    rng = np.random.default_rng(53)
    mean = 0.3 * rng.standard_normal(8)
    cov = random_spd(rng, 8)
    theta = fam.natural_from_moments(mean, cov)
    chol = np.linalg.cholesky(cov)
    base = mean + rng.standard_normal((150, 8)) @ chol.T
    ties = np.vstack([base, base + 1e-5 * rng.standard_normal((150, 8))])
    # a row at whitened norm 2e3 widens the bound past every draw's gap, so
    # every draw is scored in float64; at 1e25 float32 would overflow, and
    # the screen is skipped
    far = {norm: mean + chol @ np.r_[norm, np.zeros(7)] for norm in (2e3, 1e25)}
    n_mc, seed = 20_000, 29
    z = np.random.Generator(np.random.Philox(seed)).standard_normal((n_mc, 8))

    def cdist_weights(points):
        xw = np.linalg.solve(chol, (points - mean).T).T
        return np.bincount(np.argmin(cdist(z, xw), axis=1), minlength=len(points)) / n_mc

    cases = {"near ties": ties}
    cases.update({f"and a row at norm {norm:g}": np.vstack([ties, x]) for norm, x in far.items()})
    for case, points in cases.items():
        w = voronoi_weights(stack_from_points(points), fam, theta, n_mc=n_mc, seed=seed)
        np.testing.assert_array_equal(w, cdist_weights(points), err_msg=case)
    # a carried search extended by a batch of copies alone moves no draw
    stack = stack_from_points(ties)
    search = wmod._NearestPoints(fam, theta, n_mc, seed)
    before = search.weights(stack)
    stack.record(ties[[4, 160, 4]], np.zeros(3), step=1)
    w = search.weights(stack)
    np.testing.assert_array_equal(w, np.concatenate([before, np.zeros(3)]))


@pytest.mark.parametrize("n_mc", [2.5, 100.0, True, np.True_, "100", 0])
def test_voronoi_rejects_a_draw_count_that_is_not_a_positive_integer(n_mc):
    fam = GaussianFamily(2, structure="full")
    stack = stack_from_points([[0.0, 0.0], [1.0, 0.5]])
    with pytest.raises(ValueError, match="n_mc must be"):
        voronoi_weights(stack, fam, standard_normal_params(fam), n_mc=n_mc)


def test_voronoi_accepts_a_numpy_integer_draw_count():
    fam = GaussianFamily(2, structure="full")
    stack = stack_from_points([[0.0, 0.0], [1.0, 0.5]])
    theta = standard_normal_params(fam)
    np.testing.assert_array_equal(
        voronoi_weights(stack, fam, theta, n_mc=np.int64(500), seed=3),
        voronoi_weights(stack, fam, theta, n_mc=500, seed=3),
    )


def test_exact_voronoi_weights_1d_duplicates_keep_first_occurrence():
    # under N(0,1), {0, 1} split at 0.5; the second 0 gets nothing
    fam = GaussianFamily(1)
    stack = stack_from_points([[0.0], [1.0], [0.0]])
    w = exact_voronoi_weights_1d(stack, fam, standard_normal_params(fam))
    np.testing.assert_allclose(w, [ndtr(0.5), 1.0 - ndtr(0.5), 0.0], rtol=1e-12)


def test_exact_voronoi_weights_1d():
    fam = GaussianFamily(1)
    stack = stack_from_points([[2.0], [-1.0], [0.0]])  # unsorted on purpose
    theta = standard_normal_params(fam)
    w = exact_voronoi_weights_1d(stack, fam, theta)
    np.testing.assert_allclose(
        w, [1.0 - ndtr(1.0), ndtr(-0.5), ndtr(1.0) - ndtr(-0.5)], rtol=1e-12
    )
    assert w.sum() == pytest.approx(1.0)
    fam2 = GaussianFamily(2, structure="diag")
    with pytest.raises(ValueError):
        exact_voronoi_weights_1d(stack_from_points([[0.0, 0.0]]), fam2, standard_normal_params(fam2))


def test_uniform_weights_whole_and_per_step():
    stack = EvalStack(1)
    stack.record(np.zeros((3, 1)), [1.0, 2.0, 3.0], step=0)
    stack.record(np.ones((2, 1)), [4.0, 5.0], step=1)
    np.testing.assert_allclose(uniform_weights(stack), np.full(5, 0.2))
    np.testing.assert_allclose(uniform_weights(stack, step=1), [0, 0, 0, 0.5, 0.5])
    with pytest.raises(ValueError):
        uniform_weights(stack, step=9)
    with pytest.raises(ValueError):
        uniform_weights(EvalStack(1))


def test_importance_weights_ratio_and_normalization():
    fam = GaussianFamily(1)
    theta_gen = standard_normal_params(fam)
    theta_new = fam.natural_from_moments([1.0], [[1.0]])
    stack = stack_from_points([[0.0], [1.0]])
    w = importance_weights(stack, fam, theta_gen, {0: theta_gen})
    np.testing.assert_allclose(w, [0.5, 0.5])
    w = importance_weights(stack, fam, theta_new, {0: theta_gen})
    # ratio at x is exp(x - 1/2); normalized over the two stored points
    raw = np.exp(np.array([0.0, 1.0]) - 0.5)
    np.testing.assert_allclose(w, raw / raw.sum(), rtol=1e-12)
    with pytest.raises(ValueError):
        importance_weights(stack, fam, theta_new, {})


def test_importance_weights_memo_matches_a_fresh_stack():
    # Two block layouts of the same length read one parameter differently.
    fam = GaussianFamily(3, structure="block", blocks=[(0, 1), (2,)])
    other = GaussianFamily(3, structure="block", blocks=[(0,), (1, 2)])
    rng = np.random.default_rng(5)
    base = np.array([0.0, 0.0, 0.0, -1.0, -0.5, -0.5, -1.0])
    thetas = [base + 0.05 * rng.standard_normal(fam.dim) for _ in range(4)]
    target = thetas[3]
    stack, rows = EvalStack(3), []

    def record(step, theta):
        pts = fam.sample(theta, 6, seed=len(rows))
        stack.record(pts, np.zeros(6), step, theta=theta)
        rows.append((step, pts))

    def check(family, generation):
        fresh = EvalStack(3)
        for step, pts in rows:
            fresh.record(pts, np.zeros(len(pts)), step)
        w = importance_weights(stack, family, target, generation)
        np.testing.assert_array_equal(w, importance_weights(fresh, family, target, generation))
        assert stack._log_den.size <= len(stack)

    record(0, thetas[0])
    record(1, thetas[1])
    check(fam, stack.generation_params)
    record(2, thetas[2])  # a new step
    check(fam, stack.generation_params)
    record(1, thetas[1])  # more rows for an existing step, same parameter
    check(fam, stack.generation_params)
    check(fam, {0: thetas[1], 1: thetas[2], 2: thetas[0]})
    check(fam, stack.generation_params)
    check(other, stack.generation_params)


def test_importance_and_project_on_a_grown_stack_match_a_fresh_stack():
    fam = GaussianFamily(3)
    rng = np.random.default_rng(71)
    thetas = [random_theta(fam, rng, mean_scale=0.3) for _ in range(5)]
    target = thetas[-1]
    stack = EvalStack(3)

    def fresh():
        other = EvalStack(3)
        for step in np.unique(stack.steps).tolist():
            mask = stack.steps == step
            other.record(stack.points[mask], stack.values[mask], step, theta=thetas[step])
        return other

    def check(step):
        foreign = {s: thetas[(s + 1) % len(thetas)] for s in range(step + 1)}
        for generation in (stack.generation_params, foreign, stack.generation_params):
            w = importance_weights(stack, fam, target, generation)
            np.testing.assert_array_equal(w, importance_weights(fresh(), fam, target, generation))
            fit, fresh_fit = project(stack, w, fam, target), project(fresh(), w, fam, target)
            np.testing.assert_array_equal(fit.eta, fresh_fit.eta)
            assert (fit.offset, fit.weighted_rss, fit.gram_condition) == (
                fresh_fit.offset, fresh_fit.weighted_rss, fresh_fit.gram_condition
            )
        assert stack._held_suff_stat[2] == len(stack)

    with stack._holding_suff_stat(fam, 60):
        for step, theta in enumerate(thetas):
            pts = fam.sample(theta, 7 + step, seed=step)
            stack.record(pts, np.sin(pts).sum(axis=1), step, theta=theta)
            check(step)
        # More rows for the last step: its densities are taken over the whole batch again.
        pts = fam.sample(thetas[-1], 9, seed=len(thetas))
        stack.record(pts, np.sin(pts).sum(axis=1), len(thetas) - 1, theta=thetas[-1])
        check(len(thetas) - 1)
    assert stack._held_suff_stat is None
    # A ledger larger than the held table is read afresh, not truncated.
    with stack._holding_suff_stat(fam, len(stack) - 1):
        w = importance_weights(stack, fam, target, stack.generation_params)
        generation = stack.generation_params
        np.testing.assert_array_equal(w, importance_weights(fresh(), fam, target, generation))
        np.testing.assert_array_equal(
            project(stack, w, fam, target).eta, project(fresh(), w, fam, target).eta
        )


def test_project_recovers_in_span_risk_exactly():
    rng = np.random.default_rng(13)
    for fam in (GaussianFamily(1), GaussianFamily(2, structure="full")):
        eta_true = rng.standard_normal(fam.dim)
        offset_true = rng.standard_normal()
        risk = QuadraticRisk(fam, eta=eta_true, offset=offset_true)
        pts = rng.standard_normal((4 * fam.dim, fam.predictor_dim))
        stack = stack_from_points(pts, eval_risk(risk, pts))
        weights = rng.uniform(0.5, 2.0, size=len(stack))
        fit = project(stack, weights, fam, theta=standard_normal_params(fam))
        np.testing.assert_allclose(fit.eta, eta_true, atol=1e-8)
        assert fit.offset == pytest.approx(offset_true, abs=1e-8)
        assert fit.weighted_rss <= 1e-12


def test_project_cubic_under_standard_normal_weights():
    # population projection of x^3 onto span(1, x, x^2) under N(0,1) is 3x
    fam = GaussianFamily(1)
    pts, w = gauss_nodes([0.0], [[1.0]], n_nodes=64)
    stack = stack_from_points(pts, pts[:, 0] ** 3)
    fit = project(stack, w, fam, theta=standard_normal_params(fam))
    np.testing.assert_allclose(fit.eta, [3.0, 0.0], atol=1e-8)
    assert fit.offset == pytest.approx(0.0, abs=1e-8)


def test_project_matches_population_projection():
    fam = GaussianFamily(1)
    theta = fam.natural_from_moments([0.4], [[0.8]])
    mean, cov = np.array([0.4]), np.array([[0.8]])
    risk = lambda x: np.sin(np.atleast_2d(x)[:, 0]) + 0.2 * np.atleast_2d(x)[:, 0] ** 2
    pts, w = gauss_nodes(mean, cov, n_nodes=64)
    stack = stack_from_points(pts, risk(pts))
    fit = project(stack, w, fam, theta=theta)
    eta_oracle, c_oracle = quad_projection(fam, theta, risk, n_nodes=64)
    np.testing.assert_allclose(fit.eta, eta_oracle, rtol=1e-8)
    assert fit.offset == pytest.approx(c_oracle, abs=1e-8)


def test_project_moment_matching_residual_orthogonality():
    # sum w (R - f) = 0 and sum w (R - f) T = 0 within 1e-8
    rng = np.random.default_rng(19)
    fam = GaussianFamily(2, structure="full")
    pts = rng.standard_normal((40, 2))
    vals = np.cos(pts[:, 0]) * pts[:, 1] + 0.3 * pts[:, 0] ** 3
    stack = stack_from_points(pts, vals)
    weights = rng.uniform(0.1, 1.0, size=40)
    fit = project(stack, weights, fam, theta=standard_normal_params(fam))
    wn = weights / weights.sum()
    resid = vals - (fam.suff_stat(pts) @ fit.eta + fit.offset)
    assert abs(wn @ resid) < 1e-8
    np.testing.assert_allclose(fam.suff_stat(pts).T @ (wn * resid), 0.0, atol=1e-8)


def test_project_normal_equation_optimality():
    # perturbing the fit by norm-1e-3 directions never lowers the weighted rss
    rng = np.random.default_rng(23)
    fam = GaussianFamily(1)
    pts = rng.standard_normal((25, 1))
    vals = np.exp(-pts[:, 0]) + 0.5 * pts[:, 0]
    stack = stack_from_points(pts, vals)
    weights = rng.uniform(0.2, 1.0, size=25)
    wn = weights / weights.sum()
    fit = project(stack, weights, fam, theta=standard_normal_params(fam))
    t = fam.suff_stat(pts)

    def rss(eta, c):
        resid = vals - (t @ eta + c)
        return float(wn @ (resid * resid))

    base = rss(fit.eta, fit.offset)
    assert base == pytest.approx(fit.weighted_rss, rel=1e-12)
    for _ in range(100):
        d = rng.standard_normal(fam.dim + 1)
        d *= 1e-3 / np.linalg.norm(d)
        assert rss(fit.eta + d[:-1], fit.offset + d[-1]) >= base - 1e-15


def test_project_reports_condition_and_applies_ridge_when_degenerate():
    fam = GaussianFamily(1)
    # two distinct points cannot identify three coefficients
    stack = stack_from_points([[0.0], [1.0], [1.0]], [0.0, 1.0, 1.0])
    fit = project(stack, np.ones(3), fam, theta=standard_normal_params(fam))
    assert not np.isfinite(fit.gram_condition) or fit.gram_condition > GRAM_CONDITION_LIMIT
    assert np.all(np.isfinite(fit.eta)) and np.isfinite(fit.weighted_rss)
    # a healthy design reports a modest condition number
    rng = np.random.default_rng(29)
    good = stack_from_points(rng.standard_normal((30, 1)), rng.standard_normal(30))
    fit_good = project(good, np.ones(30), fam, theta=standard_normal_params(fam))
    assert fit_good.gram_condition < 1e4


def test_project_weight_validation():
    fam = GaussianFamily(1)
    theta = standard_normal_params(fam)
    stack = stack_from_points([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        project(stack, np.ones(2), fam, theta)
    with pytest.raises(ValueError):
        project(stack, np.array([1.0, -1.0, 1.0]), fam, theta)
    with pytest.raises(ValueError):
        project(stack, np.zeros(3), fam, theta)


def test_gradient_invariance_of_projection():
    # with population weights, the objective gradient computed through the
    # risk and through its projection agree (1-D quadrature, 1e-4 relative)
    fam = GaussianFamily(1)
    rng = np.random.default_rng(31)
    risk = lambda x: np.tanh(np.atleast_2d(x)[:, 0]) + 0.1 * np.atleast_2d(x)[:, 0] ** 2
    lam = 0.5
    theta_p = standard_normal_params(fam)

    from _oracles import family_moments, fd_grad, gauss_expect

    for _ in range(10):
        mean = rng.uniform(-1.0, 1.0)
        var = np.exp(rng.uniform(-0.7, 0.7))
        theta = fam.natural_from_moments([mean], [[var]])
        eta, c = quad_projection(fam, theta, risk, n_nodes=80)

        def obj_risk(th):
            m, v = family_moments(fam, th)
            return gauss_expect(risk, m, v, n_nodes=80) + lam * fam.kl(th, theta_p)

        def obj_proxy(th):
            return float(eta @ fam.mean_suff_stat(th)) + c + lam * fam.kl(th, theta_p)

        g_risk = fd_grad(obj_risk, theta, h=1e-6)
        g_proxy = fd_grad(obj_proxy, theta, h=1e-6)
        np.testing.assert_allclose(g_risk, g_proxy, rtol=1e-4, atol=1e-8)
