"""Voronoi reuse weights and the weighted projection onto span(1, T)."""

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf
from scipy.special import ndtr

from pacbayes import (
    CatoniConfig,
    EvalStack,
    GaussianFamily,
    QuadraticRisk,
    importance_weights,
    project,
    standard_normal_params,
    voronoi_weights,
)
from pacbayes.risk import eval_risk
from pacbayes.solver import run_supac_ce
from pacbayes.weighting import (
    _CERTIFIED_CONDITION,
    GRAM_CONDITION_LIMIT,
    exact_voronoi_weights_1d,
)

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
            search = wmod._NearestPoints(fam, theta, wmod._DrawSet(n_mc, fam.predictor_dim, seed))
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


def _own_key_copies(points):
    """Copy mask from one dictionary of row bytes over the whole ledger."""
    keys = (points + 0.0).view(f"V{points.itemsize * points.shape[1]}").ravel().tolist()
    first = {}
    return np.array([first.setdefault(key, i) != i for i, key in enumerate(keys)], dtype=bool)


def test_ledger_copy_mask_matches_a_search_that_keys_its_own_rows(monkeypatch):
    # The ledger extends its exact-copy mask by appended rows only; every
    # search reads it.  Mask and weights must match those of a search that
    # keys every ledger row itself, in one dictionary of row bytes.
    from pacbayes import weighting as wmod

    fam = GaussianFamily(3, structure="full")
    rng = np.random.default_rng(97)
    theta = random_theta(fam, rng, mean_scale=0.3)
    old = rng.standard_normal((200, 3))
    old[5, 1] = 0.0
    old[9] = old[2]
    old[11, 0] = -0.0
    negative_zero = old[5].copy()
    negative_zero[1] = -0.0
    positive_zero = old[11].copy()
    positive_zero[0] = 0.0
    fresh_rows = rng.standard_normal((20, 3))
    batches = {
        "appended rows": np.vstack([fresh_rows, old[[3, 7]], fresh_rows[[4]]]),
        "copies alone": old[[0, 4, 4, 9]],
        "-0.0 copies": np.vstack([negative_zero, positive_zero, rng.standard_normal((2, 3))]),
    }
    n_mc, seed = 4000, 17
    stack = stack_from_points(old)
    search = wmod._NearestPoints(fam, theta, wmod._DrawSet(n_mc, fam.predictor_dim, seed))
    search.weights(stack)
    for step, (case, new) in enumerate(batches.items(), start=1):
        stack.record(new, np.zeros(len(new)), step)
        np.testing.assert_array_equal(stack._copies(), _own_key_copies(stack.points), err_msg=case)
        np.testing.assert_array_equal(
            stack_from_points(stack.points)._copies(), stack._copies(), err_msg=case
        )
        w = search.weights(stack)
        with monkeypatch.context() as patch:
            patch.setattr(EvalStack, "_copies", lambda ledger: _own_key_copies(ledger.points))
            own_keys = voronoi_weights(stack, fam, theta, n_mc=n_mc, seed=seed)
        np.testing.assert_array_equal(w, own_keys, err_msg=case)
    # 9, then 3, 7 and the repeated new row, then 0, 4, 4, 9, then both zero spellings
    assert stack._copies().sum() == 1 + 3 + 4 + 2


def _philox_draws(n_mc, k, seed):
    """The standard normal draws a search with ``seed`` takes."""
    return np.random.Generator(np.random.Philox(seed)).standard_normal((n_mc, k))


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
    # Near ties 1e-3 apart, 500 from the mean along an axis they have no
    # spread in: every row is within reach, and the bound exceeds every
    # draw's gap, so every draw is scored in float64 (a plain float32 argmin
    # moves 8563 of them here).
    spread = rng.standard_normal((150, 8))
    twins = np.vstack([spread, spread + 1e-3 * rng.standard_normal((150, 8))])
    twins[:, 0] = 500.0
    n_mc, seed = 20_000, 29
    z = _philox_draws(n_mc, 8, seed)

    def cdist_weights(points):
        xw = np.linalg.solve(chol, (points - mean).T).T
        return np.bincount(np.argmin(cdist(z, xw), axis=1), minlength=len(points)) / n_mc

    cases = {"near ties": ties, "near ties 500 from the mean": mean + twins @ chol.T}
    for case, points in cases.items():
        w = voronoi_weights(stack_from_points(points), fam, theta, n_mc=n_mc, seed=seed)
        np.testing.assert_array_equal(w, cdist_weights(points), err_msg=case)
    # a carried search extended by a batch of copies alone moves no draw
    stack = stack_from_points(ties)
    search = wmod._NearestPoints(fam, theta, wmod._DrawSet(n_mc, fam.predictor_dim, seed))
    before = search.weights(stack)
    stack.record(ties[[4, 160, 4]], np.zeros(3), step=1)
    w = search.weights(stack)
    np.testing.assert_array_equal(w, np.concatenate([before, np.zeros(3)]))


def test_voronoi_rows_too_near_the_mean_for_float32_are_scored_in_float64():
    # Rows within 1e-42 of the mean: below 2^-40 the float32 screen is
    # skipped, and here it would move 114 draws, since -2x is subnormal in
    # float32.  cdist cannot resolve rows this close to each other against
    # draws of norm about 3, so the reference is the float64 argmin of
    # ||x||^2 - 2 x.z, which float64 holds without underflow.
    fam = GaussianFamily(8, structure="full")
    rng = np.random.default_rng(53)
    cov = random_spd(rng, 8)
    theta = fam.natural_from_moments(np.zeros(8), cov)
    chol = np.linalg.cholesky(cov)
    points = 1e-43 * rng.standard_normal((60, 8)) @ chol.T
    n_mc, seed = 20_000, 29
    z = _philox_draws(n_mc, 8, seed)
    xw = np.linalg.solve(chol, points.T).T
    assert np.sqrt(np.sum(xw * xw, axis=1).max()) < 2.0**-40
    nearest = np.argmin(np.sum(xw * xw, axis=1) - 2.0 * np.einsum("ik,jk->ij", z, xw), axis=1)
    w = voronoi_weights(stack_from_points(points), fam, theta, n_mc=n_mc, seed=seed)
    np.testing.assert_array_equal(w, np.bincount(nearest, minlength=60) / n_mc)


def test_voronoi_skips_only_rows_that_no_draw_can_reach():
    # A row whose whitened norm exceeds (2 max||z|| + ||x0||)(1 + 1e-6), x0
    # the least-norm row, is farther from every draw than x0: it gets no
    # mass.  A row just inside that reach can still take a draw.
    from scipy.spatial.distance import cdist

    fam = GaussianFamily(8, structure="full")
    rng = np.random.default_rng(61)
    mean = 0.3 * rng.standard_normal(8)
    cov = random_spd(rng, 8)
    theta = fam.natural_from_moments(mean, cov)
    chol = np.linalg.cholesky(cov)
    n_mc, seed = 20_000, 37
    z = _philox_draws(n_mc, 8, seed)
    norms = np.linalg.norm(z, axis=1)
    top = z[np.argmax(norms)] / norms.max()
    reach = 2.0 * norms.max() + 1.5
    directions = rng.standard_normal((2, 8))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    cases = {
        # a cloud about the mean, and rows at 1e3 and 1e25
        "far rows": np.vstack(
            [rng.standard_normal((150, 8)), np.array([[1e3], [1e25]]) * directions]
        ),
        # x0 1.5 behind the mean, opposite the longest draw; along that draw,
        # one row just inside the reach, which takes it, and one just beyond
        "edge of reach": np.vstack(
            [-1.5 * top, (1 - 1e-7) * reach * top, (1 + 2e-6) * reach * top]
        ),
    }
    for case, whitened in cases.items():
        points = mean + whitened @ chol.T
        xw = np.linalg.solve(chol, (points - mean).T).T
        expected = np.bincount(np.argmin(cdist(z, xw), axis=1), minlength=len(points)) / n_mc
        w = voronoi_weights(stack_from_points(points), fam, theta, n_mc=n_mc, seed=seed)
        np.testing.assert_array_equal(w, expected, err_msg=case)
        assert np.all(w[-2:] == 0.0) if case == "far rows" else (w[1] > 0.0 and w[2] == 0.0)


def _grown_and_fresh(fam, theta, old, batches, n_mc, seed):
    """Weights of one search grown by ``batches``, and of fresh searches, per batch."""
    from pacbayes import weighting as wmod

    stack = stack_from_points(old)
    search = wmod._NearestPoints(fam, theta, wmod._DrawSet(n_mc, fam.predictor_dim, seed))
    search.weights(stack)
    # a first batch's scores are computed only when the search grows
    assert search._score is None
    pairs = []
    for step, batch in enumerate(batches, start=1):
        stack.record(batch, np.zeros(len(batch)), step)
        pairs.append(
            (search.weights(stack), voronoi_weights(stack, fam, theta, n_mc=n_mc, seed=seed))
        )
    # a batch with rows in reach needed them
    assert search._score is not None
    return pairs


@pytest.mark.parametrize(
    "kind", ["copies", "near copies", "most draws", "beyond reach", "below 2^-40"]
)
def test_grown_search_matches_a_fresh_search(monkeypatch, kind):
    # A batch scored against a carried search settles in float64 only the
    # draws its least float32 score leaves able to move; the result must be
    # that of a fresh search over the whole ledger, bit for bit.  The search
    # then grows a second time.
    from pacbayes import weighting as wmod

    fam = GaussianFamily(4, structure="full")
    rng = np.random.default_rng(101)
    mean = 0.3 * rng.standard_normal(4)
    cov = random_spd(rng, 4)
    theta = fam.natural_from_moments(mean, cov)
    chol = np.linalg.cholesky(cov)
    old = mean + 1.5 * rng.standard_normal((300, 4)) @ chol.T
    fresh_rows = mean + rng.standard_normal((6, 4)) @ chol.T
    directions = rng.standard_normal((3, 4))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    batch = {
        "copies": np.vstack([old[5], fresh_rows[:3], old[5], fresh_rows[1], old[200]]),
        # each within float32 rounding of an old row, and as often nearer
        "near copies": old[:30] + 1e-7 * rng.standard_normal((30, 4)),
        "most draws": mean + 0.8 * rng.standard_normal((200, 4)) @ chol.T,
        "beyond reach": mean + (np.array([1e3, 1e8, 1e25])[:, None] * directions) @ chol.T,
        "below 2^-40": mean + 1e-14 * rng.standard_normal((10, 4)) @ chol.T,
    }[kind]
    second = mean + rng.standard_normal((20, 4)) @ chol.T
    n_mc, seed = 10_000, 41
    for budget in (wmod._CHUNK_BUDGET, 1):
        monkeypatch.setattr(wmod, "_CHUNK_BUDGET", budget)
        pairs = _grown_and_fresh(fam, theta, old, [batch, second], n_mc, seed)
        for grown, fresh in pairs:
            np.testing.assert_array_equal(grown, fresh, err_msg=f"{kind}, budget {budget}")
        new = pairs[0][0][len(old) :]
        if kind == "copies":
            assert np.all(new[[0, 4, 5, 6]] == 0.0) and new[1:4].sum() > 0.0
        elif kind == "near copies":
            assert new.sum() > 0.0
        elif kind == "most draws":
            assert new.sum() > 0.5
        elif kind == "beyond reach":
            assert np.all(new == 0.0)
        else:
            xw = np.linalg.solve(chol, (batch - mean).T).T
            assert np.sqrt(np.sum(xw * xw, axis=1).max()) < 2.0**-40 and new.sum() > 0.0


def test_grown_search_leaves_an_exact_old_new_tie_to_the_old_row(monkeypatch):
    # Under an identity covariance, a point that differs from an old one
    # only by 1e-20 in a coordinate where the mean is 0.75 whitens to the
    # same row, so it ties that row exactly on every draw.  With one nonzero
    # whitened coordinate, every product rounds those scores alike.  The old
    # row keeps every draw, as in a fresh search, where ties go to the lowest
    # index.
    from pacbayes import weighting as wmod

    fam = GaussianFamily(4, structure="full")
    rng = np.random.default_rng(103)
    mean = np.array([0.75, -0.5, 1.25, 0.375])
    theta = fam.natural_from_moments(mean, np.eye(4))
    factored = fam._factor(theta)
    assert np.array_equal(factored.cov_factor, np.eye(4)) and np.array_equal(factored.mean, mean)
    axis_rows = np.tile(mean, (4, 1))
    np.fill_diagonal(axis_rows, 0.0)
    ties = axis_rows.copy()
    np.fill_diagonal(ties, 1e-20)
    assert np.array_equal(ties - mean, axis_rows - mean)
    assert np.all(np.any(ties != axis_rows, axis=1))
    old = np.vstack([mean + rng.standard_normal((100, 4)), axis_rows])
    batch = np.vstack([ties, mean + rng.standard_normal((5, 4))])
    n_mc, seed = 10_000, 43
    for budget in (wmod._CHUNK_BUDGET, 1):
        monkeypatch.setattr(wmod, "_CHUNK_BUDGET", budget)
        [(grown, fresh)] = _grown_and_fresh(fam, theta, old, [batch], n_mc, seed)
        np.testing.assert_array_equal(grown, fresh, err_msg=f"budget {budget}")
        assert np.all(grown[100:104] > 0.0) and np.all(grown[104:108] == 0.0)


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


def test_voronoi_search_rejects_a_stack_that_shrank():
    # A search keeps the rows it has scored; a shorter stack cannot be
    # the same ledger grown, and its weights would not align with it.
    from pacbayes import weighting as wmod

    fam = GaussianFamily(2, structure="full")
    theta = standard_normal_params(fam)
    search = wmod._NearestPoints(fam, theta, wmod._DrawSet(500, 2, 3))
    search.weights(stack_from_points([[0.0, 0.0], [1.0, 0.5], [-1.0, 0.25]]))
    with pytest.raises(ValueError, match="scored 3 rows but the stack holds 2"):
        search.weights(stack_from_points([[0.0, 0.0], [1.0, 0.5]]))


def test_draw_set_is_read_only():
    # a solve hands one set to every search; none may write into it
    from pacbayes import weighting as wmod

    draws = wmod._DrawSet(100, 3, 7)
    for array in (draws.z, draws.norms, draws.z32):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


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

    with stack._holding(fam, 30):
        record(0, thetas[0])
        record(1, thetas[1])
        check(fam, stack.generation_params)
        record(2, thetas[2])  # a new step
        check(fam, stack.generation_params)
        # more rows for a charged step are refused, so held densities never go stale
        with pytest.raises(ValueError, match="step 1 is already charged"):
            record(1, thetas[1])
        record(4, thetas[1])  # a later step, one index skipped
        check(fam, stack.generation_params)
        check(fam, {0: thetas[1], 1: thetas[2], 2: thetas[0], 4: thetas[3]})
        check(fam, stack.generation_params)
        check(other, stack.generation_params)
        assert stack._held[1]["log_density"][1] == len(stack)
    assert stack._held is None


def test_importance_and_project_on_a_grown_stack_match_a_fresh_stack():
    fam = GaussianFamily(3)
    rng = np.random.default_rng(71)
    thetas = [random_theta(fam, rng, mean_scale=0.3) for _ in range(5)]
    target = thetas[-1]
    drawn = dict(enumerate(thetas))  # the parameter that drew each step's batch
    stack = EvalStack(3)

    def fresh():
        other = EvalStack(3)
        for step in np.unique(stack.steps).tolist():
            mask = stack.steps == step
            other.record(stack.points[mask], stack.values[mask], step, theta=drawn[step])
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
        tables = stack._held[1]
        assert tables["suff_stat"][1] == tables["log_density"][1] == len(stack)

    with stack._holding(fam, 60):
        for step, theta in enumerate(thetas):
            pts = fam.sample(theta, 7 + step, seed=step)
            stack.record(pts, np.sin(pts).sum(axis=1), step, theta=theta)
            check(step)
        # More rows for the last step are refused; a new step drawn from the
        # same parameter takes them.
        pts = fam.sample(thetas[-1], 9, seed=len(thetas))
        with pytest.raises(ValueError, match=f"step {len(thetas) - 1} is already charged"):
            stack.record(pts, np.sin(pts).sum(axis=1), len(thetas) - 1, theta=thetas[-1])
        drawn[len(thetas)] = thetas[-1]
        stack.record(pts, np.sin(pts).sum(axis=1), len(thetas), theta=thetas[-1])
        check(len(thetas))
    assert stack._held is None
    # A ledger larger than the held table is read afresh, not truncated.
    with stack._holding(fam, len(stack) - 1):
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


def _eigenvalue_rule_fit(stack, weights, family, theta):
    """The projection with the eigenvalues deciding every ridge, computed eagerly.

    Returns the fit's fields and the scaled Gram matrix before any ridge.
    """
    wn = np.asarray(weights, dtype=float)
    wn = wn / wn.sum()
    t = family.suff_stat(stack.points)
    y = stack.values
    t_bar = wn @ t
    y_bar = float(wn @ y)
    scale = np.sqrt(family._fisher_diag(theta))
    scale = np.where(scale > 0, scale, 1.0)
    z = t - t_bar
    z /= scale
    gram = z.T @ (wn[:, None] * z)
    rhs = z.T @ (wn * (y - y_bar))
    eig = np.abs(np.linalg.eigvalsh(gram))
    condition = float(eig.max()) / float(eig.min()) if eig.min() > 0 else np.inf
    ridged = not np.isfinite(condition) or condition > GRAM_CONDITION_LIMIT
    solved = gram + 1e-10 * np.trace(gram) / family.dim * np.eye(family.dim) if ridged else gram
    eta = np.linalg.solve(solved, rhs) / scale
    offset = y_bar - float(t_bar @ eta)
    resid = y - (t @ eta + offset)
    fields = dict(
        eta=eta,
        offset=offset,
        ridged=ridged,
        weighted_rss=float(wn @ (resid * resid)),
        gram_condition=condition,
    )
    return fields, gram


def _certified(gram):
    """Whether the Cholesky bound on cond(gram) decides without eigenvalues."""
    factor, info = dpotrf(gram, lower=1, clean=1)
    if info != 0:
        return False
    inverse = np.linalg.inv(np.tril(factor))
    return np.trace(gram) * np.sum(inverse * inverse) <= _CERTIFIED_CONDITION


def _clustered(spread, n=40):
    """1-D points 1 + spread u: x and x^2 grow collinear as the spread shrinks."""
    u = np.random.default_rng(37).standard_normal((n, 1))
    return stack_from_points(1.0 + spread * u, np.sin(7.0 * u[:, 0]))


@pytest.mark.parametrize(
    "case, certified, ridged",
    [
        ("well conditioned", True, False),
        ("well conditioned, k = 3", True, False),
        ("two distinct points", False, True),
        ("cond in (bound margin, limit]", False, False),
        ("cond above the limit", False, True),
        ("rank deficient", False, True),
    ],
)
def test_projection_certificate_decides_as_the_eigenvalues(case, certified, ridged):
    rng = np.random.default_rng(41)
    fam = GaussianFamily(1)
    if case == "well conditioned":
        stack = stack_from_points(rng.standard_normal((30, 1)), rng.standard_normal(30))
    elif case == "well conditioned, k = 3":
        fam = GaussianFamily(3, structure="full")
        stack = stack_from_points(rng.standard_normal((60, 3)), rng.standard_normal(60))
    elif case == "two distinct points":
        stack = stack_from_points([[0.0], [1.0], [1.0]], [0.0, 1.0, 1.0])
    elif case == "cond in (bound margin, limit]":
        stack = _clustered(4.4e-6)
    elif case == "cond above the limit":
        stack = _clustered(1e-6)
    else:
        # x_2 = 0 on every row: two zero columns, and the Cholesky factorization fails.
        fam = GaussianFamily(2, structure="diag")
        pts = np.column_stack([rng.standard_normal(20), np.zeros(20)])
        stack = stack_from_points(pts, rng.standard_normal(20))
    theta = standard_normal_params(fam)
    weights = rng.uniform(0.5, 2.0, size=len(stack))
    want, gram = _eigenvalue_rule_fit(stack, weights, fam, theta)
    assert _certified(gram) == certified and want["ridged"] == ridged
    if case == "cond in (bound margin, limit]":
        assert _CERTIFIED_CONDITION < want["gram_condition"] <= GRAM_CONDITION_LIMIT
    if case == "rank deficient":
        assert dpotrf(gram, lower=1)[1] > 0
    fit = project(stack, weights, fam, theta)
    assert fit.ridged == want["ridged"]
    assert np.array_equal(fit.eta, want["eta"]) and fit.offset == want["offset"]
    # the diagnostics, computed when read, are the eager values
    assert fit.weighted_rss == want["weighted_rss"]
    assert fit.gram_condition == want["gram_condition"]


def test_untraced_solves_skip_the_eigendecomposition(monkeypatch):
    # The certificate settles every well-conditioned step, and the solver
    # reads no diagnostic, so a solve calls eigvalsh at most once.
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(None)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    fam = GaussianFamily(3, structure="full")
    theta_p = standard_normal_params(fam)
    risk = QuadraticRisk(fam, eta=0.3 * np.ones(fam.dim), offset=0.1)
    solves = 0
    for weighting in ("importance", "voronoi"):
        for record_trace in (True, False):
            config = CatoniConfig(
                lam=0.1,
                n_initial_queries=40,
                n_queries_per_step=8,
                n_mc_weights=2000,
                max_steps=12,
                convergence_kl_tol=0.0,
                weighting=weighting,
                record_trace=record_trace,
            )
            calls.clear()
            run_supac_ce(risk, fam, theta_p, theta_p, config, seed=solves)
            assert len(calls) <= 1
            solves += 1
    # the patch sees the projection's eigenvalues when a diagnostic is read
    stack = stack_from_points(np.random.default_rng(43).standard_normal((30, 3)))
    fit = project(stack, np.ones(30), fam, theta_p)
    calls.clear()
    assert fit.gram_condition == fit.gram_condition and len(calls) == 1


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
