"""Random sub-streams: every path from a seed addresses a stream of its own."""

import numpy as np
import pytest

from pacbayes import (
    CatoniConfig,
    GaussianFamily,
    MetaConfig,
    TanhSyntheticRisk,
    TaskEnvironment,
    run_meta_sgd,
    run_supac_ce,
    sample_synthetic_task,
    standard_normal_params,
)
from pacbayes import meta as meta_mod
from pacbayes import seeding
from pacbayes import solver as solver_mod
from pacbayes.seeding import ROLE_DRAW, child_seed, make_rng

ROLES = ("ROLE_WEIGHTS", "ROLE_REPORT", "ROLE_SHUFFLE", "ROLE_TASK", "ROLE_EVAL", "ROLE_DRAW")


def _state(seed_sequence):
    return tuple(seed_sequence.generate_state(4))


def test_role_codes_are_distinct_and_nonzero():
    codes = [getattr(seeding, name) for name in ROLES]
    assert len(set(codes)) == len(codes) and 0 not in codes


def test_a_trailing_zero_is_rejected_and_no_path_aliases_the_bare_seed():
    # SeedSequence pads entropy with zero words: (42, 0, 0) is the stream
    # of the bare seed 42, which make_rng(42) draws from.
    assert _state(np.random.SeedSequence((42, 0, 0))) == _state(np.random.SeedSequence(42))
    with pytest.raises(ValueError, match="nonzero role code"):
        child_seed(42, 0)
    with pytest.raises(ValueError, match="nonzero role code"):
        child_seed(42, 3, 0)
    assert _state(child_seed(42, 0, ROLE_DRAW)) != _state(child_seed(42))
    assert not np.array_equal(
        np.random.Generator(np.random.Philox(child_seed(42, 0, ROLE_DRAW))).standard_normal(3),
        make_rng(42).standard_normal(3),
    )


def _derived_streams(monkeypatch):
    """Record each stream derived by path, and the bare stream of each seed used."""
    derived, bare = [], {}
    real = seeding.child_seed

    def recorded(seed, *path):
        seed_sequence = real(seed, *path)
        if path:
            derived.append(((seed, path), _state(seed_sequence)))
        if not isinstance(seed, np.random.SeedSequence):
            bare[int(seed)] = _state(np.random.SeedSequence(int(seed)))
        return seed_sequence

    # child_int and make_rng look child_seed up in seeding itself.
    for module in (seeding, solver_mod, meta_mod):
        monkeypatch.setattr(module, "child_seed", recorded)
    return derived, bare


def _assert_pairwise_distinct(derived, bare):
    streams = derived + [((seed, ()), state) for seed, state in bare.items()]
    owner = {}
    for path, state in streams:
        assert state not in owner, f"{path} shares a stream with {owner[state]}"
        owner[state] = path


def test_streams_of_one_solve_are_pairwise_distinct(monkeypatch):
    # Each step's batch, the solve's Voronoi draw set and the seed's own
    # stream (which make_rng(seed) and Philox(seed) give) are all distinct.
    derived, bare = _derived_streams(monkeypatch)
    fam = GaussianFamily(3, structure="full")
    rng = np.random.default_rng(3)
    risk = TanhSyntheticRisk(
        omega=2.0, a_matrix=np.eye(3) + 0.2 * rng.standard_normal((3, 3)), x0=rng.standard_normal(3)
    )
    config = CatoniConfig(
        lam=0.05,
        n_initial_queries=30,
        n_queries_per_step=6,
        n_mc_weights=200,
        max_steps=4,
        convergence_kl_tol=0.0,
    )
    theta_p = standard_normal_params(fam)
    run_supac_ce(risk, fam, theta_p, theta_p, config, seed=42)
    # the per-solve draw set and four batches
    assert len(derived) == 5
    _assert_pairwise_distinct(derived, bare)


def test_streams_of_one_meta_run_are_pairwise_distinct(monkeypatch, cpus):
    # Shuffles, inner-solve seeds, their batches and draw sets, the
    # objective estimates, and the bare stream of every seed used.
    fam = GaussianFamily(3, structure="full")
    env = TaskEnvironment.sample(5, 3)
    tasks = [sample_synthetic_task(100 + i, 3, env=env) for i in range(3)]
    inner = CatoniConfig(
        lam=0.1,
        n_initial_queries=30,
        n_queries_per_step=6,
        n_mc_weights=200,
        max_steps=3,
        convergence_kl_tol=0.0,
        record_trace=False,
    )
    # One CPU, so no worker is forked: the recorder sees only the streams
    # derived in this process.  test_meta_sgd_gives_the_same_bytes_for_any_worker_count
    # shows that worker processes derive the same ones.
    cpus(1)
    config = MetaConfig(epochs=2, inner_first=inner, batch_size=2, n_eval=50)
    derived, bare = _derived_streams(monkeypatch)
    run_meta_sgd(fam, tasks, standard_normal_params(fam), config, seed=42)
    # per epoch: a shuffle, and per task a solve seed, an objective
    # estimate, a draw set and three batches
    assert len(derived) == 2 * (1 + 3 * 6)
    _assert_pairwise_distinct(derived, bare)
