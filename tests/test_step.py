"""The NSGA-II, SPEA2 and PESA-II steps and the front offer against the
paths they replaced (``oracle.py``).

The NSGA-II step must keep the oracle's survivors, in order, and key its
tournament by the rank and crowding that the oracle's second sort builds.
The SPEA2 and PESA-II steps must keep the oracle's archive, in order;
SPEA2's tournament fitness must have the bytes of the oracle's second
dominance matrix.  Every step must make the oracle's parent draws, and the
shared tournament those of both old selectors.  One offer of a chunk must
leave the members, in order, and the ``points`` bytes that offering its
candidates one at a time leaves.  Rows are drawn from a small integer
grid, so ties and duplicate rows are common; some are the invalid
sentinel, and some individuals appear twice, as cache hits do.
The property tests set no ``max_examples``, so a hypothesis profile sets
their size: CI runs them again under ``--hypothesis-profile=thorough``.
"""

from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from archopt.moea import EvalMetrics, Individual, SearchConfig, _nsga2_step, _offer, _pesa2_step, _spea2_step, _tournament


def draw_individuals(rng: np.random.Generator, n: int, dim: int, sentinels: int, repeats: int) -> list[Individual]:
    """``n`` individuals on a 0..3 grid, the first ``sentinels`` invalid
    (inf rows), in shuffled evaluation order, then ``repeats`` of them again;
    shuffled."""
    metrics = EvalMetrics(perfq=0.0, reliability=1.0, pas=0, distance=0.0)
    rows = rng.integers(0, 4, (n, dim)).astype(float)
    rows[:sentinels] = np.inf
    orders = rng.permutation(n).tolist()
    fresh = [
        Individual((), f"d{order}", metrics, tuple(row), bool(np.isfinite(row).all()), order)
        for row, order in zip(rows.tolist(), orders)
    ]
    pool = fresh + [fresh[i] for i in rng.integers(0, n, repeats)]
    return [pool[i] for i in rng.permutation(len(pool))]


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    dim=st.integers(2, 4),
    half=st.integers(2, 24),
    sentinels=st.integers(0, 4),
    repeats=st.integers(0, 8),
)
def test_nsga2_step_matches_survival_then_parents(seed, n, dim, half, sentinels, repeats):
    # unions that fit the population and unions whose last kept front
    # straddles it, split anywhere into population and evaluated
    rng = np.random.default_rng(seed)
    union = draw_individuals(rng, n, dim, min(sentinels, n), repeats)
    cut = int(rng.integers(0, len(union) + 1))
    config = SearchConfig(max_evaluations=0, population=2 * half)
    want = oracle.nsga2_survival(union[:cut], union[cut:], config, lambda: False)
    want_select = oracle.nsga2_parents(want, np.random.default_rng(seed), config, lambda: False)
    got, select = _nsga2_step(union[:cut], union[cut:], np.random.default_rng(seed), config, lambda: False)
    assert [id(ind) for ind in got] == [id(ind) for ind in want]
    _, want_rank, want_crowding, _ = want_select.args
    assert select.args[1] == list(zip(want_rank.tolist(), (-want_crowding).tolist()))
    assert_same_draws(select, want_select)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    offered=st.integers(0, 60),
    chunk=st.integers(1, 40),
    dim=st.integers(2, 4),
    sentinels=st.integers(0, 4),
    repeats=st.integers(0, 8),
)
def test_offer_of_a_chunk_matches_offers_one_at_a_time(seed, offered, chunk, dim, sentinels, repeats):
    # members built by offering ``offered`` individuals one at a time; the
    # chunk may hold an individual twice, or one that is already a member
    rng = np.random.default_rng(seed)
    pool = draw_individuals(rng, offered + chunk, dim, min(sentinels, offered + chunk), repeats)
    members, points = [], np.empty((0, dim))
    for ind in pool[:offered]:
        members, points = oracle.offer(members, points, ind)
    candidates = pool[offered:]
    want_members, want_points = members, points
    for ind in candidates:
        want_members, want_points = oracle.offer(want_members, want_points, ind)
    got_members, got_points = _offer(members, points, candidates)
    assert [id(ind) for ind in got_members] == [id(ind) for ind in want_members]
    assert got_points.dtype == want_points.dtype and got_points.shape == want_points.shape
    assert got_points.tobytes() == want_points.tobytes()


def assert_same_draws(select, want_select) -> None:
    """Eight parents drawn by each selector are the same individuals, and
    their generators end in the same state."""
    assert [id(want_select()) for _ in range(8)] == [id(select()) for _ in range(8)]
    assert select.args[-1].bit_generator.state == want_select.args[-1].bit_generator.state


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    dim=st.integers(2, 4),
    archive_size=st.integers(1, 40),
    sentinels=st.integers(0, 4),
    repeats=st.integers(0, 8),
)
def test_spea2_step_matches_two_matrices_and_tuple_truncation(seed, n, dim, archive_size, sentinels, repeats):
    # small archives truncate the non-dominated, large ones fill from the
    # dominated; duplicate rows make full ties in the truncation
    rng = np.random.default_rng(seed)
    union = draw_individuals(rng, n, dim, min(sentinels, n), repeats)
    cut = int(rng.integers(0, len(union) + 1))
    config = SearchConfig(max_evaluations=0, archive_size=archive_size)
    want, want_select = oracle.spea2_step(union[:cut], union[cut:], np.random.default_rng(seed), config, lambda: False)
    got, select = _spea2_step(union[:cut], union[cut:], np.random.default_rng(seed), config, lambda: False)
    assert [id(ind) for ind in got] == [id(ind) for ind in want]
    assert select.args[1].dtype == want_select.args[1].dtype
    assert select.args[1].tobytes() == want_select.args[1].tobytes()
    assert_same_draws(select, want_select)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    dim=st.integers(3, 4),
    archive_size=st.integers(1, 40),
    divisions=st.integers(1, 4),
    sentinels=st.integers(0, 4),
    repeats=st.integers(0, 8),
)
def test_pesa2_step_matches_keys_sorted_on_every_use(seed, n, dim, archive_size, divisions, sentinels, repeats):
    # an archive built by the oracle from part of the pool, then one step
    # over the rest; few divisions crowd the cells, small archives evict
    rng = np.random.default_rng(seed)
    pool = draw_individuals(rng, n, dim, min(sentinels, n), repeats)
    cut = int(rng.integers(0, len(pool) + 1))
    config = SearchConfig(max_evaluations=0, archive_size=archive_size, divisions=divisions, use_pas_objective=dim == 4)
    archive, points = [], np.empty((0, dim))
    for ind in pool[:cut]:
        archive, points = oracle.pesa2_insert(archive, points, ind, archive_size, divisions)
    want, want_select = oracle.pesa2_step(archive, pool[cut:], np.random.default_rng(seed), config, lambda: False)
    got, select = _pesa2_step(archive, pool[cut:], np.random.default_rng(seed), config, lambda: False)
    assert [id(ind) for ind in got] == [id(ind) for ind in want]
    assert_same_draws(select, want_select)


KEY_VALUES = st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 1.0, np.inf])


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    keys=st.lists(st.tuples(st.integers(0, 2), KEY_VALUES, KEY_VALUES), min_size=1, max_size=12),
)
def test_tournament_matches_both_old_selectors(seed, keys):
    # few distinct values, so most draws tie on rank, crowding or fitness
    members = [object() for _ in keys]
    rank, crowding, fitness = (np.array(column) for column in zip(*keys))
    nsga2_keys = list(zip(rank.tolist(), (-crowding).tolist()))
    for got, want in (
        (
            partial(_tournament, members, nsga2_keys, np.random.default_rng(seed)),
            partial(oracle.nsga2_select_parent, members, rank, crowding, np.random.default_rng(seed)),
        ),
        (
            partial(_tournament, members, fitness, np.random.default_rng(seed)),
            partial(oracle.spea2_select_parent, members, fitness, np.random.default_rng(seed)),
        ),
    ):
        assert_same_draws(got, want)
