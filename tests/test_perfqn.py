import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archopt import perfqn
from archopt.model import CompiledChunk
from archopt.perfqn import (
    AMVA_MAX_ITER,
    AMVA_TOL,
    PerformanceResult,
    QnModel,
    SolverError,
    perfq,
    solve_amva,
    solve_amva_many,
    solve_exact_mva,
    to_qn,
)
from conftest import make_arch


def qn(demands, populations, think_times):
    demands = np.asarray(demands, dtype=float)
    stations = tuple(f"k{i}" for i in range(demands.shape[0]))
    classes = tuple(f"c{j}" for j in range(demands.shape[1]))
    return QnModel(stations, classes, demands, np.asarray(populations, float), np.asarray(think_times, float))


def assert_littles_law(model, result, rel=1e-6):
    for j in range(len(model.class_ids)):
        lhs = result.throughput[j] * (result.response_time[j] + model.think_times[j])
        assert lhs == pytest.approx(model.populations[j], rel=rel)
    np.testing.assert_allclose(result.utilization, model.demands @ result.throughput, rtol=1e-9)


# -- to_qn ---------------------------------------------------------------------


def test_to_qn_direct_mapping(two_comp_arch):
    model = to_qn(CompiledChunk([two_comp_arch.fold]))[0]
    np.testing.assert_allclose(model.demands, CompiledChunk([two_comp_arch.fold]).demands)
    assert model.class_ids == ("s1",)
    np.testing.assert_allclose(model.populations, [4.0])


def test_to_qn_rate_scales_by_cores():
    arch = make_arch(
        components=[("c1", 0.0, [("op1", 0.6)])],
        nodes=[("n1", 1.0, 4)],
        deployment={"c1": "n1"},
        scenarios=[("s1", 1.0, 2, 0.0, [("op1", 1.0)])],
    )
    np.testing.assert_allclose(to_qn(CompiledChunk([arch.fold]))[0].demands, [[0.15]])


def test_to_qn_shapes_match_architecture(small_arch):
    model = to_qn(CompiledChunk([small_arch.fold]))[0]
    assert model.demands.shape == (3, 2)


# -- exact MVA -----------------------------------------------------------------


def test_exact_mva_single_customer_no_queueing():
    result = solve_exact_mva(qn([[1.0]], [1], [0.0]))
    assert result.throughput[0] == pytest.approx(1.0)
    assert result.response_time[0] == pytest.approx(1.0)
    assert result.utilization[0] == pytest.approx(1.0)


def test_exact_mva_two_customers_hand_run():
    result = solve_exact_mva(qn([[1.0]], [2], [0.0]))
    assert result.response_time[0] == pytest.approx(2.0)
    assert result.throughput[0] == pytest.approx(1.0)
    assert result.utilization[0] == pytest.approx(1.0)


def test_exact_mva_two_stations_with_think_time():
    result = solve_exact_mva(qn([[0.5], [0.5]], [1], [1.0]))
    assert result.response_time[0] == pytest.approx(1.0)
    assert result.throughput[0] == pytest.approx(0.5)
    np.testing.assert_allclose(result.utilization, [0.25, 0.25])


def test_exact_mva_rejects_multiclass():
    with pytest.raises(ValueError, match="use AMVA"):
        solve_exact_mva(qn([[0.5, 0.5]], [1, 1], [0.0, 0.0]))


def test_exact_mva_population_cap():
    with pytest.raises(ValueError, match="exceeds"):
        solve_exact_mva(qn([[0.5]], [20_000], [0.0]))


# -- AMVA ----------------------------------------------------------------------


def test_amva_matches_exact_at_population_one():
    rng = np.random.default_rng(2)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        demands = rng.uniform(0.05, 1.0, size=(k, 1))
        z = float(rng.uniform(0.0, 2.0))
        model = qn(demands, [1], [z])
        exact = solve_exact_mva(model)
        approx = solve_amva(model)
        assert approx.throughput[0] == pytest.approx(exact.throughput[0], abs=1e-9)
        assert approx.response_time[0] == pytest.approx(exact.response_time[0], abs=1e-9)


def test_amva_single_class_tracks_exact():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 21))
        demands = rng.uniform(0.05, 1.0, size=(k, 1))
        model = qn(demands, [n], [0.0])
        exact = solve_exact_mva(model)
        approx = solve_amva(model)
        assert approx.throughput[0] == pytest.approx(exact.throughput[0], rel=0.05)
        assert approx.response_time[0] == pytest.approx(exact.response_time[0], rel=0.05)


def test_amva_all_zero_demand_is_pure_think():
    result = solve_amva(qn([[0.0, 0.0]], [3, 5], [1.0, 1.0]))
    np.testing.assert_allclose(result.throughput, [3.0, 5.0])
    np.testing.assert_allclose(result.response_time, [0.0, 0.0])
    assert result.delay_only == ("c0", "c1")


def test_amva_zero_demand_zero_think_rejected():
    with pytest.raises(ValueError, match="zero demand and zero think time"):
        solve_amva(qn([[0.0]], [3], [0.0]))


# -- stacked AMVA against the per-model loop --------------------------------------


def reference_amva(demands, populations, think_times, tol, max_iter):
    """The per-model Bard-Schweitzer loop that the stacked ``kernels.amva``
    replaced.  Returns (X, per-class R, iterations, residual, converged)."""
    n_stations, n_classes = demands.shape
    q = np.broadcast_to(populations / n_stations, (n_stations, n_classes)).copy()
    residual = 0.0
    for it in range(max_iter):
        arrival_q = q.sum(axis=1, keepdims=True) - q / populations
        r = demands * (1.0 + arrival_q)
        r_class = r.sum(axis=0)
        x = populations / (think_times + r_class)
        q_new = x * r
        residual = float(np.abs(q_new - q).max())
        q = q_new
        if residual < tol:
            return x, r_class, it + 1, residual, True
    return x, r_class, max_iter, residual, False


def random_qn(rng, n_stations, n_classes):
    """A model whose every class has demand at some station."""
    demands = rng.uniform(0.0, 2.0, (n_stations, n_classes)) * (rng.random((n_stations, n_classes)) < 0.8)
    for j in np.flatnonzero(demands.sum(axis=0) == 0.0):
        demands[rng.integers(n_stations), j] = rng.uniform(0.01, 2.0)
    populations = rng.integers(1, 50, n_classes)
    think_times = rng.uniform(0.0, 5.0, n_classes) * (rng.random(n_classes) < 0.8)
    return qn(demands, populations, think_times)


def assert_same_bits(result, want):
    """``result`` holds X, R and the iteration count of ``want``, a
    converged reference solve, bit for bit."""
    x, r_class, iterations, _, converged = want
    assert converged
    assert result.throughput.tobytes() == x.tobytes()
    assert result.response_time.tobytes() == r_class.tobytes()
    assert result.iterations == iterations


@settings(max_examples=60, deadline=None)
@given(
    class_counts=st.lists(st.integers(1, 10), min_size=1, max_size=3),
    shapes=st.lists(st.tuples(st.integers(1, 20), st.integers(0, 2)), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_amva_matches_per_model_loop_bit_for_bit(class_counts, shapes, seed):
    # a few class counts shared by many models, so stacks mix station counts
    rng = np.random.default_rng(seed)
    models = [random_qn(rng, k, class_counts[c % len(class_counts)]) for k, c in shapes]
    for model, result in zip(models, solve_amva_many(models)):
        want = reference_amva(model.demands, model.populations, model.think_times, AMVA_TOL, AMVA_MAX_ITER)
        assert_same_bits(result, want)


def test_non_converging_model_fails_alone(monkeypatch):
    max_iter = 300
    monkeypatch.setattr(perfqn, "AMVA_MAX_ITER", max_iter)
    rng = np.random.default_rng(3)
    models = [random_qn(rng, k, 3) for k in (2, 7, 12)]
    # near-balanced demands under a heavy load need about 450 iterations,
    # the others at most about 210; all share one stack
    slow = qn([[1.0, 0.9, 0.8], [0.9, 1.0, 0.95], [0.8, 0.95, 1.0]], [500] * 3, [0.0] * 3)
    models.insert(1, slow)
    results = solve_amva_many(models)

    stalled = reference_amva(slow.demands, slow.populations, slow.think_times, AMVA_TOL, max_iter)
    assert not stalled[4]
    assert isinstance(results[1], SolverError)
    assert results[1].residual == stalled[3]
    with pytest.raises(SolverError, match=f"within {max_iter} iterations"):
        solve_amva(slow)
    for model, result in zip(models[:1] + models[2:], results[:1] + results[2:]):
        assert_same_bits(result, reference_amva(model.demands, model.populations, model.think_times, AMVA_TOL, max_iter))
        single = solve_amva(model)
        for field in ("throughput", "response_time"):
            assert getattr(single, field).tobytes() == getattr(result, field).tobytes()
        assert single.iterations == result.iterations


def test_amva_many_keeps_model_order_and_failures():
    rng = np.random.default_rng(5)
    # the last model starts at its fixed point, so it converges in one
    # iteration only if the padding of its stack adds nothing to the residual
    models = [
        random_qn(rng, 4, 2),
        qn([[0.0]], [3], [0.0]),
        random_qn(rng, 6, 1),
        qn([[0.0, 0.0]], [3, 5], [1.0, 1.0]),
        qn([[0.5, 0.2]], [3, 4], [0.0, 0.0]),
    ]
    results = solve_amva_many(models)
    assert isinstance(results[1], ValueError)
    assert results[3].delay_only == ("c0", "c1")
    assert results[4].iterations == 1
    for i in (0, 2, 4):
        assert_same_bits(results[i], reference_amva(models[i].demands, models[i].populations, models[i].think_times, AMVA_TOL, AMVA_MAX_ITER))
    assert solve_amva_many([]) == []


def test_amva_littles_law_random_models():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        c = int(rng.integers(1, 4))
        demands = rng.uniform(0.0, 0.5, size=(k, c))
        pops = rng.integers(1, 30, size=c)
        thinks = rng.uniform(0.1, 2.0, size=c)
        model = qn(demands, pops, thinks)
        result = solve_amva(model)
        assert_littles_law(model, result)
        assert (result.utilization <= 1.0 + 1e-6).all()


def test_amva_throughput_bounds_single_class():
    rng = np.random.default_rng(13)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 25))
        demands = rng.uniform(0.05, 1.0, size=(k, 1))
        z = float(rng.uniform(0.0, 2.0))
        model = qn(demands, [n], [z])
        for result in (solve_amva(model), solve_exact_mva(model)):
            bound = min(n / (z + demands.sum()), 1.0 / demands.max())
            assert result.throughput[0] <= bound + 1e-9


def test_amva_monotone_in_demand():
    rng = np.random.default_rng(17)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 20))
        demands = rng.uniform(0.05, 0.5, size=(k, 1))
        model = qn(demands, [n], [0.5])
        x0 = solve_amva(model).throughput[0]
        bumped = demands.copy()
        bumped[int(rng.integers(k)), 0] += rng.uniform(0.01, 0.5)
        x1 = solve_amva(qn(bumped, [n], [0.5])).throughput[0]
        assert x1 <= x0 + 1e-9


def test_case_study_solutions_satisfy_littles_law(small_arch, large_arch):
    for arch in (small_arch, large_arch):
        model = to_qn(CompiledChunk([arch.fold]))[0]
        assert_littles_law(model, solve_amva(model))


# -- perfQ ---------------------------------------------------------------------


def perf_with_response(times):
    n = len(times)
    return PerformanceResult(
        station_ids=("k0",),
        class_ids=tuple(f"c{j}" for j in range(n)),
        throughput=np.ones(n),
        response_time=np.asarray(times, float),
        utilization=np.zeros(1),
    )


def test_perfq_zero_when_unchanged():
    a = perf_with_response([2.0, 3.0])
    assert perfq(a, a) == 0.0


def test_perfq_improvement_positive():
    assert perfq(perf_with_response([2.0]), perf_with_response([1.0])) == pytest.approx(1.0 / 3.0)


def test_perfq_regression_negative():
    assert perfq(perf_with_response([1.0]), perf_with_response([2.0])) == pytest.approx(-1.0 / 3.0)


def test_perfq_antisymmetric():
    rng = np.random.default_rng(23)
    for _ in range(50):
        a = perf_with_response(rng.uniform(0.0, 5.0, size=3))
        b = perf_with_response(rng.uniform(0.0, 5.0, size=3))
        assert perfq(a, b) == -perfq(b, a)


def test_perfq_zero_response_times_contribute_nothing():
    a = perf_with_response([0.0, 2.0])
    b = perf_with_response([0.0, 1.0])
    assert perfq(a, b) == pytest.approx(0.5 * (2.0 - 1.0) / 3.0)


def test_perfq_requires_same_scenarios():
    a = perf_with_response([1.0])
    b = perf_with_response([1.0, 2.0])
    with pytest.raises(ValueError, match="scenario sets differ"):
        perfq(a, b)


def test_perfq_bounded():
    rng = np.random.default_rng(29)
    for _ in range(100):
        a = perf_with_response(rng.uniform(0.0, 10.0, size=4))
        b = perf_with_response(rng.uniform(0.0, 10.0, size=4))
        assert -1.0 <= perfq(a, b) <= 1.0
