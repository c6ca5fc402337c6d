import numpy as np
import pytest

from archopt.model import Architecture, CompiledChunk, NetworkLink, invocation_matrix
from archopt.refactoring import RedeployComponent
from archopt.reliability import reliability
from conftest import apply_action, make_arch


def monte_carlo_reliability(arch, samples, rng):
    """Bernoulli-per-invocation simulation; counts must be integers."""
    invocations, messages = invocation_matrix(CompiledChunk([arch.fold]))
    thetas = [c.failure_probability for c in arch.components]
    psis = [l.failure_probability for l in arch.links]
    weights = [s.mix_weight for s in arch.scenarios]
    estimate = 0.0
    variance = 0.0
    for j, weight in enumerate(weights):
        failures = np.zeros(samples)
        for i, theta in enumerate(thetas):
            count = int(round(invocations[i, j]))
            if count and theta > 0:
                failures += rng.binomial(count, theta, size=samples)
        for l, psi in enumerate(psis):
            count = int(round(messages[l, j]))
            if count and psi > 0:
                failures += rng.binomial(count, psi, size=samples)
        success = (failures == 0).mean()
        estimate += weight * success
        variance += weight**2 * success * (1.0 - success) / samples
    return estimate, np.sqrt(variance)


def test_failure_free_model_is_fully_reliable(two_comp_arch):
    assert reliability(CompiledChunk([two_comp_arch.fold]))[0] == 1.0


def test_hand_computed_two_invocations():
    arch = make_arch(
        components=[("c1", 0.1, [("op1", 0.2)])],
        nodes=[("n1", 1.0, 1)],
        deployment={"c1": "n1"},
        scenarios=[("s1", 1.0, 1, 0.0, [("op1", 2.0)])],
    )
    assert reliability(CompiledChunk([arch.fold]))[0] == pytest.approx(0.81)


def test_hand_computed_with_link_message():
    arch = make_arch(
        components=[("c1", 0.1, [("op1", 0.2)]), ("c2", 0.0, [("op2", 0.1)])],
        nodes=[("n1", 1.0, 1), ("n2", 1.0, 1)],
        deployment={"c1": "n1", "c2": "n2"},
        scenarios=[("s1", 1.0, 1, 0.0, [("op1", 2.0), ("op2", 1.0)])],
        links=[("l12", "n1", "n2", 0.05, 0.0)],
    )
    assert reliability(CompiledChunk([arch.fold]))[0] == pytest.approx(0.81 * 0.95)


def test_mix_weighted_combination():
    def model(*scenarios):
        return make_arch(
            components=[("c1", 0.1, [("op1", 0.2)])],
            nodes=[("n1", 1.0, 1)],
            deployment={"c1": "n1"},
            scenarios=list(scenarios),
        )

    # a one-scenario model's reliability is its scenario's
    assert reliability(CompiledChunk([model(("s1", 1.0, 1, 0.0, [("op1", 1.0)])).fold]))[0] == pytest.approx(0.9)
    assert reliability(CompiledChunk([model(("s2", 1.0, 1, 0.0, [("op1", 2.0)])).fold]))[0] == pytest.approx(0.81)
    mixed = model(("s1", 0.25, 1, 0.0, [("op1", 1.0)]), ("s2", 0.75, 1, 0.0, [("op1", 2.0)]))
    assert reliability(CompiledChunk([mixed.fold]))[0] == pytest.approx(0.25 * 0.9 + 0.75 * 0.81)


def test_monotone_in_failure_probabilities(small_arch):
    base = reliability(CompiledChunk([small_arch.fold]))[0]
    worse_comps = tuple(
        type(c)(c.id, c.operations, min(1.0, c.failure_probability * 3 + 0.01))
        for c in small_arch.components
    )
    worse = Architecture(worse_comps, small_arch.nodes, small_arch.links, small_arch.scenarios, dict(small_arch.deployment))
    assert reliability(CompiledChunk([worse.fold]))[0] < base

    worse_links = tuple(
        NetworkLink(l.id, l.endpoints, min(1.0, l.failure_probability * 3 + 0.01), l.delay)
        for l in small_arch.links
    )
    worse2 = Architecture(small_arch.components, small_arch.nodes, worse_links, small_arch.scenarios, dict(small_arch.deployment))
    assert reliability(CompiledChunk([worse2.fold]))[0] < base


def test_redeploy_invariant_with_zero_failure_links():
    arch = make_arch(
        components=[("a", 0.01, [("opA", 0.1)]), ("b", 0.02, [("opB", 0.1)])],
        nodes=[("n1", 1.0, 1), ("n2", 1.0, 1), ("n3", 1.0, 1)],
        deployment={"a": "n1", "b": "n2"},
        scenarios=[("s1", 1.0, 1, 0.0, [("opA", 2.0), ("opB", 3.0)])],
        links=[("l12", "n1", "n2", 0.0, 0.0), ("l13", "n1", "n3", 0.0, 0.0), ("l23", "n2", "n3", 0.0, 0.0)],
    )
    before = reliability(CompiledChunk([arch.fold]))[0]
    moved = apply_action(arch, RedeployComponent("b", "n3"))
    after = reliability(CompiledChunk([moved.fold]))[0]
    assert after == before


def random_reliability_model(rng):
    n_comps = int(rng.integers(2, 6))
    n_nodes = int(rng.integers(1, 4))
    comps = [
        (f"c{i}", float(rng.uniform(0.0, 0.2)), [(f"o{i}", 0.01)])
        for i in range(n_comps)
    ]
    nodes = [(f"n{k}", 1.0, 1) for k in range(n_nodes)]
    links = [
        (f"l{a}{b}", f"n{a}", f"n{b}", float(rng.uniform(0.0, 0.1)), 0.0)
        for a in range(n_nodes)
        for b in range(a + 1, n_nodes)
    ]
    deployment = {f"c{i}": f"n{int(rng.integers(n_nodes))}" for i in range(n_comps)}
    n_scen = int(rng.integers(1, 3))
    raw_weights = rng.uniform(0.2, 1.0, size=n_scen)
    weights = raw_weights / raw_weights.sum()
    weights[-1] = 1.0 - float(weights[:-1].sum())
    scenarios = []
    for j in range(n_scen):
        steps = [
            (f"o{int(rng.integers(n_comps))}", float(rng.integers(1, 5)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        scenarios.append((f"s{j}", float(weights[j]), 1, 0.0, steps))
    return make_arch(comps, nodes, deployment, scenarios, links)


def test_closed_form_matches_monte_carlo():
    rng = np.random.default_rng(31)
    for _ in range(5):
        arch = random_reliability_model(rng)
        closed = reliability(CompiledChunk([arch.fold]))[0]
        estimate, stderr = monte_carlo_reliability(arch, 100_000, rng)
        assert abs(closed - estimate) <= 3.0 * stderr + 1e-12
