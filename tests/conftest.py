import numpy as np
import pytest
from hypothesis import settings

from archopt import casestudies

# ``--hypothesis-profile=thorough`` runs every property test that sets no
# ``max_examples`` of its own (the fold-, root-table-, batch-solve-, step- and model-format-versus-oracle tests)
# on several hundred examples; tier-1 keeps hypothesis's default profile.
settings.register_profile("thorough", max_examples=500)

# filled by test_acceptance.check(); echoed after the run so the
# per-criterion lines are visible without -s
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
from archopt.model import (
    Architecture,
    CallStep,
    Component,
    NetworkLink,
    Operation,
    ProcessorNode,
    UsageScenario,
)
from archopt.refactoring import apply_sequence


def make_arch(
    components,
    nodes,
    deployment,
    scenarios,
    links=(),
) -> Architecture:
    """Compact builder: components as (id, theta, [(op, demand), ...])."""
    comps = tuple(
        Component(cid, tuple(Operation(oid, demand) for oid, demand in ops), theta)
        for cid, theta, ops in components
    )
    node_objs = tuple(ProcessorNode(nid, speed, cores) for nid, speed, cores in nodes)
    link_objs = tuple(NetworkLink(lid, (a, b), psi, delay) for lid, a, b, psi, delay in links)
    scen_objs = tuple(
        UsageScenario(sid, weight, pop, think, tuple(CallStep(op, count) for op, count in steps))
        for sid, weight, pop, think, steps in scenarios
    )
    return Architecture(comps, node_objs, link_objs, scen_objs, dict(deployment))


def apply_action(arch: Architecture, action) -> Architecture:
    """``arch`` with one feasible action applied; an infeasible one raises
    ``InfeasibleActionError`` naming its reason."""
    return apply_sequence(arch.fold, (action,)).architecture()


@pytest.fixture
def two_comp_arch() -> Architecture:
    """Two components on two linked nodes, one scenario."""
    return make_arch(
        components=[
            ("c1", 0.0, [("op1", 0.2)]),
            ("c2", 0.0, [("op2", 0.1)]),
        ],
        nodes=[("n1", 1.0, 1), ("n2", 1.0, 1)],
        deployment={"c1": "n1", "c2": "n2"},
        scenarios=[("s1", 1.0, 4, 1.0, [("op1", 3.0), ("op2", 1.0)])],
        links=[("l12", "n1", "n2", 0.0, 0.0)],
    )


@pytest.fixture(scope="session")
def small_arch() -> Architecture:
    return casestudies.load_case_study("small")


@pytest.fixture(scope="session")
def large_arch() -> Architecture:
    return casestudies.load_case_study("large")
