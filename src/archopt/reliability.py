"""Closed-form reliability of an architecture under its scenario mix.

A scenario succeeds when every expected component invocation and every
expected cross-node message succeeds independently; expected counts are
used as exponents, so replication changes exposure, not component quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Architecture, invocation_matrix


@dataclass(frozen=True)
class ReliabilityResult:
    overall: float  # mix-weighted mean of per-scenario reliability
    per_scenario: dict[str, float]


def reliability(arch: Architecture) -> ReliabilityResult:
    """R_j = prod_i (1-theta_i)^v_ij * prod_l (1-psi_l)^m_lj, mixed by p_j."""
    invocations, messages = invocation_matrix(arch)
    thetas = np.array([c.failure_probability for c in arch.components])
    psis = np.array([l.failure_probability for l in arch.links])

    survival = np.power(1.0 - thetas[:, None], invocations).prod(axis=0)
    if len(arch.links):
        survival = survival * np.power(1.0 - psis[:, None], messages).prod(axis=0)

    weights = np.array([s.mix_weight for s in arch.scenarios])
    per_scenario = {s.id: float(survival[j]) for j, s in enumerate(arch.scenarios)}
    return ReliabilityResult(overall=float(weights @ survival), per_scenario=per_scenario)
