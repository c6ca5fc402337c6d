"""Closed-form reliability of an architecture under its scenario mix.

A scenario succeeds when every expected component invocation and every
expected cross-node message succeeds independently; expected counts are
used as exponents, so replication changes exposure, not component quality.
"""

from __future__ import annotations

import numpy as np

from .model import CompiledChunk, invocation_matrix


def reliability(chunk: CompiledChunk) -> list[float]:
    """R_j = prod_i (1-theta_i)^v_ij * prod_l (1-psi_l)^m_lj, mixed by p_j, for
    each architecture of the chunk.  The products run over each
    architecture's rows in order, as ``prod(axis=0)`` of its own matrices
    does.  Routes the chunk once, so raises ``invocation_matrix``'s
    ``RoutingError`` on a chunk holding an unroutable architecture."""
    invocations, messages = invocation_matrix(chunk)
    survival = np.multiply.reduceat(
        np.power(1.0 - chunk.component_theta[:, None], invocations), chunk.component_start[:-1], axis=0
    )
    # an architecture without links has no message factor (an empty product)
    linked = np.flatnonzero(np.diff(chunk.link_start))
    if linked.size:
        links = np.multiply.reduceat(
            np.power(1.0 - chunk.link_psi[:, None], messages), np.array(chunk.link_start)[linked], axis=0
        )
        survival[linked] = survival[linked] * links
    return [float(chunk.mix_weights[b] @ survival[b]) for b in range(len(chunk))]
