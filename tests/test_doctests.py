"""Run the documentation examples of the public-facing modules as tests.

The docstring examples in the batch service, the solver registry and the
analog solver are part of the documented API surface (README and ``docs/``
reference them), so they run under the tier-1 suite here.  ``make test``
additionally runs ``pytest --doctest-modules`` over the same modules, which
catches examples in any newly added docstrings.
"""

from __future__ import annotations

import doctest

import pytest

import repro.analog.solver
import repro.circuit.linsolve
import repro.circuit.nonlinear
import repro.circuit.stamps
import repro.flows.incremental
import repro.flows.registry
import repro.graph.network
import repro.graph.updates
import repro.obs.metrics
import repro.service.api
import repro.service.backends
import repro.service.batch
import repro.service.cache
import repro.service.streaming

DOCUMENTED_MODULES = [
    repro.analog.solver,
    repro.circuit.linsolve,
    repro.circuit.nonlinear,
    repro.circuit.stamps,
    repro.flows.incremental,
    repro.flows.registry,
    repro.graph.network,
    repro.graph.updates,
    repro.obs.metrics,
    repro.service.api,
    repro.service.backends,
    repro.service.batch,
    repro.service.cache,
    repro.service.streaming,
]


@pytest.mark.parametrize("module", DOCUMENTED_MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(
        module,
        verbose=False,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.IGNORE_EXCEPTION_DETAIL,
    )
    assert results.attempted > 0, f"{module.__name__} lost its doctests"
    assert results.failed == 0
