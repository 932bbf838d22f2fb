"""Every layer the served-request benchmark wraps still exists.

``perfbench/tracer.py`` wraps one library function per layer, named by
module and qualified name.  A renamed or moved target would otherwise
surface only when a ``--trace 1`` run raises ``TraceError``; these tests
resolve every ``default_probes()`` target without installing a wrapper.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _default_probes():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_under_test", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.default_probes()


PROBES = _default_probes()


def test_probe_table_is_not_empty():
    assert len(PROBES) >= 10


@pytest.mark.parametrize("probe", PROBES, ids=lambda probe: probe.name)
def test_probe_target_resolves(probe):
    target = importlib.import_module(probe.module)
    for part in probe.qualname.split("."):
        assert hasattr(target, part), f"{probe.module}.{probe.qualname}: no {part!r}"
        target = getattr(target, part)
    assert callable(target)
