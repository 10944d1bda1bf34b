"""The benchmark's tracer finds every function it times.

``perfbench/tracing.py`` names each traced layer as a module and attribute.
A name that no longer resolves is reported as a null metric, and the run
still exits 0, so a rename or a deletion in ``rechip`` must fail here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: t.name)
def test_traced_target_resolves(target):
    value = getattr(importlib.import_module(target.module), target.attr, None)
    assert callable(value), f"{target.module}.{target.attr} is not a callable in rechip"
