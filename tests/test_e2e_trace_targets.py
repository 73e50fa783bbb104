"""Every function the end-to-end span tracer wraps still exists.

The tracer (``benchmarks/e2e/trace/e2e_tracer.py``) looks each
``TARGETS`` entry up as ``owner.__dict__[attr]`` when the defining
module loads, so renaming or deleting any of them makes every traced
benchmark run fail with ``KeyError``.  This test reads ``TARGETS``
without installing the tracer and resolves each entry the same way.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace" / "e2e_tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_e2e_tracer_targets", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t[0]}:{t[1]}")
def test_trace_target_resolves(target):
    mod_name, qualname, _, _ = target
    module = importlib.import_module(mod_name)
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert attr in owner.__dict__, f"{mod_name}.{qualname} is gone"
    assert callable(owner.__dict__[attr])
