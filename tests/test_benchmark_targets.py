"""Every function the benchmark's tracer wraps must exist in toricsec.

``perfbench/tracer.py`` names its targets as (module, qualified name) and
rebinds them from outside the package, so deleting or renaming one of them
would otherwise fail only the benchmark's own self-test.  The tracer is
loaded by file path; nothing under ``perfbench/`` is imported as a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, qualname) for module_name, qualname, _, _ in module.TARGETS]


@pytest.mark.parametrize("module_name, qualname", tracer_targets())
def test_wrapped_name_resolves_to_a_callable(module_name, qualname):
    # resolved as Tracer.install does: a function on the module, or a
    # method in its class's own namespace
    owner = importlib.import_module(f"toricsec.{module_name}")
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
        assert attr in vars(owner)
    assert callable(getattr(owner, attr))
