"""Every function the benchmark tracer wraps must still exist.

`perfbench/tracer.py` names the traced layer functions by module and
attribute.  Deleting or renaming one breaks `perfbench/run.py --trace 1`
without failing any other test, so this test resolves each name.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark directory as it is
    try:
        return importlib.import_module("tracer")
    finally:
        sys.dont_write_bytecode = writes_bytecode
        sys.path.remove(str(PERFBENCH))


def test_every_trace_target_resolves(tracer):
    targets = tracer.SPANNED + tracer.COUNTED
    assert targets
    for module_name, attr, _ in targets:
        importlib.import_module(f"mflef.{module_name}")
        _, name, original = tracer._resolve(module_name, attr)
        assert callable(original), f"{module_name}.{attr}"
        assert name == attr.rsplit(".", 1)[-1]
