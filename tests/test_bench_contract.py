"""The benchmark in ``fsvcbench/`` wraps fsvc functions by module and name.

``fsvcbench/tracer.py`` lists them in ``TRACED``; a rename or deletion in the
package would break traced benchmark runs, so every entry must still resolve
to a callable.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parent.parent / "fsvcbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("fsvcbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses look their module up here
    spec.loader.exec_module(tracer)
    return [(module, name) for module, name, _ in tracer.TRACED]


@pytest.mark.parametrize("module, name", _traced())
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
