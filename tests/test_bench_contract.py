"""The benchmark in ``fsvcbench/`` wraps fsvc functions by module and name.

``fsvcbench/tracer.py`` lists them in ``TRACED``; a rename or deletion in the
package would break traced benchmark runs, so every entry must still resolve
to a callable.  The benchmark also derives every traced call count from its
workload config, so a change to how often the package calls a traced
function must fail here, in the benchmark's own self-check.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_TRACER = _ROOT / "fsvcbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("fsvcbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses look their module up here
    spec.loader.exec_module(tracer)
    return [(module, name) for module, name, _ in tracer.TRACED]


@pytest.mark.parametrize("module, name", _traced())
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def test_benchmark_selfcheck_passes():
    """Tiny traced and untraced runs of every workload (about 8 s); outputs
    go to the git-ignored ``fsvcbench/out/``."""
    done = subprocess.run(
        [sys.executable, "fsvcbench/selfcheck.py"],
        cwd=_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "selfcheck: ok" in done.stdout
