"""The benchmark's traced run (perfbench/tracer.py) wraps package functions
by module and attribute name; a refactor that drops one of those names
breaks the traced run, so every name must still resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_wrapped_attributes_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module, path, _span, _hot in tracer.WRAPPED:
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), "%s.%s" % (module, path)
            owner = getattr(owner, part)
        assert callable(owner), "%s.%s" % (module, path)
