"""The traced benchmark run wraps omforge functions by module and name;
a rename must fail here, not in a traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module, name in tracing.LAYERS:
        fn = getattr(importlib.import_module(f"omforge.{module}"), name)
        assert callable(fn), f"omforge.{module}.{name}"
