"""The benchmark's traced run finds every function it names.

perfbench/spans.py names syzal functions as `layer.function` strings. A
span is opened only for a name that resolves to a function of that module,
so a rename or merge would silently read 0 in the per-layer metrics.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _named_functions(spans):
    names = list(spans.SELF_TIMES) + list(spans.CALLS) + list(spans.NOTES)
    names += [f"{layer}.{fn}" for layer, fns in spans.EXTRA.items() for fn in fns]
    names += [f"homalg.{fn}" for fn in spans.MEMOIZED]
    return names


def test_every_traced_name_is_a_syzal_function():
    spans = _spans()
    missing = []
    for name in _named_functions(spans):
        layer, fn = name.split(".")
        assert layer in spans.LAYERS, name
        module = importlib.import_module(f"syzal.{layer}")
        obj = getattr(module, fn, None)
        if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
            missing.append(name)
    assert not missing, f"spans.py names functions that do not exist: {missing}"
