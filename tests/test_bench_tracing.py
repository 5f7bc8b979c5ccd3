"""The benchmark tracer wraps surfcomplex functions named by attribute path
in ``bench/tracing.py``.  A rename in the library must fail here rather than
break the traced benchmark run."""

import importlib.util
import pathlib

import surfcomplex

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_paths_resolve():
    tracing = _load_tracing()
    names = set()
    for layer, paths in tracing.LAYERS.items():
        module = getattr(surfcomplex, layer)
        for path in paths:
            owner, _, attr = path.rpartition(".")
            if owner:
                # methods are wrapped on the class that defines them
                raw = vars(getattr(module, owner))[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
            else:
                fn = getattr(module, attr)
            assert callable(fn), f"{layer}.{path} is not a function"
            names.add(tracing.metric_name(layer, path))
    assert set(tracing.HOOKS) <= names, sorted(set(tracing.HOOKS) - names)
