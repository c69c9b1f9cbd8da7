"""perfbench's layer tracer finds every simulator method it times.

``perfbench/layers.py`` times the simulator from outside: its
``LayerTracer._wrap_method`` swaps ``owner.__dict__[name]`` for a timing
wrapper and silently skips a name the class does not define in its own
body.  A method renamed, deleted or moved to a base class under ``src/``
would therefore drop its layer timing without an error.  This test loads
the tracer by path, records every ``(class, name)`` it asks for, and
checks that each name is defined on that class, or inherited from a
class the tracer also wraps under that name (the policies that inherit
``OffloadPolicy.observe``).
"""

from __future__ import annotations

import importlib.util
import pathlib

LAYERS_PY = (
    pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
)

#: Names the tracer still asks for that no class defines any more:
#: the benchmark change that retires them drops their wraps.
RETIRED = {
    ("TraceStore", "trace_data"),
    ("TraceStore", "columnar_bundle"),
    ("MemoryHierarchy", "access_batch_columnar"),
    ("MemoryHierarchy", "access_code_batch_columnar"),
}


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_layers", LAYERS_PY
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _asked_names(monkeypatch):
    """Every ``(class, name)`` that ``LayerTracer.install()`` wraps."""
    layers = _load_layers()
    asked = []
    wrap = layers.LayerTracer._wrap_method

    def record(tracer, owner, name, *args, **kwargs):
        asked.append((owner, name))
        return wrap(tracer, owner, name, *args, **kwargs)

    monkeypatch.setattr(layers.LayerTracer, "_wrap_method", record)
    tracer = layers.LayerTracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    return asked


def test_every_wrapped_name_is_defined_where_the_tracer_looks(monkeypatch):
    asked = _asked_names(monkeypatch)
    wrapped = set(asked)
    lost = []
    for owner, name in asked:
        if name in owner.__dict__ or (owner.__name__, name) in RETIRED:
            continue
        definer = next(
            (base for base in owner.__mro__ if name in base.__dict__), None
        )
        if definer is None or (definer, name) not in wrapped:
            lost.append(f"{owner.__module__}.{owner.__qualname__}.{name}")
    assert not lost, f"perfbench would silently skip: {lost}"

