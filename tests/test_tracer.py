"""The benchmark tracer (perfbench/trace_layers.py) wraps the program's
layer entry points by name: module functions, and methods that it looks
up in their class's own __dict__.  A name moved or renamed in src/ breaks
every traced benchmark run, so each entry point must resolve here."""

import importlib
import importlib.util
import os

TRACE_LAYERS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "trace_layers.py")


def _entry_points():
    spec = importlib.util.spec_from_file_location("trace_layers",
                                                  TRACE_LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


def test_every_tracer_entry_point_resolves():
    missing = []
    for span, points in _entry_points().items():
        for point in points:
            module = importlib.import_module("dickson." + point[0])
            if len(point) == 3:
                owner = vars(module).get(point[1])
                found = owner is not None and callable(
                    vars(owner).get(point[2]))
            else:
                found = callable(vars(module).get(point[1]))
            if not found:
                missing.append((span, point))
    assert not missing
