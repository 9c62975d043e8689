"""The benchmark tracer (perfbench/trace_layers.py) wraps the program's
layer entry points by name: module functions, and methods that it looks
up in their class's own __dict__.  A name moved or renamed in src/ breaks
every traced benchmark run, so each entry point must resolve here, and a
caller that holds a function object instead of looking its name up at
call time loses its spans without any error."""

import importlib
import importlib.util
import os

from dickson.cli import main

TRACE_LAYERS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "trace_layers.py")


def _trace_layers():
    spec = importlib.util.spec_from_file_location("trace_layers",
                                                  TRACE_LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_entry_point_resolves():
    missing = []
    for span, points in _trace_layers().ENTRY_POINTS.items():
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


def test_tracer_sees_the_layers_under_cli_questions(capsys):
    gf9 = ["--coeff", "gf(3,2)", "--sigma", "frobenius:1", "--c", "0,1"]
    # untraced first, so the parser and the command table already exist
    assert main(["nuclei"] + gf9) == 0
    tracer = _trace_layers().Tracer()
    tracer.start()
    try:
        for command in ("nuclei", "division", "autgroup"):
            assert main([command] + gf9) == 0
    finally:
        tracer.stop()
    capsys.readouterr()
    names = {name for _, name, _, _ in tracer.spans}
    assert {"doubling.nuclei", "analysis.division",
            "analysis.autgroup"} <= names
