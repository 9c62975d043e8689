"""The seed-1 benchmark questions keep their answers.

answers_seed1.jsonl is the output of `python3 tools/answers.py OUT 1`:
every question the three benchmark workloads ask at seed 1, with its exit
code, its JSON envelope (verdicts, methods, notes, witnesses) and its
stderr.  The test asks them again in process and names the first
question whose line differs.  A change that alters answers on purpose
rewrites the file with that command and lists what moved.
"""

import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "answers_seed1.jsonl")


def _answers_tool():
    path = os.path.join(os.path.dirname(HERE), "tools", "answers.py")
    spec = importlib.util.spec_from_file_location("answers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_one_benchmark_answers_are_unchanged():
    answers = _answers_tool()
    with open(EXPECTED) as fh:
        expected = fh.read().splitlines()
    got = list(answers.answer_lines([1]))
    for k, (now, was) in enumerate(zip(got, expected)):
        if now != was:
            q = json.loads(was)
            pytest.fail("line %d (%s question %s) answers differently: %s"
                        "\nwas: %s\nnow: %s" % (k + 1, q["workload"], q["id"],
                                               " ".join(q["argv"]), was, now))
    assert len(got) == len(expected)
