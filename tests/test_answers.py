"""The benchmark questions of seeds 1, 2 and 3 keep their answers.

answers_seed1.jsonl is the output of `python3 tools/answers.py OUT 1`:
every question the three benchmark workloads ask at seed 1, with its exit
code, its JSON envelope (verdicts, methods, notes, witnesses) and its
stderr.  answers_seed2_3.sha256 holds one sha256 per such line for seeds
2 and 3 (`python3 tools/answers.py OUT.sha256 2 3`).  The tests ask the
questions again in process and name the first question whose answer
differs.  A change that alters answers on purpose rewrites the files with
those commands and lists what moved.
"""

import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "answers_seed1.jsonl")
DIGESTS = os.path.join(HERE, "answers_seed2_3.sha256")


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


def test_seed_two_and_three_answer_digests_are_unchanged():
    answers = _answers_tool()
    with open(DIGESTS) as fh:
        expected = fh.read().splitlines()
    got = [answers.digest_line(line) for line in answers.answer_lines([2, 3])]
    for now, was in zip(got, expected):
        if now != was:
            _, workload, seed, qid = was.split()
            pytest.fail("%s question %s at seed %s answers differently"
                        "\nwas: %s\nnow: %s" % (workload, qid, seed, was, now))
    assert len(got) == len(expected)
