"""The checks must accept the program's answers and refuse wrong ones.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/test_oracle.py        # or: python3 -m pytest perfbench

For one question of every kind and coefficient type, the program's own
answer passes its check, and the same answer with one flaw planted (a
flipped verdict, a perturbed witness, an off-by-one dimension or order, a
false identity, a wrong class count) fails it.
"""

import copy
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
os.environ.setdefault("DICKSON_MAX_EXHAUSTIVE", "6000000")

import client  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from dickson.cli import main as dickson_main  # noqa: E402


def _samples():
    """The first question of each kind of input, with its answer."""
    seen, out = set(), []
    for workload in workloads.WORKLOADS:
        for q in workloads.generate(workload, 0):
            spec = q["spec"]
            tag = (q["kind"], q["argv"][1].split("(")[0],
                   "square_of" in spec, spec.get("field", [0])[0] == 7,
                   "precision_fault" in spec)
            if tag not in seen:
                seen.add(tag)
                out.append((q, client.ask(dickson_main, q["argv"])[1]))
    return out


SAMPLES = _samples()


def _bump(literal):
    """Add one to the first coordinate of an element literal."""
    head, _, rest = literal.partition(",")
    if ":" in head:
        val, _, unit = head.partition(":")
        head = "%s:%d" % (val, int(unit) + 1)
    else:
        head = str(Fraction(head) + 1)
    return head + ("," + rest if rest else "")


def _flaws(q, res):
    """Copies of a right answer, each with one planted flaw."""
    kind = q["kind"]
    out = []

    def flawed(edit):
        bad = copy.deepcopy(res)
        edit(bad)
        out.append(bad)

    if kind == "division":
        flip = {oracle.DIVISION: oracle.NOT_DIVISION,
                oracle.NOT_DIVISION: oracle.DIVISION}
        flawed(lambda r: r.update(verdict=flip[r["verdict"]]))
        if res["witness"] and "p" not in q["spec"]:
            flawed(lambda r: r["witness"][1].__setitem__(
                0, _bump(r["witness"][1][0])))
    elif kind == "nuclei":
        for name in ("left", "middle", "commuter"):
            flawed(lambda r, n=name:
                   r["dims"].__setitem__(n, r["dims"][n] + 1))
    elif kind == "autgroup":
        flawed(lambda r: r.update(order=r["order"] + 1))
        flawed(lambda r: r.update(order=r["order"] * 2,
                                  elements=r["elements"] * 2))
        if "a" in q["spec"]:
            flawed(lambda r: r["elements"][-1].update(
                b=_bump(r["elements"][-1]["b"])))
    elif kind == "construct":
        flawed(lambda r: (r["checks"].update(left_distributive=False),
                          r.update(all_passed=False)))
        flawed(lambda r: r["checks"].update(adjoined_square_is_c=False))
    elif kind == "witness-zero-divisor":
        flawed(lambda r: r["pair"][1].__setitem__(0, _bump(r["pair"][1][0])))
        flawed(lambda r: r.update(critical_c=_bump(r["critical_c"])))
    elif kind == "census":
        flawed(lambda r: r.update(
            classes_including_id=r["classes_including_id"] - 1))
        flawed(lambda r: r.update(
            classes_excluding_id=r["classes_excluding_id"] + 1))
    return out


def test_right_answers_pass():
    for q, rec in SAMPLES:
        if not q["spec"].get("precision_fault"):
            assert oracle.check(q, rec) is None, q["argv"]


def test_flawed_answers_fail():
    planted = 0
    for q, rec in SAMPLES:
        if q["spec"].get("precision_fault"):
            continue
        for bad in _flaws(q, rec["result"]):
            planted += 1
            assert oracle.check(q, dict(rec, result=bad)), (q["argv"], bad)
    assert planted >= 20


def test_refusals_and_faults():
    q, rec = next((q, r) for q, r in SAMPLES if q["kind"] == "division")
    assert oracle.check(q, dict(rec, rc=2, result=None, stderr="error"))
    assert oracle.check(q, dict(rec, rc=None, result=None,
                                exc="RuntimeError: boom"))
    fault, _ = next((q, r) for q, r in SAMPLES
                    if q["spec"].get("precision_fault"))
    refusal = {"rc": None, "exc": "PrecisionError: no significant digits left",
               "stderr": "", "result": None}
    assert oracle.check(fault, refusal) is None
    assert oracle.check(dict(q), refusal)
    fixed = {"rc": 0, "exc": None, "stderr": "", "result": {
        "trials": 200, "all_passed": True, "algebra": {"c": "30:1,-30:1"},
        "checks": {"unit_two_sided": True, "left_distributive": True,
                   "right_distributive": True, "adjoined_square_is_c": True,
                   "commutative": True, "matches_structure_constants": True}}}
    assert oracle.check(fault, fixed) is None


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
