"""Pinned answers: the JSON envelope of each question below, minus the wall
time, must equal the answer recorded in golden_answers.json.

The iso questions cover every coefficient kind through yes, no and
unknown, and pin the reported (tau, b) and the reason strings; division,
nuclei, autgroup, construct and witness-zero-divisor run on each kind.
Record answers again only when an answer is meant to change.
"""

import json
import os

import pytest

from dickson.analysis import iso_test
from dickson.cli import main
from dickson.parsing import algebra_from_document, parse_sigma

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_answers.json")

GF9 = {"coeff": "gf(3,2)", "sigma": "frobenius:1"}
GF27 = {"coeff": "gf(3,3)", "sigma": "frobenius:1"}
QUAD2 = {"coeff": "quad(2)", "sigma": "conjugate"}
QP5 = {"coeff": "qp(5)", "sigma": "conjugate"}
QUAT = {"coeff": "quat(2,3)", "sigma": "conjugation:0,1,0,0",
        "variant": "middle"}


def _doc(base, c, **extra):
    return dict(base, c=c, **extra)


# name -> (first spec, second spec)
ISO = {
    "field/yes": (_doc(GF9, "0,1"), _doc(GF9, "0,2")),
    "field/yes-gf27": (_doc(GF27, "0,1,0"), _doc(GF27, "2,0,1")),
    "field/no-gf27": (_doc(GF27, "0,1,0"), _doc(GF27, "0,0,1")),
    "field/no-split": (_doc(GF9, "0,1"), _doc(GF9, "1,0")),
    "field/no-order": (_doc(GF9, "0,1"),
                       {"coeff": "gf(5,2)", "sigma": "frobenius:1",
                        "c": "0,1"}),
    "field/no-nuclei": (_doc(GF9, "0,1"),
                        {"coeff": "gf(3,2)", "sigma": "id", "c": "0,1",
                         "allow_identity": True}),
    "field/unknown-moduli": (_doc(GF9, "0,1"),
                             {"coeff": "gf(3,2;1,0,1)",
                              "sigma": "frobenius:1", "c": "1,1"}),
    "kinds/no": (_doc(GF9, "0,1"), _doc(QUAD2, "0,1")),
    "quad/yes": (_doc(QUAD2, "3,1"), _doc(QUAD2, "3,-1")),
    "quad/yes-scaled": (_doc(QUAD2, "0,1"), _doc(QUAD2, "0,9")),
    "quad/no-pair": (_doc(QUAD2, "0,1"), _doc(QUAD2, "1,1")),
    "quad/no-field": (_doc(QUAD2, "0,1"),
                      {"coeff": "quad(3)", "sigma": "conjugate",
                       "c": "0,1"}),
    "quad/no-nuclei": (_doc(QUAD2, "0,1"),
                       {"coeff": "quad(2)", "sigma": "id", "c": "0,1",
                        "allow_identity": True}),
    "padic/yes": (_doc(QP5, "2"), _doc(QP5, "8")),
    "padic/yes-conjugate": (_doc(QP5, "2,1"), _doc(QP5, "2,-1")),
    "padic/yes-unit": (_doc(QP5, "2"), _doc(QP5, "3")),
    "padic/no-pair": (dict(_doc(QP5, "2"), coeff="qp(5;sqrt_u)"),
                      dict(_doc(QP5, "10"), coeff="qp(5;sqrt_u)")),
    "padic/no-extension": (_doc(QP5, "2"),
                           {"coeff": "qp(7)", "sigma": "conjugate",
                            "c": "2"}),
    "quat/yes": (_doc(QUAT, "0,1,1,0"), _doc(QUAT, "0,4,4,0")),
    "quat/unknown-witness": (_doc(QUAT, "0,0,1,0"), _doc(QUAT, "0,0,-1,0")),
    "quat/unknown-presentation": (_doc(QUAT, "0,1,1,0"),
                                  dict(_doc(QUAT, "0,1,1,0"),
                                       coeff="quat(2,5)")),
    "quat/no-nuclei": (_doc(QUAT, "0,1,1,0"),
                       dict(_doc(QUAT, "0,1,1,0"), variant="left")),
    "quat/gf5-yes": ({"coeff": "quat(2,3;5)", "sigma": "conjugation:0,1,0,0",
                      "c": "1,1,0,0", "variant": "left"},
                     {"coeff": "quat(2,3;5)", "sigma": "conjugation:0,1,0,0",
                      "c": "4,4,0,0", "variant": "left"}),
}

# iso_test called with explicit tau candidates (the CLI passes none)
ISO_WITH_TAUS = {
    "quat/yes-by-conjugation": ("quat/unknown-witness",
                                ["conjugation:0,1,0,0"]),
    "quat/yes-by-k-conjugation": ("quat/unknown-witness",
                                   ["id", "conjugation:0,0,0,1"]),
    "field/yes-with-ignored-taus": ("field/yes", ["frobenius:1"]),
}


def _inline(doc):
    argv = ["--coeff=" + doc["coeff"], "--sigma=" + doc["sigma"],
            "--c=" + doc["c"]]
    if "variant" in doc:
        argv.append("--variant=" + doc["variant"])
    if doc.get("allow_identity"):
        argv.append("--allow-identity")
    return argv


# name -> argv
COMMANDS = {}
for _kind, _docs in {
        "field": [_doc(GF9, "0,1"), _doc(GF9, "1,0"), _doc(GF27, "0,1,0")],
        "quad": [_doc(QUAD2, "0,1"), _doc(QUAD2, "3,1", variant="middle"),
                 _doc(QUAD2, "0,1", sigma="id", allow_identity=True)],
        "padic": [_doc(QP5, "2"), _doc(QP5, "4,0"),
                  dict(_doc(QP5, "1,1"), coeff="qp(3;sqrt_u;16)")],
        "quat": [_doc(QUAT, "0,1,1,0"), _doc(QUAT, "2,0,0,0"),
                 {"coeff": "quat(2,3;5)", "sigma": "conjugation:0,1,0,0",
                  "c": "1,1,0,0", "variant": "left"}]}.items():
    for _i, _d in enumerate(_docs):
        for _cmd in ("division", "nuclei", "autgroup", "construct"):
            if _cmd == "autgroup" and (_d["sigma"] == "id"
                                       or _d["coeff"] == "quat(2,3;5)"):
                continue
            # construct's 200 random trials are slow over Q-quaternions:
            # one construct per kind, on its last instance
            if _cmd == "construct" and _i != len(_docs) - 1:
                continue
            COMMANDS["%s/%s/%d" % (_cmd, _kind, _i)] = [_cmd] + _inline(_d)
COMMANDS["autgroup/quat/taus"] = (
    ["autgroup"] + _inline(_doc(QUAT, "2,0,0,0", variant="left"))
    + ["--tau=id", "--tau=conjugation:0,1,0,0", "--tau=conjugation:0,0,1,0"])
COMMANDS["autgroup/padic/order2"] = (
    ["autgroup"] + _inline(dict(_doc(QP5, "0,1"), coeff="qp(3;sqrt_p;16)")))
# once a precision fault: at 4 digits the bounded p-adic sums broke both
# distributive laws and the structure-constants check.  construct runs on
# the exact rational twin (doubling.rational_twin), which names c =
# 5^30 + 5^-30 sqrt(2) exactly, so every check passes at any precision
COMMANDS["construct/padic/fault"] = (
    ["construct"] + _inline(dict(_doc(QP5, "30:1,-30:1"),
                                 coeff="qp(5;sqrt_u;4)")))
COMMANDS["witness/field"] = (["witness-zero-divisor"]
                             + _inline(_doc(GF9, "0,1"))
                             + ["--r=1,1", "--s=2,1", "--t=1,2"])
COMMANDS["witness/quad"] = (["witness-zero-divisor"]
                            + _inline(_doc(QUAD2, "0,1", variant="left"))
                            + ["--r=1,1", "--s=2,-1", "--t=1,3"])
COMMANDS["witness/padic"] = (["witness-zero-divisor"]
                             + _inline(_doc(QP5, "2"))
                             + ["--r=1,1", "--s=2,1", "--t=3"])
COMMANDS["witness/quat"] = (["witness-zero-divisor"]
                            + _inline(_doc(QUAT, "0,1,1,0"))
                            + ["--r=1,1,0,0", "--s=0,0,1,1", "--t=2,0,0,1"])
COMMANDS["wene/field"] = ["wene"] + _inline(_doc(GF9, "2,0"))
COMMANDS["census/3-2"] = ["census", "--p=3", "--n=2"]


def _envelope(capsys, argv):
    code = main(argv + ["--format=json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    envelope = json.loads(captured.out)
    del envelope["wall_time_s"]
    return envelope


def _iso_envelope(capsys, tmp_path, first, second):
    paths = []
    for name, doc in (("a.json", first), ("b.json", second)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return _envelope(capsys, ["iso", "--spec", paths[0], "--spec2", paths[1]])


def _iso_with_taus(base, taus):
    first, second = ISO[base]
    D1, D2 = algebra_from_document(first), algebra_from_document(second)
    return iso_test(D1, D2, taus=[parse_sigma(D2.coeff, t)
                                  for t in taus]).to_dict()


def answers(capsys, tmp_path):
    out = {}
    for name, (first, second) in ISO.items():
        out["iso/" + name] = _iso_envelope(capsys, tmp_path, first, second)
    for name, (base, taus) in ISO_WITH_TAUS.items():
        out["iso-taus/" + name] = _iso_with_taus(base, taus)
    for name, argv in COMMANDS.items():
        out[name] = _envelope(capsys, argv)
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_kind_and_iso_status(golden):
    statuses = {}
    for name, answer in golden.items():
        if name.startswith("iso"):
            result = answer.get("result", answer)
            kind = name.split("/")[1]
            statuses.setdefault(kind, set()).add(result["status"])
    assert statuses["field"] == {"yes", "no", "unknown"}
    assert statuses["quad"] == {"yes", "no"}
    assert statuses["padic"] == {"yes", "no"}
    assert statuses["quat"] == {"yes", "no", "unknown"}
    for kind in ("field", "quad", "padic", "quat"):
        for cmd in ("division", "nuclei", "autgroup", "construct"):
            assert any(n.startswith("%s/%s/" % (cmd, kind)) for n in golden)


def test_answers_match_golden(capsys, tmp_path, golden):
    got = answers(capsys, tmp_path)
    assert sorted(got) == sorted(golden)
    for name in golden:
        assert got[name] == golden[name], name
