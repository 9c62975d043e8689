"""Command-line front end.

Each subcommand reads an algebra description (a JSON file via --spec, or
the same fields inline via --coeff/--sigma/--c/--variant and
--allow-identity, never both), runs one of the analysis engines and
prints a report.  A subcommand is one row of COMMANDS: its name, help,
flags and run function.  A row reaches the engines by their module-level
names at call time, through a def or a lambda, and never holds their
function objects: tools that wrap an engine by replacing its name here
(perfbench/trace_layers.py) would be bypassed.  With --format json the
report is a single envelope object

    {"version", "command", "input", "result", "wall_time_s"}

serialized with sorted keys, so two runs with the same input and seed
produce byte-identical payloads apart from the wall time.  Text output
is a plain aligned rendering of the same payload.

The fixed cost of a question is kept small.  main hands a known command
straight to its subparser (argparse's top-level parser would classify
every token before handing them all to the subparser to parse again),
with the same messages and exit status.  The envelope has its own
writer, _json: json.dumps with indent takes the stdlib's pure-Python
encoder, and _json writes the same bytes with the C string encoder.

Exit status is 0 whenever the analysis completed, whatever the
mathematical verdict (including "unknown"); input and validation
problems exit with status 2 and a message on standard error.  A reader
that closes the pipe before the report is written (dickson ... | head)
ends the run quietly with status 1.
"""

import argparse
import gc
import json
import os
import random
import re
import sys
import time

from . import __version__
from .analysis import (census, division_decide, enumerate_automorphisms,
                       group_structure, iso_test, wene_inner_check)
from .doubling import (compute_nuclei, mul_by_constants, rational_twin,
                       theorem_zero_divisor_witness)
from .fields import TABLE_BOUND
from .parsing import (DescriptionError, algebra_from_document, load_document,
                      parse_element, parse_sigma)


# the inline algebra flags, each named as its document field
_INLINE = ("coeff", "sigma", "c", "variant", "allow_identity")


def _document(args):
    doc = {k: getattr(args, k) for k in _INLINE if getattr(args, k)}
    if args.spec is not None:
        if doc:
            raise DescriptionError("give either --spec or inline flags, "
                                   "not both")
        return load_document(args.spec)
    if not (args.coeff and args.sigma and args.c):
        raise DescriptionError("need --spec FILE or all of --coeff, "
                               "--sigma, --c")
    return doc


def _taus(D, args):
    if not D.coeff.witness_relative:
        if args.tau:
            raise DescriptionError(
                "--tau is for quaternion coefficients only; the automorphism "
                "search over %s is exhaustive" % D.coeff.describe())
        return None
    if not args.tau:
        # quaternion automorphisms are witness-relative: default to id and
        # the chosen sigma, as the --tau help says
        return ["id", D.sigma]
    return [parse_sigma(D.coeff, t) for t in args.tau]


# argparse reads a token that starts with "-" and holds a comma, such as
# "-1,1", as an option rather than as the value of --c
_ELEMENT_FLAGS = ("--c", "--r", "--s", "--t")
_NEGATIVE_LITERAL = re.compile(r"-\d")


def _join_negative_literals(argv):
    """["--c", "-1,1"] -> ["--c=-1,1"], for the element-literal flags."""
    out = []
    for tok in argv:
        if out and out[-1] in _ELEMENT_FLAGS and _NEGATIVE_LITERAL.match(tok):
            out[-1] = "%s=%s" % (out[-1], tok)
        else:
            out.append(tok)
    return out


# -- result builders ---------------------------------------------------------
#
# A command that reads one algebra has a result function (D, args) ->
# result; iso and census have their own runners args -> (input, result).

def _construct(D, args):
    """The identity checks of D on random triples x, y, z.  Each trial
    forms x*y once, and the commutativity and structure-constants checks
    both read it: ten products per trial over commutative coefficients,
    nine over quaternions.  Over Q_p the checks run exactly on the rational
    twin, which draws the same trials (doubling.rational_twin)."""
    rng = random.Random(args.seed)
    trials = 200
    E = rational_twin(D)
    lam = E.adjoined()
    checks = {
        "unit_two_sided": True,
        "left_distributive": True,
        "right_distributive": True,
        "adjoined_square_is_c": E.mul(lam, lam) == E.element(E.c, E.coeff.zero()),
        "commutative": None,
        "matches_structure_constants": True,
    }
    one = E.unit()
    for _ in range(trials):
        x = E.random_element(rng)
        y = E.random_element(rng)
        z = E.random_element(rng)
        if E.mul(one, x) != x or E.mul(x, one) != x:
            checks["unit_two_sided"] = False
        if E.mul(x + y, z) != E.mul(x, z) + E.mul(y, z):
            checks["left_distributive"] = False
        if E.mul(z, x + y) != E.mul(z, x) + E.mul(z, y):
            checks["right_distributive"] = False
        xy = E.mul(x, y)
        if E.coeff.commutative:
            ok = xy == E.mul(y, x)
            checks["commutative"] = ok and checks["commutative"] is not False
        if mul_by_constants(E, x, y) != xy:
            checks["matches_structure_constants"] = False
    return {
        "algebra": D.describe(),
        "trials": trials,
        "checks": checks,
        "all_passed": all(v is not False for v in checks.values()),
    }


def _autgroup(D, args):
    report = group_structure(D, enumerate_automorphisms(D, _taus(D, args)))
    return dict(report.to_dict(), subgroups=report.subgroups.to_dict())


def _witness(D, args):
    r, s, t = (parse_element(D.coeff, v) for v in (args.r, args.s, args.t))
    pair, product = theorem_zero_divisor_witness(D, r, s, t)
    Dc = pair[0].alg
    return {
        "algebra": Dc.describe(),
        "critical_c": Dc.c.literal(),
        "pair": [pair[0].literal(), pair[1].literal()],
        "product": product.literal(),
        "product_is_zero": product == Dc.zero(),
    }


def _on_algebra(result):
    """The runner of a command that reads one algebra: it reads the
    description, builds the algebra once and returns result(D, args)."""
    def run(args):
        doc = _document(args)
        return doc, result(algebra_from_document(doc), args)
    return run


def _run_iso(args):
    if not args.spec or not args.spec2:
        raise DescriptionError("iso needs --spec and --spec2")
    doc1, doc2 = load_document(args.spec), load_document(args.spec2)
    verdict = iso_test(*(algebra_from_document(d) for d in (doc1, doc2)))
    return {"first": doc1, "second": doc2}, verdict.to_dict()


def _run_census(args):
    report = census(args.p, args.n, limit=args.limit)
    return {"p": args.p, "n": args.n, "limit": args.limit}, report.to_dict()


# -- rendering ---------------------------------------------------------------

def _scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "-"
    if isinstance(v, (list, tuple)):
        return json.dumps(v)
    return str(v)


def _render(payload, indent=0, out=None):
    pad = "  " * indent
    if isinstance(payload, dict):
        width = max((len(str(k)) for k in payload), default=0)
        for k in payload:
            v = payload[k]
            if isinstance(v, dict) and v:
                out.append("%s%s:" % (pad, k))
                _render(v, indent + 1, out)
            elif isinstance(v, list) and len(json.dumps(v, default=str)) > 64:
                out.append("%s%s:" % (pad, k))
                for item in v:
                    if isinstance(item, dict):
                        out.append("%s  -" % pad)
                        _render(item, indent + 2, out)
                    else:
                        out.append("%s  - %s" % (pad, _scalar(item)))
            else:
                out.append("%s%-*s  %s"
                           % (pad, width + 1, str(k) + ":", _scalar(v)))
    else:
        out.append("%s%s" % (pad, _scalar(payload)))
    return out


_encode_str = json.encoder.encode_basestring_ascii


def _json(o, pad):
    """o as json.dumps(o, indent=2, sort_keys=True, default=str) writes it,
    nested len(pad) // 2 levels deep.  A dict key that is not a str raises
    TypeError (the stdlib would write an int key as a string)."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return json.dumps(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = pad + "  "
        return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join(
            [_json(v, inner) for v in o]), pad)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = pad + "  "
        return "{\n%s%s\n%s}" % (inner, (",\n" + inner).join(
            [_encode_str(k) + ": " + _json(o[k], inner) for k in sorted(o)]),
            pad)
    return _encode_str(str(o))


def _emit(command, input_echo, result, fmt, started):
    envelope = {
        "version": __version__,
        "command": command,
        "input": input_echo,
        "result": result,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    if fmt == "json":
        print(_json(envelope, ""))
    else:
        lines = ["command: %s" % command]
        _render(result, 0, lines)
        print("\n".join(lines))


# -- the command table -------------------------------------------------------

def _flag(*names, **options):
    return names, options


_FORMAT = _flag("--format", choices=["json", "text"], default="text")
# the flags of a command that reads one algebra; a row's own flags follow
# --format, which keeps the order of every help screen
_ALGEBRA = (
    _flag("--spec", metavar="FILE",
          help="JSON file with the algebra description"),
    _flag("--coeff", help='coefficient algebra, e.g. "gf(3,2)"'),
    _flag("--sigma", help='automorphism, e.g. "frobenius:1"'),
    _flag("--c", help='doubling constant, e.g. "0,1"'),
    _flag("--variant", choices=["commutative", "left", "middle", "right"],
          help="product shape (default: commutative over commutative "
               "coefficients, else left)"),
    _flag("--allow-identity", action="store_true", help="permit sigma = id"),
    _FORMAT,
)

# (name, help, flags, run) in help order; run(args) -> (input echo, result)
COMMANDS = (
    ("construct", "build the algebra and run identity trials",
     _ALGEBRA + (_flag("--seed", type=int, default=0,
                       help="seed for the randomized identity trials"),),
     _on_algebra(_construct)),
    ("nuclei", "left/middle/right nuclei, commutative center and center",
     _ALGEBRA, _on_algebra(lambda D, args: compute_nuclei(D).to_dict())),
    ("division", "decide whether the algebra is division",
     _ALGEBRA, _on_algebra(lambda D, args: division_decide(D).to_dict())),
    ("autgroup", "enumerate automorphisms and identify the group structure",
     _ALGEBRA + (_flag("--tau", action="append", metavar="DESC",
                       help="candidate coefficient automorphism "
                            "(repeatable), quaternion coefficients only; "
                            "default is id and the chosen sigma"),),
     _on_algebra(_autgroup)),
    ("iso", "test two algebras for isomorphism",
     (_flag("--spec", metavar="FILE"), _flag("--spec2", metavar="FILE"),
      _FORMAT), _run_iso),
    ("census", "isomorphism classes over GF(p^n) for all sigma and all "
               "non-square c",
     (_flag("--p", type=int, required=True),
      _flag("--n", type=int, required=True),
      _flag("--limit", type=int, default=27,
            help="largest p^n accepted (default 27); never more than %d, "
                 "where the field index tables stop" % TABLE_BOUND),
      _FORMAT), _run_census),
    ("wene", "check whether z -> w(z lambda) acts as (sigma u, sigma v)",
     _ALGEBRA, _on_algebra(lambda D, args: wene_inner_check(D).to_dict())),
    ("witness-zero-divisor", "build the zero-divisor pair attached to a "
                             "critical triple (r,s,t)",
     _ALGEBRA + tuple(_flag(f, required=True, help="element literal")
                      for f in ("--r", "--s", "--t")),
     _on_algebra(_witness)),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dickson",
        description="Doubled-algebra toolkit: construction, nuclei, "
                    "division verdicts, automorphisms, isomorphism "
                    "testing, census.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    # {name: subparser}, for main's direct dispatch
    parser.command_parsers = {}
    for name, help_text, flags, run in COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        parser.command_parsers[name] = sub
        for names, options in flags:
            sub.add_argument(*names, **options)
        sub.set_defaults(run=run)
    return parser


_PARSER = None


def _parse(parser, argv):
    """parser.parse_args(argv), with a known command handed straight to its
    subparser.  Any other argv, and any with a "--=" token, which the
    top-level parser refuses as ambiguous before the subparser sees it,
    take the full parser."""
    sub = parser.command_parsers.get(argv[0]) if argv else None
    if sub is None or any(t.startswith("--=") for t in argv):
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:],
                                        argparse.Namespace(command=argv[0]))
    if extras:
        parser.error("unrecognized arguments: %s" % " ".join(extras))
    return args


def main(argv=None):
    # the parser holds no per-call state, and building it costs about as
    # much as answering a small question, so it is built once per process
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _parse(_PARSER, _join_negative_literals(
        sys.argv[1:] if argv is None else argv))
    try:
        return _answer(args)
    finally:
        # a command leaves its algebra in reference cycles (elements point
        # at their algebra or field, whose memo and tables hold elements);
        # freed here, each call pays for its own, not a later call that the
        # collector happens to interrupt
        gc.collect(0)


def _answer(args):
    started = time.monotonic()
    try:
        input_echo, result = args.run(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        _emit(args.command, input_echo, result, args.format, started)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (dickson ... | head); point
        # stdout at devnull so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
