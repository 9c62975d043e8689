"""Parsing of algebra descriptions.

A doubled algebra is described by a small JSON document:

    {
      "coeff":   "gf(3,2)" | "gf(3,2;1,0,1)" | "quad(2)" | "qp(5)" |
                 "qp(5;sqrt_u)" | "quat(2,3)" | "quat(-1,-1;5)",
      "sigma":   "frobenius:1" | {"frobenius": 1} | "conjugate" | "id" |
                 "conjugation:0,1,0,0" | {"conjugation": [0,1,0,0]},
      "c":       element literal (see below),
      "variant": "commutative" | "left" | "middle" | "right"   (optional),
      "allow_identity": true | false                            (optional)
    }

Element literals: finite field "c0,c1,..." (ascending-degree residues);
quadratic field "x,y" or the radicand-carrying triple "x,y,a" meaning
x + y*sqrt(a), rationals in num/den syntax; p-adic "val:unit" components
or plain rationals, two components "x,y" for x + y*alpha; quaternion
"x,y,z,w".

The same strings work as inline command-line flags.  Validation is by
hand: unknown keys, wrong arity and malformed numbers all raise
DescriptionError with a message naming the offending part.
"""

import json
from fractions import Fraction

from .doubling import (DicksonAlgebra, FieldCoefficients, PadicCoefficients,
                       QuadCoefficients, QuatCoefficients)
from .fields import FieldError, FrobeniusAut, make_field
from .padics import DEFAULT_PRECISION, PadicContext, PadicQuadExt
from .quadratic import QuadField
from .quaternions import InnerAut, QuaternionAlgebra


class DescriptionError(ValueError):
    pass


def _rational(text):
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DescriptionError("bad rational %r: %s" % (text, exc)) from None


def _int(text, what):
    try:
        return int(str(text).strip())
    except ValueError:
        raise DescriptionError("bad %s %r" % (what, text)) from None


# the most ';'-separated parts each coefficient head takes
_MAX_PARTS = {"gf": 2, "quad": 1, "qp": 3, "quat": 2}


def parse_coefficient(text):
    """Coefficient-algebra spec string -> adapter."""
    if not isinstance(text, str):
        raise DescriptionError("coefficient spec must be a string")
    t = text.strip()
    if "(" not in t or not t.endswith(")"):
        raise DescriptionError("coefficient spec %r is not head(args)" % text)
    head, _, inner = t[:-1].partition("(")
    head = head.strip().lower()
    parts = [x.strip() for x in inner.split(";")]
    if len(parts) > _MAX_PARTS.get(head, len(parts)):
        raise DescriptionError("coefficient spec %r: %s takes at most %d "
                               "';' parts" % (text, head, _MAX_PARTS[head]))
    try:
        if head == "gf":
            pn = parts[0].split(",")
            if len(pn) != 2:
                raise DescriptionError('gf takes "gf(p,n)" or "gf(p,n;mods)"')
            p = _int(pn[0], "prime")
            n = _int(pn[1], "degree")
            modulus = None
            if len(parts) > 1:
                modulus = [_int(x, "modulus coefficient")
                           for x in parts[1].split(",")]
            return FieldCoefficients(make_field(p, n, modulus))
        if head == "quad":
            return QuadCoefficients(QuadField(_rational(parts[0])))
        if head == "qp":
            p = _int(parts[0], "prime")
            kind = parts[1] if len(parts) > 1 else "sqrt_p"
            prec = (_int(parts[2], "precision") if len(parts) > 2
                    else DEFAULT_PRECISION)
            return PadicCoefficients(PadicQuadExt(PadicContext(p, prec), kind))
        if head == "quat":
            ab = parts[0].split(",")
            if len(ab) != 2:
                raise DescriptionError('quat takes "quat(a,b)" or '
                                       '"quat(a,b;p)"')
            if len(parts) > 1:
                p = _int(parts[1], "prime")
                return QuatCoefficients(QuaternionAlgebra(
                    _int(ab[0], "a"), _int(ab[1], "b"), p=p))
            return QuatCoefficients(QuaternionAlgebra(
                _rational(ab[0]), _rational(ab[1])))
    except (ValueError, FieldError) as exc:
        if isinstance(exc, DescriptionError):
            raise
        raise DescriptionError("coefficient spec %r: %s" % (text, exc)) from None
    raise DescriptionError("unknown coefficient spec head %r" % head)


def parse_sigma(coeff, spec):
    """Automorphism descriptor (string or JSON form) -> adapter descriptor."""
    if isinstance(spec, dict):
        if set(spec) == {"frobenius"}:
            spec = "frobenius:%d" % _int(spec["frobenius"], "frobenius exponent")
        elif set(spec) == {"conjugation"}:
            parts = spec["conjugation"]
            if not isinstance(parts, list) or len(parts) != 4:
                raise DescriptionError("conjugation takes four coordinates")
            spec = "conjugation:" + ",".join(str(x) for x in parts)
        else:
            raise DescriptionError("sigma object must be {frobenius: k} or "
                                   "{conjugation: [x,y,z,w]}")
    if not isinstance(spec, str):
        raise DescriptionError("sigma must be a string or a small object")
    s = spec.strip()
    if coeff.kind == "field":
        if s == "id":
            return FrobeniusAut(coeff.K, 0)
        for sep in (":", "^"):
            if s.startswith("frobenius" + sep):
                return FrobeniusAut(coeff.K,
                                    _int(s.split(sep, 1)[1], "frobenius exponent"))
        raise DescriptionError('finite-field sigma is "frobenius:k" or "id"')
    if coeff.kind in ("quad", "padic"):
        if s in ("id", "conjugate"):
            return s
        raise DescriptionError('sigma must be "conjugate" or "id" here')
    if s == "id":
        return "id"
    if s.startswith("conjugation:"):
        return InnerAut(parse_element(coeff, s.split(":", 1)[1]))
    raise DescriptionError('quaternion sigma is "conjugation:x,y,z,w" or "id"')


def parse_element(coeff, text):
    """Element literal -> coefficient-algebra element."""
    if not isinstance(text, str):
        raise DescriptionError("element literal must be a string")
    parts = [x.strip() for x in text.strip().split(",")]
    kind = coeff.kind
    if kind == "field":
        K = coeff.K
        if len(parts) != K.n:
            raise DescriptionError("field literal needs %d coefficients, "
                                   "got %d" % (K.n, len(parts)))
        return K.element([_int(x, "field coefficient") % K.p for x in parts])
    if kind == "quad":
        if len(parts) == 2:
            return coeff.K.element(_rational(parts[0]), _rational(parts[1]))
        if len(parts) == 3:
            x, y, a = (_rational(parts[0]), _rational(parts[1]),
                       _rational(parts[2]))
            if a == 0:
                raise DescriptionError("radicand in a triple literal must "
                                       "be nonzero")
            carrier = QuadField(a)
            if carrier.a != coeff.K.a:
                raise DescriptionError(
                    "literal radicand %s reduces to sqrt(%d), but the field "
                    "is over sqrt(%d)" % (a, carrier.a, coeff.K.a))
            return coeff.K.element(x, y * carrier.scale)
        raise DescriptionError('quadratic literal is "x,y" or "x,y,a"')
    if kind == "padic":
        ctx = coeff.K.ctx
        if len(parts) > 2:
            raise DescriptionError('p-adic literal is "x" or "x,y" with '
                                   'components "val:unit" or rationals')
        comps = []
        for part in parts:
            if ":" in part:
                v, _, u = part.partition(":")
                comps.append(_padic_rational(ctx, _int(v, "valuation"),
                                             _int(u, "unit part")))
            else:
                comps.append(_rational(part))
        while len(comps) < 2:
            comps.append(Fraction(0))
        # the element keeps the rationals the literal names
        return coeff.K.element(comps[0], comps[1])
    if len(parts) != 4:
        raise DescriptionError('quaternion literal is "x,y,z,w"')
    if coeff.B.p is not None:
        return coeff.B.element(*[_int(x, "coordinate") % coeff.B.p
                                 for x in parts])
    return coeff.B.element(*[_rational(x) for x in parts])


def _padic_rational(ctx, val, unit):
    """p^val * unit, the rational a val:unit literal names."""
    if unit % ctx.p == 0 and unit:
        raise DescriptionError("bad val:unit literal: unit part divisible "
                               "by p")
    return Fraction(ctx.p) ** val * unit


_KEYS = {"coeff", "sigma", "c", "variant", "allow_identity"}


def algebra_from_document(doc):
    """Validated JSON document -> DicksonAlgebra."""
    if not isinstance(doc, dict):
        raise DescriptionError("algebra description must be a JSON object")
    unknown = set(doc) - _KEYS
    if unknown:
        raise DescriptionError("unknown keys: %s" % ", ".join(sorted(unknown)))
    for key in ("coeff", "sigma", "c"):
        if key not in doc:
            raise DescriptionError("missing required key %r" % key)
    coeff = parse_coefficient(doc["coeff"])
    sigma = parse_sigma(coeff, doc["sigma"])
    c = parse_element(coeff, doc["c"])
    variant = doc.get("variant")
    if variant is None:
        variant = "commutative" if coeff.commutative else "left"
    allow = doc.get("allow_identity", False)
    if not isinstance(allow, bool):
        raise DescriptionError("allow_identity must be a boolean")
    try:
        return DicksonAlgebra(coeff, sigma, c, variant, allow_identity=allow)
    except ValueError as exc:
        raise DescriptionError(str(exc)) from None


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DescriptionError("cannot read %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise DescriptionError("%s is not valid JSON: %s" % (path, exc)) from None
    return doc
