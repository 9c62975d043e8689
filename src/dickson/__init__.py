"""Doubled algebras over fields, p-adic quadratic extensions and
quaternions: construction, nuclei, division verdicts, automorphism
groups, isomorphism testing and a small-order census."""

__version__ = "0.1.0"

from .doubling import (DicksonAlgebra, DicksonElement, coefficients_for,
                       compute_nuclei, critical_constants, critical_value,
                       doubled_subfield_check, mul_by_constants,
                       structure_constants, subalgebra_check,
                       theorem_zero_divisor_witness, zero_divisor_search)
from .analysis import (aut_bounds_check, census, division_decide,
                       enumerate_automorphisms, group_structure, iso_test,
                       oracle_automorphisms, subgroups, verify_automorphism,
                       verify_isomorphism, wene_inner_check)
from .fields import FiniteField, FrobeniusAut, make_field
from .quadratic import QuadField
from .padics import PadicContext, PadicQuadExt
from .quaternions import InnerAut, QuaternionAlgebra
from .parsing import (DescriptionError, algebra_from_document, load_document,
                      parse_coefficient, parse_element, parse_sigma)
from .reports import (DIVISION, NOT_DIVISION, UNKNOWN, AutGroupReport,
                      CensusReport, DivisionVerdict, IsoVerdict,
                      NucleusReport, SubgroupReport, WeneReport)

__all__ = [
    "__version__",
    "DicksonAlgebra", "DicksonElement", "coefficients_for",
    "compute_nuclei", "critical_constants", "critical_value",
    "doubled_subfield_check", "mul_by_constants", "structure_constants",
    "subalgebra_check", "theorem_zero_divisor_witness", "zero_divisor_search",
    "aut_bounds_check", "census", "division_decide",
    "enumerate_automorphisms", "group_structure", "iso_test",
    "oracle_automorphisms", "subgroups", "verify_automorphism",
    "verify_isomorphism", "wene_inner_check",
    "FiniteField", "FrobeniusAut", "make_field",
    "QuadField",
    "PadicContext", "PadicQuadExt",
    "InnerAut", "QuaternionAlgebra",
    "DescriptionError", "algebra_from_document", "load_document",
    "parse_coefficient", "parse_element", "parse_sigma",
    "DIVISION", "NOT_DIVISION", "UNKNOWN", "AutGroupReport", "CensusReport",
    "DivisionVerdict", "IsoVerdict", "NucleusReport", "SubgroupReport",
    "WeneReport",
]
