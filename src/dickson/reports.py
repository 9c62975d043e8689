"""Result records shared across the analysis layer.

Every verdict about division is three-valued: an algebra is either proved
to be division, proved not to be (ideally with an explicit pair of zero
divisors), or the implemented criteria simply do not decide it.  Nothing
in this package ever converts "unknown" into a guess.

Records keep native algebra elements where useful for re-verification,
plus pre-rendered literals so they serialize deterministically.
"""

from dataclasses import asdict, dataclass, field, fields


DIVISION = "proved-division"
NOT_DIVISION = "proved-not-division"
UNKNOWN = "unknown"


def certify(ok, claim):
    """Check a claim the program has just computed a certificate for.

    Unlike assert it also runs under python -O; a failure is a bug in the
    program, never a property of the input, and raises RuntimeError."""
    if not ok:
        raise RuntimeError("certificate failed: %s; this is a bug, not a "
                           "property of the input" % claim)


@dataclass
class DivisionVerdict:
    status: str
    method: str = ""
    witness: tuple | None = None          # ((u,v), (x,y)) native pair, optional
    witness_literal: list | None = None   # serializable rendering of the pair
    notes: str = ""

    def to_dict(self):
        return {
            "verdict": self.status,
            "method": self.method,
            "witness": self.witness_literal,
            "notes": self.notes,
        }


@dataclass
class NucleusReport:
    left: list
    middle: list
    right: list
    nucleus: list
    commuter: list
    center: list

    @property
    def dims(self):
        return {f.name: len(getattr(self, f.name)) for f in fields(self)}

    @property
    def literals(self):
        return {f.name: [e.literal() for e in getattr(self, f.name)]
                for f in fields(self)}

    def to_dict(self):
        return {"dims": self.dims, "bases": self.literals}


@dataclass
class SubgroupReport:
    aut_base: list            # descriptors for Aut_F(K) (or supplied witnesses)
    j_group: list             # tau with X^2 - tau(c)/c solvable
    c_sigma: list             # tau commuting with sigma
    intersection: list
    isotropy: list            # tau with tau(c) = c
    labels: dict              # descriptor -> printable label
    closure_checked: bool

    def to_dict(self):
        lab = self.labels
        return {
            "aut": [lab[t] for t in self.aut_base],
            "J_c": [lab[t] for t in self.j_group],
            "C_sigma": [lab[t] for t in self.c_sigma],
            "J_and_C": [lab[t] for t in self.intersection],
            "isotropy": [lab[t] for t in self.isotropy],
            "closure_checked": self.closure_checked,
        }


@dataclass
class AutGroupReport:
    elements: list            # list of (tau_descriptor, b) pairs
    labels: list              # printable ("tau": ..., "b": ...) per element
    order: int
    table: list               # composition table of indices
    structure: str            # "yes" | "undetermined"
    structure_detail: str
    labeling: dict | None     # generator orbit products / chosen roots
    complete: bool            # False for witness-relative quaternion mode
    subgroups: SubgroupReport  # the tau subgroups the elements come from

    def to_dict(self):
        return {
            "order": self.order,
            "elements": self.labels,
            "table": self.table,
            "structure": self.structure,
            "structure_detail": self.structure_detail,
            "labeling": self.labeling,
            "complete": self.complete,
        }


@dataclass
class IsoVerdict:
    status: str               # "yes" | "no" | "unknown"
    reason: str = ""
    witness: dict | None = None

    def to_dict(self):
        return asdict(self)


@dataclass
class WeneReport:
    left_inverse: list          # literal of the left inverse of (0,1)
    grouped_map_is_sigma_pair: bool
    sigma_fixes_c: bool
    consistent: bool            # the two booleans above agree, as they must
    in_automorphism_group: bool | None
    images: list                # literals of the grouped map on a basis

    def to_dict(self):
        return asdict(self)


@dataclass
class CensusReport:
    p: int
    n: int
    entries: list = field(default_factory=list)
    classes: list = field(default_factory=list)
    classes_excluding_id: int = 0
    classes_including_id: int = 0

    def to_dict(self):
        return asdict(self)
