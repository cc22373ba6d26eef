"""Regular-unipotent order arithmetic and the overgroup pruning filter.

The order of a regular unipotent element of an exceptional group in
characteristic p is the least power of p that reaches the Coxeter number;
a finite subgroup can only contain one if its largest p-element order
reaches that bound. Candidate pools are shipped fixture data (transcribed
subgroup lists with their known maximal p-element orders), never derived
here; rows whose elimination rests on classification input rather than
order arithmetic are flagged eliminated-by-citation.

Fixture descriptor grammar: `const:<m>` | `p` | `p^<a>` |
`table:p=<v>:<m>,...` where the table may end with a `p=*:<m>` default
entry for primes not listed (used for primes not dividing the group order).
"""

from __future__ import annotations

from importlib import resources
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .modp import is_prime


class ExceptionalType(NamedTuple):
    name: str
    rank: int
    coxeter_number: int


EXCEPTIONAL_TYPES: Dict[str, ExceptionalType] = {
    "G2": ExceptionalType("G2", 2, 6),
    "F4": ExceptionalType("F4", 4, 12),
    "E6": ExceptionalType("E6", 6, 12),
    "E7": ExceptionalType("E7", 7, 18),
    "E8": ExceptionalType("E8", 8, 30),
}


def exceptional_type(name) -> ExceptionalType:
    if isinstance(name, ExceptionalType):
        return name
    try:
        return EXCEPTIONAL_TYPES[name]
    except KeyError:
        raise ValueError("unknown exceptional type %r (want %s)"
                         % (name, "/".join(EXCEPTIONAL_TYPES))) from None


def regular_unipotent_order(gtype, p: int) -> int:
    """Least power of p reaching the Coxeter number."""
    if not is_prime(p):
        raise ValueError("p must be prime, got %d" % p)
    h = exceptional_type(gtype).coxeter_number
    m = 1
    while m < h:
        m *= p
    return m


class DescriptorError(ValueError):
    pass


class CandidateSubgroup(NamedTuple):
    label: str
    gtype: str
    case: int
    pspec: str
    descriptor: str
    sylow_cyclic: Optional[bool] = None
    elim_citation: bool = False
    note: str = ""

    def applicable(self, p: int) -> bool:
        return _pspec_matches(self.pspec, p)

    def max_p_element_order(self, p: int) -> int:
        return _eval_descriptor(self.descriptor, p, self.label)


def _pspec_matches(spec: str, p: int) -> bool:
    spec = spec.strip()
    if spec == "any":
        return True
    if spec.startswith("ne:"):
        excluded = {int(x) for x in spec[3:].split(",")}
        return p not in excluded
    if ".." in spec:
        lo, _, hi = spec.partition("..")
        if lo and p < int(lo):
            return False
        if hi and p > int(hi):
            return False
        return True
    return p in {int(x) for x in spec.split(",")}


def _eval_descriptor(desc: str, p: int, label: str) -> int:
    desc = desc.strip()
    if desc == "p":
        return p
    if desc.startswith("p^"):
        return p ** int(desc[2:])
    if desc.startswith("const:"):
        return int(desc[6:])
    if desc.startswith("table:"):
        default = None
        for entry in desc[6:].split(","):
            if not entry.startswith("p="):
                raise DescriptorError(
                    "bad table entry %r in descriptor of %s" % (entry, label))
            key, _, val = entry[2:].partition(":")
            if not val:
                raise DescriptorError(
                    "bad table entry %r in descriptor of %s" % (entry, label))
            if key == "*":
                default = int(val)
            elif int(key) == p:
                return int(val)
        if default is not None:
            return default
        raise DescriptorError(
            "descriptor of %s is not evaluable at p = %d" % (label, p))
    raise DescriptorError("bad descriptor %r for %s" % (desc, label))


class FilterVerdict(NamedTuple):
    label: str
    p: int
    status: str  # survives | eliminated-by-order | eliminated-by-citation
    #             | eliminated-cyclic-sylow
    max_order: Optional[int]
    required: int
    note: str = ""

    @property
    def survives(self) -> bool:
        return self.status == "survives"

    def line(self) -> str:
        if self.status == "eliminated-by-citation":
            detail = self.note or "classification input"
        elif self.max_order is None:
            detail = ""
        else:
            cmp_s = ">=" if self.max_order >= self.required else "<"
            detail = "max p-element order %d %s %d" % (
                self.max_order, cmp_s, self.required)
        return "%-18s %-24s %s" % (self.label, self.status, detail)


def filter_candidates(gtype, p: int, pool: Sequence[CandidateSubgroup],
                      require_two_unipotent_classes: bool = False
                      ) -> List[FilterVerdict]:
    """Verdicts for every pool candidate applicable at (type, p).

    A candidate survives iff its maximal p-element order reaches the
    regular-unipotent order. With `require_two_unipotent_classes`,
    candidates whose Sylow p-subgroup is cyclic are excluded as well
    (a cyclic Sylow meets only one class of order-p^k elements, but the
    triple needs two distinct unipotent classes).
    """
    g = exceptional_type(gtype)
    required = regular_unipotent_order(g, p)
    out: List[FilterVerdict] = []
    for cand in pool:
        if cand.gtype != g.name or not cand.applicable(p):
            continue
        if cand.elim_citation:
            out.append(FilterVerdict(cand.label, p, "eliminated-by-citation",
                                     None, required, cand.note))
            continue
        m = cand.max_p_element_order(p)
        if m < required:
            out.append(FilterVerdict(cand.label, p, "eliminated-by-order",
                                     m, required, cand.note))
        elif require_two_unipotent_classes and cand.sylow_cyclic:
            out.append(FilterVerdict(cand.label, p, "eliminated-cyclic-sylow",
                                     m, required,
                                     "Sylow %d-subgroup is cyclic" % p))
        else:
            out.append(FilterVerdict(cand.label, p, "survives", m, required,
                                     cand.note))
    return out


def survivors(gtype, p: int, pool: Sequence[CandidateSubgroup],
              require_two_unipotent_classes: bool = False) -> Set[str]:
    return {v.label for v in filter_candidates(
        gtype, p, pool, require_two_unipotent_classes) if v.survives}


# ---------------------------------------------------------------------------
# fixture IO


def parse_pool(text: str) -> List[CandidateSubgroup]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] != "candidate" or len(fields) < 2:
            raise ValueError("bad pool line %d: %r" % (lineno, raw))
        label = fields[1]
        attrs = {}
        for f in fields[2:]:
            key, _, val = f.partition("=")
            if not val:
                raise ValueError("bad attribute %r on pool line %d" % (f, lineno))
            attrs[key] = val
        for req in ("type", "case", "p", "order"):
            if req not in attrs and not (req == "order" and "elim" in attrs):
                raise ValueError("pool line %d lacks %s=" % (lineno, req))
        sylow = attrs.get("sylow_cyclic")
        out.append(CandidateSubgroup(
            label=label,
            gtype=attrs["type"],
            case=int(attrs["case"]),
            pspec=attrs["p"],
            descriptor=attrs.get("order", "const:1"),
            sylow_cyclic=None if sylow is None else sylow == "1",
            elim_citation=attrs.get("elim") == "citation",
            note=attrs.get("note", ""),
        ))
    return out


def parse_expected(text: str) -> List[Tuple[str, str, str]]:
    """(type, pspec, label) survivor expectations."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] != "expect" or len(fields) != 4:
            raise ValueError("bad expectation line %d: %r" % (lineno, raw))
        attrs = dict(f.partition("=")[::2] for f in fields[1:3])
        out.append((attrs["type"], attrs["p"], fields[3]))
    return out


def _data_text(name: str) -> str:
    return resources.files("rigikit.data").joinpath(name).read_text()


def load_pool() -> List[CandidateSubgroup]:
    return parse_pool(_data_text("lieprim_pool.txt"))


def load_expected() -> List[Tuple[str, str, str]]:
    return parse_expected(_data_text("lieprim_expected.txt"))


def sweep_primes(limit: int = 127) -> List[int]:
    return [n for n in range(2, limit + 1) if is_prime(n)]


def expected_survivors(expected, gtype: str, p: int) -> Set[str]:
    out = set()
    for etype, pspec, label in expected:
        if etype == gtype and _pspec_matches(pspec, p):
            out.add(label)
    return out


def reproduction_report(pool=None, expected=None, primes=None):
    """Set-equality of filter survivors against the expectation file, per
    (type, prime); returns (all_ok, mismatches)."""
    pool = load_pool() if pool is None else pool
    expected = load_expected() if expected is None else expected
    primes = sweep_primes() if primes is None else primes
    mismatches = []
    for gtype in EXCEPTIONAL_TYPES:
        for p in primes:
            got = survivors(gtype, p, pool)
            want = expected_survivors(expected, gtype, p)
            if got != want:
                mismatches.append((gtype, p, sorted(got), sorted(want)))
    return (not mismatches), mismatches
