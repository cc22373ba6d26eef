"""Regular-unipotent order arithmetic and the overgroup pruning filter.

The order of a regular unipotent element of an exceptional group in
characteristic p is the least power of p that reaches the Coxeter number;
a finite subgroup can only contain one if its largest p-element order
reaches that bound. Candidate pools are shipped fixture data (transcribed
subgroup lists with their known maximal p-element orders), never derived
here; rows whose elimination rests on classification input rather than
order arithmetic are flagged eliminated-by-citation.

Fixture descriptor grammar: `const:<m>` | `p` | `p^<a>` (1 <= a <= 64) |
`table:p=<v>:<m>,...` where the table may end with a `p=*:<m>` default
entry for primes not listed (used for primes not dividing the group order).
"""

from __future__ import annotations

from importlib import resources
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .modp import is_prime, read_int, read_lines


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
        m = _eval_descriptor(self.descriptor, p, self.label)
        if m is None:
            raise DescriptorError(
                "descriptor of %s is not evaluable at p = %d" % (self.label, p))
        return m


def _pspec_matches(spec: str, p: int) -> bool:
    """Whether the pspec admits p; the whole spec is read whatever p is."""
    spec = spec.strip()
    if spec == "any":
        return True
    if spec.startswith("ne:"):
        return p not in _ints(spec[3:])
    if ".." in spec:
        lo, hi = (read_int(x) if x else None for x in spec.split(".."))
        return (lo is None or lo <= p) and (hi is None or p <= hi)
    return p in _ints(spec)


def _ints(text: str) -> Set[int]:
    return {read_int(x) for x in text.split(",")}


def _positive(text: str) -> int:
    v = read_int(text)
    if v < 1:
        raise ValueError("%r is not a positive integer" % text)
    return v


def _eval_descriptor(desc: str, p: int, label: str) -> Optional[int]:
    """The descriptor's order at p, None when a table lists neither p nor a
    default; the whole descriptor is read whatever p is."""
    desc = desc.strip()
    if desc == "p":
        return p
    if desc.startswith("p^"):
        # regular unipotent orders are at most p^5 (2^5 at E8), so every
        # exponent from 5 up gives the same verdicts; 64 bounds the work
        a = _positive(desc[2:])
        if a > 64:
            raise ValueError("exponent %d is above 64" % a)
        return p ** a
    if desc.startswith("const:"):
        return _positive(desc[6:])
    if desc.startswith("table:"):
        table: Dict[int, int] = {}
        default = None
        for entry in desc[6:].split(","):
            key, _, val = entry[2:].partition(":")
            if not entry.startswith("p=") or not val:
                raise DescriptorError(
                    "bad table entry %r in descriptor of %s" % (entry, label))
            if key == "*":
                default = _positive(val)
            else:
                table[read_int(key)] = _positive(val)
        return table.get(p, default)
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


def parse_pool(text) -> List[CandidateSubgroup]:
    """Candidate rows of a pool file (str, or bytes that must be ASCII)."""
    out = []
    for lineno, line in read_lines(text)[0]:
        fields = line.split()
        if fields[0] != "candidate" or len(fields) < 2:
            raise ValueError("bad pool line %d: %r" % (lineno, line))
        label = fields[1]
        attrs = {}
        for f in fields[2:]:
            key, _, val = f.partition("=")
            if not val:
                raise ValueError("bad attribute %r on pool line %d" % (f, lineno))
            if key in attrs:
                raise ValueError("repeated %s= on pool line %d" % (key, lineno))
            _check_pool_field(key, val, label, "pool line %d" % lineno)
            attrs[key] = val
        for req in ("type", "case", "p", "order"):
            if req not in attrs and not (req == "order" and "elim" in attrs):
                raise ValueError("pool line %d lacks %s=" % (lineno, req))
        sylow = attrs.get("sylow_cyclic")
        out.append(CandidateSubgroup(
            label=label,
            gtype=attrs["type"],
            case=read_int(attrs["case"]),
            pspec=attrs["p"],
            descriptor=attrs.get("order", "const:1"),
            sylow_cyclic=None if sylow is None else sylow == "1",
            elim_citation=attrs.get("elim") == "citation",
            note=attrs.get("note", ""),
        ))
    return out


def _check_pool_field(key: str, val: str, label: str, where: str) -> None:
    """ValueError, naming `where`, unless `val` is a well-formed value of
    pool attribute `key`."""
    try:
        if key == "type":
            exceptional_type(val)
        elif key == "case":
            read_int(val)
        elif key == "p":
            _pspec_matches(val, 2)
        elif key == "order":
            _eval_descriptor(val, 2, label)
        elif key == "sylow_cyclic" and val not in ("0", "1"):
            raise ValueError("want 0 or 1")
        elif key == "elim" and val != "citation":
            raise ValueError("want citation")
        elif key not in ("sylow_cyclic", "elim", "note"):
            raise ValueError("unknown attribute")
    except ValueError as exc:
        raise ValueError("bad %s=%s on %s: %s" % (key, val, where, exc)) from None


def parse_expected(text) -> List[Tuple[str, str, str]]:
    """(type, pspec, label) survivor expectations (str, or bytes that must
    be ASCII); `type` and `p` are checked as in the pool."""
    out = []
    for lineno, line in read_lines(text)[0]:
        fields = line.split()
        if fields[0] != "expect" or len(fields) != 4:
            raise ValueError("bad expectation line %d: %r" % (lineno, line))
        attrs = dict(f.partition("=")[::2] for f in fields[1:3])
        for key in ("type", "p"):
            if key not in attrs:
                raise ValueError("expectation line %d lacks %s=" % (lineno, key))
            _check_pool_field(key, attrs[key], fields[3], "expectation line %d" % lineno)
        out.append((attrs["type"], attrs["p"], fields[3]))
    return out


def _data(name: str) -> bytes:
    return resources.files("rigikit.data").joinpath(name).read_bytes()


def load_pool() -> List[CandidateSubgroup]:
    return parse_pool(_data("lieprim_pool.txt"))


def load_expected() -> List[Tuple[str, str, str]]:
    return parse_expected(_data("lieprim_expected.txt"))


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
