"""Concrete finite matrix groups over prime fields.

Elements are immutable matrices over GF(p), optionally taken modulo scalars
(projective groups scale so the first nonzero entry is 1). The `key` of an
element, a canonical identity, is the tuple of its row codes: a row v has
the code sum v_i p^(n-1-i). `closure`, `class_orbit` and
`direct_triple_count` multiply on these codes through lazily filled tables,
the "grease" tables of Parker's Meat-Axe (Computational Group Theory,
Durham 1982): x g takes T_g[r] for each row code r of x, where
T_g[c] = code(v g), and g x g^-1 also maps the columns through
L_g[c] = code(g v). Tables grow with the rows met, never to p^n entries.

`closure` enumerates a group breadth-first, in a deterministic order, and
keeps one right-multiplication position array per generator and its search
tree (Schreier vectors: Holt, Eick and O'Brien, Handbook of Computational
Group Theory, ch. 4). Left multiplications are read off the tree, so
conjugacy classes run on positions; their only products walk the powers
of class representatives.

`direct_triple_count` takes no inverses: for z in C3, x^-1 z^-1 lies in C2
iff its inverse z x, and so its conjugate x z, lies in C2^-1. Quadratic
unipotents are closed under inversion, as (y^-1 - 1)^2 = y^-2 (y - 1)^2,
so the lemma drivers test x z with `is_quadratic_unipotent` itself.
"""

from __future__ import annotations

from array import array
from math import gcd
from operator import mul
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .modp import (
    is_prime, mat_add_scalar, mat_det, mat_inv, mat_mul, mat_pow, mat_rank, primitive_root)


class GroupTooLargeError(ValueError):
    def __init__(self, what: str, cap: int):
        super().__init__("%s exceeded the cap of %d elements" % (what, cap))
        self.cap = cap


DEFAULT_CLOSURE_CAP = 2_000_000
DEFAULT_ORBIT_CAP = 1_000_000


class GroupElement:
    """An n x n matrix over GF(p); canonical under scalars when projective."""

    __slots__ = ("n", "p", "entries", "projective", "key")

    def __init__(self, entries: Tuple[Tuple[int, ...], ...], p: int,
                 projective: bool = False, _canonical: bool = False):
        n = len(entries)
        if not _canonical:
            entries = tuple(tuple(v % p for v in row) for row in entries)
            if projective:
                entries = _projective_scale(entries, p)
        self.n = n
        self.p = p
        self.entries = entries
        self.projective = projective
        self.key = tuple(_row_code(row, p) for row in entries)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        p = self.p
        prod = mat_mul(self.entries, other.entries, p)
        if self.projective:
            prod = _projective_scale(prod, p)
        return GroupElement(prod, p, self.projective, _canonical=True)

    def inverse(self) -> "GroupElement":
        inv = mat_inv(self.entries, self.p)
        if self.projective:
            inv = _projective_scale(inv, self.p)
        return GroupElement(inv, self.p, self.projective, _canonical=True)

    def det(self) -> int:
        return mat_det(self.entries, self.p)

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and self.key == other.key
                and self.p == other.p and self.projective == other.projective)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        rows = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return "GroupElement[%s | GF(%d)%s]" % (
            rows, self.p, " mod scalars" if self.projective else "")


def _projective_scale(entries, p):
    for row in entries:
        for v in row:
            if v:
                if v == 1:
                    return entries
                inv = pow(v, -1, p)
                return tuple(tuple(x * inv % p for x in row2) for row2 in entries)
    return entries


def _row_code(row, p: int) -> int:
    c = 0
    for v in row:
        c = c * p + v
    return c


class _Lazy(dict):
    """key -> fill(key), each value computed on its first lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _RowCodes:
    """Products of n x n matrices over GF(p) (mod scalars when projective)
    held as tuples of row codes, each product one table lookup per row."""

    def __init__(self, n: int, p: int, projective: bool):
        self.n, self.p, self.projective = n, p, projective
        self.digits = _Lazy(lambda c: tuple(c // p ** (n - 1 - i) % p for i in range(n)))
        self.code = _Lazy(lambda v: _row_code(v, p))
        # projective rescaling: c -> inverse of the first nonzero entry of its
        # row, and s -> the table c -> code(s v)
        self.lead = _Lazy(
            lambda c: pow(next((d for d in self.digits[c] if d), 1), -1, p))
        self.scaled = _Lazy(lambda s: _Lazy(
            lambda c: _row_code([s * d % p for d in self.digits[c]], p)))

    def right(self, entries) -> _Lazy:
        """T[c] = code(v g) for the matrix g with these entries."""
        digits, p = self.digits, self.p
        cols = tuple(zip(*entries))
        return _Lazy(lambda c: _row_code(
            [sum(map(mul, digits[c], col)) % p for col in cols], p))

    def left(self, entries) -> _Lazy:
        """L[c] = code(g v), for the column v with code c."""
        return self.right(tuple(zip(*entries)))

    def canonical(self, rows: Tuple[int, ...]) -> Tuple[int, ...]:
        if self.projective:
            s = self.lead[next((c for c in rows if c), 0)]
            if s != 1:
                return tuple(map(self.scaled[s].__getitem__, rows))
        return rows

    def conjugate(self, rows: Tuple[int, ...], right_inverse: _Lazy,
                  left: _Lazy) -> Tuple[int, ...]:
        """Row codes of g x g^-1: the rows of x through the right table of
        g^-1, then, transposed, through the left table of g."""
        digits, code = self.digits.__getitem__, self.code.__getitem__
        cols = map(code, zip(*map(digits, map(right_inverse.__getitem__, rows))))
        return self.canonical(
            tuple(map(code, zip(*map(digits, map(left.__getitem__, cols))))))

    def element(self, rows: Tuple[int, ...]) -> "GroupElement":
        """The element with these (canonical) row codes."""
        x = GroupElement.__new__(GroupElement)
        x.n, x.p, x.projective, x.key = self.n, self.p, self.projective, rows
        x.entries = tuple(map(self.digits.__getitem__, rows))
        return x


def identity(n: int, p: int, projective: bool = False) -> GroupElement:
    ent = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return GroupElement(ent, p, projective, _canonical=True)


def make_element(rows: Sequence[Sequence[int]], p: int,
                 projective: bool = False) -> GroupElement:
    return GroupElement(tuple(tuple(r) for r in rows), p, projective)


# ---------------------------------------------------------------------------
# groups


class ConjugacyClass(NamedTuple):
    rep: GroupElement
    size: int
    order: int
    indices: Tuple[int, ...]  # element indices, ascending
    powers: Tuple[int, ...]  # positions of rep^t for 0 <= t < order


class FiniteGroup:
    """An enumerated group. A plain class: `conjugacy_classes` sets
    `classes` on first use, and a NamedTuple's `index` field would shadow
    `tuple.index`."""

    def __init__(self, kind: str, n: int, p: int, generators: Tuple[GroupElement, ...],
                 elements: Optional[List[GroupElement]] = None,
                 index: Optional[Dict] = None, right: Optional[List[array]] = None,
                 parent: Optional[array] = None, via: Optional[array] = None,
                 classes: Optional[List[ConjugacyClass]] = None):
        self.kind = kind  # SL | GL | SO | PSL | PGL, or "subgroup of GL" / "subgroup of PGL"
        self.n, self.p, self.generators = n, p, generators
        self.elements = [] if elements is None else elements
        self.index = {} if index is None else index  # canonical key -> position
        # right[g][u] = position of elements[u] * generators[g]
        self.right = [] if right is None else right
        # breadth-first tree: elements[u] = elements[parent[u]] * generators[via[u]]
        self.parent = array("i") if parent is None else parent
        self.via = array("i") if via is None else via
        self.classes = classes

    @property
    def order(self) -> int:
        return len(self.elements)

    def left(self, h: int) -> array:
        """Positions of elements[h] * elements[u] for every u, in one pass
        over the tree (position 0 holds the identity)."""
        right, parent, via = self.right, self.parent, self.via
        out = array("i", [h]) * len(self.elements)
        for u in range(1, len(out)):
            out[u] = right[via[u]][out[parent[u]]]
        return out


def closure(generators: Sequence[GroupElement], cap: int = DEFAULT_CLOSURE_CAP,
            kind: str = "GL") -> FiniteGroup:
    """Breadth-first product closure, with its multiplication arrays and
    tree. Generators must be invertible (classes need g^-1 in the group):
    a singular one raises ValueError."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n, p, projective = gens[0].n, gens[0].p, gens[0].projective
    for no, g in enumerate(gens):
        if (g.n, g.p, g.projective) != (n, p, projective):
            raise ValueError("generators live in different matrix groups")
        if not g.det():
            raise ValueError("generator %d is singular" % (no + 1))
    codes = _RowCodes(n, p, projective)
    canonical = codes.canonical
    e = identity(n, p, projective)
    elements = [e]
    index = {e.key: 0}
    right = [array("i") for _ in gens]
    steps = [(codes.right(g.entries).__getitem__, r) for g, r in zip(gens, right)]
    parent, via = array("i", [0]), array("i", [0])
    for u, x in enumerate(elements):  # the list grows as it is walked
        rows = x.key
        for gno, (table, r) in enumerate(steps):
            y = canonical(tuple(map(table, rows)))
            v = index.get(y)
            if v is None:
                v = index[y] = len(elements)
                elements.append(codes.element(y))
                parent.append(u)
                via.append(gno)
                if len(elements) > cap:
                    raise GroupTooLargeError("group closure", cap)
            r.append(v)
    return FiniteGroup(kind=kind, n=n, p=p, generators=tuple(gens),
                       elements=elements, index=index, right=right,
                       parent=parent, via=via)


def conjugacy_classes(group: FiniteGroup) -> List[ConjugacyClass]:
    """Partition the enumerated group, on positions: x -> g^-1 x g is
    right[g][left(g^-1)[x]], g^-1 the position u with u g = 1.
    Representatives are enumeration-least. Each class keeps the positions
    of its representative's powers, walked by one product per power unless
    the representative is a power of an earlier one (a cyclic group takes
    |G| products); `dixon` reads inverse classes and power maps off them."""
    if group.classes is not None:
        return group.classes
    if not group.elements:
        raise ValueError("group has no enumerated elements")
    conj = [(r, group.left(r.index(0))) for r in group.right]
    index = group.index
    class_of = [-1] * len(group.elements)
    walked = [None] * len(class_of)  # u -> (powers of a walked r, s) with u = r^s
    classes: List[ConjugacyClass] = []
    for start, rep in enumerate(group.elements):
        if class_of[start] >= 0:
            continue
        cls_no = len(classes)
        class_of[start] = cls_no
        members = [start]
        for x in members:  # the list grows as it is walked
            for r, l in conj:
                y = r[l[x]]
                if class_of[y] < 0:
                    class_of[y] = cls_no
                    members.append(y)
        members.sort()
        if walked[start]:  # rep = r^s, r an earlier representative
            base, s = walked[start]
            m = len(base)
            powers = tuple(base[s * t % m] for t in range(m // gcd(m, s)))
        else:
            powers, x, u = [0], rep, start
            while u:
                powers.append(u)
                x = x * rep
                u = index[x.key]
            powers = tuple(powers)
            for s, u in enumerate(powers):
                walked[u] = walked[u] or (powers, s)
        classes.append(ConjugacyClass(
            rep=rep, size=len(members), order=len(powers),
            indices=tuple(members), powers=powers))
    group.classes = classes
    return classes


def class_orbit(rep: GroupElement, generators: Sequence[GroupElement],
                cap: int = DEFAULT_ORBIT_CAP) -> List[GroupElement]:
    """Conjugation orbit of rep under the group the generators generate,
    without enumerating that group, breadth first: x -> g x g^-1 for each
    generator g in turn."""
    codes = _RowCodes(rep.n, rep.p, rep.projective)
    gens = [(codes.right(g.inverse().entries), codes.left(g.entries))
            for g in generators]
    orbit = [rep]
    seen = {rep.key}
    for x in orbit:  # the list grows as it is walked
        for right_inverse, left in gens:
            y = codes.conjugate(x.key, right_inverse, left)
            if y not in seen:
                seen.add(y)
                orbit.append(codes.element(y))
                if len(orbit) > cap:
                    raise GroupTooLargeError("conjugation orbit", cap)
    return orbit


# ---------------------------------------------------------------------------
# Jordan structure


class JordanType(NamedTuple):
    """Block partitions per eigenvalue (eigenvalues restricted to 1 and -1)."""

    partitions: Tuple[Tuple[int, Tuple[int, ...]], ...]  # (eigenvalue, blocks desc)

    def partition(self, eigenvalue: int) -> Tuple[int, ...]:
        for ev, part in self.partitions:
            if ev == eigenvalue:
                return part
        return ()

    def is_unipotent(self) -> bool:
        return all(ev == 1 for ev, _ in self.partitions)


class UnsupportedSpectrumError(ValueError):
    pass


def jordan_type(m: GroupElement) -> JordanType:
    """Jordan block partition; the spectrum must lie in {1, -1} over GF(p)."""
    n, p = m.n, m.p
    eigenvalues = [1] if p == 2 else [1, -1]
    # spectrum check: (m - 1)^n (m + 1)^n must vanish
    power = mat_pow(mat_add_scalar(m.entries, -1, p), n, p)
    if p != 2:
        power = mat_mul(power, mat_pow(mat_add_scalar(m.entries, 1, p), n, p), p)
    if any(v for row in power for v in row):
        raise UnsupportedSpectrumError(
            "matrix has eigenvalues outside {1, -1} over GF(%d)" % p)
    parts = []
    for ev in eigenvalues:
        a = cur = mat_add_scalar(m.entries, -ev, p)
        ranks = [n, mat_rank(a, p)]
        for _ in range(1, n):
            cur = mat_mul(cur, a, p)
            ranks.append(mat_rank(cur, p))
        blocks = []
        for k in range(1, n + 1):
            count = (ranks[k - 1] - ranks[k]) - (ranks[k] - ranks[k + 1] if k < n else 0)
            blocks.extend([k] * count)
        if blocks:
            parts.append((ev if ev == 1 else -1, tuple(sorted(blocks, reverse=True))))
    return JordanType(partitions=tuple(parts))


def is_quadratic_unipotent(m: GroupElement) -> bool:
    """Nontrivial unipotent with (m - 1)^2 = m^2 - 2m + 1 = 0; stops at the
    first nonzero entry of the square."""
    p, rows = m.p, m.entries
    cols = tuple(zip(*rows))
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            if (sum(map(mul, row, col)) - 2 * row[j] + (i == j)) % p:
                return False
    return m != identity(m.n, p, m.projective)


# ---------------------------------------------------------------------------
# triple counting


def direct_triple_count(
    c1_orbit: Iterable[GroupElement],
    c2_inverse_predicate: Callable[[GroupElement], bool],
    z: GroupElement,
    c3_size: int,
) -> int:
    """Number of triples (x, y, z') in C1 x C2 x C3 with x*y*z' = 1.

    For the fixed representative z the triples with third entry z are the
    x in C1 with y = x^-1 z^-1 in C2, that is with x*z in C2^-1 (see the
    module docstring). `c2_inverse_predicate` is asked about x*z, made by
    one right-table lookup per row of x: it must test membership of the
    class of inverses C2^-1, not of C2. The class of z contributes this
    count once per member, hence the c3_size factor.
    """
    codes = _RowCodes(z.n, z.p, z.projective)
    table = codes.right(z.entries).__getitem__
    hits = 0
    for x in c1_orbit:
        if c2_inverse_predicate(codes.element(codes.canonical(tuple(map(table, x.key))))):
            hits += 1
    return c3_size * hits


# ---------------------------------------------------------------------------
# standard generators and order formulas


def sl_generators(n: int, p: int, projective: bool = False) -> List[GroupElement]:
    """Transvection plus a Weyl-style cycle; generates SL_n(p) for prime p."""
    if n < 2:
        raise ValueError("SL needs n >= 2")
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    t[0][1] = 1
    w = [[0] * n for _ in range(n)]
    sign = 1 if n % 2 == 1 else -1
    w[0][n - 1] = sign  # so that det = 1
    for i in range(1, n):
        w[i][i - 1] = 1
    return [make_element(t, p, projective), make_element(w, p, projective)]


def gl_generators(n: int, p: int, projective: bool = False) -> List[GroupElement]:
    if n < 1:
        raise ValueError("GL needs n >= 1")
    gens = sl_generators(n, p, projective) if n >= 2 else []
    g = primitive_root(p)
    d = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    d[0][0] = g
    gens.append(make_element(d, p, projective))
    return gens


def so_generators(m: int, p: int) -> List[GroupElement]:
    """Split SO_{2m}(p), p odd, preserving the antidiagonal Gram form."""
    if p == 2:
        raise ValueError("characteristic 2 orthogonal groups are out of scope")
    if m < 2:
        raise ValueError("SO_{2m} needs m >= 2")
    dim = 2 * m

    def dual(i):  # 0-based pairing i <-> dim-1-i
        return dim - 1 - i

    gens = []
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            # root e_i - e_j
            e = [[1 if a == b else 0 for b in range(dim)] for a in range(dim)]
            e[i][j] = 1
            e[dual(j)][dual(i)] = -1 % p
            gens.append(make_element(e, p))
    for i in range(m):
        for j in range(i + 1, m):
            # roots e_i + e_j and -(e_i + e_j)
            e = [[1 if a == b else 0 for b in range(dim)] for a in range(dim)]
            e[i][dual(j)] = 1
            e[j][dual(i)] = -1 % p
            gens.append(make_element(e, p))
            f = [[1 if a == b else 0 for b in range(dim)] for a in range(dim)]
            f[dual(j)][i] = 1
            f[dual(i)][j] = -1 % p
            gens.append(make_element(f, p))
    g = primitive_root(p)
    for i in range(m):
        d = [[1 if a == b else 0 for b in range(dim)] for a in range(dim)]
        d[i][i] = g
        d[dual(i)][dual(i)] = pow(g, -1, p)
        gens.append(make_element(d, p))
    # even permutation swapping two hyperbolic pairs; in SO minus Omega
    perm = list(range(dim))
    perm[0], perm[dim - 1] = perm[dim - 1], perm[0]
    perm[1], perm[dim - 2] = perm[dim - 2], perm[1]
    w = [[1 if perm[a] == b else 0 for b in range(dim)] for a in range(dim)]
    gens.append(make_element(w, p))
    return gens


def order_gl(n: int, q: int) -> int:
    total = 1
    for i in range(n):
        total *= q ** n - q ** i
    return total


def order_sl(n: int, q: int) -> int:
    return order_gl(n, q) // (q - 1)


def group_from_spec(spec: str, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Build a group from a spec string: SL(n,p), GL(n,p), SO(2m,p), PSL(2,p),
    PGL(2,p)."""
    text = spec.strip().upper().replace(" ", "")
    for kind in ("PSL", "PGL", "SL", "GL", "SO"):
        if text.startswith(kind + "(") and text.endswith(")"):
            args = text[len(kind) + 1:-1].split(",")
            if len(args) != 2:
                raise ValueError("group spec needs two arguments: %r" % spec)
            try:
                n, p = int(args[0]), int(args[1])
            except ValueError:
                raise ValueError("group spec needs integer arguments: %r"
                                 % spec) from None
            if not is_prime(p):
                raise ValueError("group spec needs a prime field: %r" % spec)
            if kind == "SL":
                gens = sl_generators(n, p)
            elif kind == "GL":
                gens = gl_generators(n, p)
            elif kind == "PSL":
                gens = sl_generators(n, p, projective=True)
            elif kind == "PGL":
                gens = gl_generators(n, p, projective=True)
            else:
                if n % 2 != 0:
                    raise ValueError("SO needs even dimension: %r" % spec)
                gens = so_generators(n // 2, p)
            return closure(gens, cap=cap, kind=kind)
    raise ValueError("unrecognized group spec %r" % spec)


def parse_generator_file(text: str, projective: bool = False) -> List[GroupElement]:
    """Generator file format: blocks of 'matrix <n> <p>' followed by n rows."""
    lines = [ln.strip() for ln in text.splitlines()]
    gens: List[GroupElement] = []
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] != "matrix" or len(fields) != 3:
            raise ValueError("expected 'matrix <n> <p>' at line %d" % i)
        n = _parse_field(fields[1], "matrix size", i)
        p = _parse_field(fields[2], "matrix modulus", i)
        if n < 1:
            raise ValueError("matrix size %d is below 1 at line %d" % (n, i))
        if not is_prime(p):
            raise ValueError("matrix modulus %d is not prime at line %d" % (p, i))
        rows = []
        while len(rows) < n:
            if i >= len(lines):
                raise ValueError("matrix block truncated at line %d" % i)
            row_line = lines[i]
            i += 1
            if not row_line or row_line.startswith("#"):
                continue
            row = [_parse_field(v, "entry %d" % (c + 1), i)
                   for c, v in enumerate(row_line.split())]
            if len(row) != n:
                raise ValueError("expected %d entries at line %d" % (n, i))
            rows.append(row)
        gens.append(make_element(rows, p, projective))
    if not gens:
        raise ValueError("generator file contains no matrices")
    return gens


def _parse_field(text: str, what: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError("%s %r is not an integer at line %d"
                         % (what, text, line)) from None


# ---------------------------------------------------------------------------
# nonexistence drivers (brute force on special linear / even orthogonal groups)


def regular_unipotent_sl(n: int, p: int) -> GroupElement:
    """Single Jordan block J_n(1)."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = 1
    return make_element(rows, p)


def sl_regular_unipotent_class_size(n: int, q: int) -> int:
    # centralizer of J_n in SL_n(q): invertible polynomials in J_n of det 1,
    # det(a0*I + nilpotent part) = a0^n, so gcd(n, q-1) choices of a0
    return order_sl(n, q) // (gcd(n, q - 1) * q ** (n - 1))


def lemma_sl_triple_count(n: int, p: int,
                          orbit_cap: int = DEFAULT_ORBIT_CAP) -> Dict[str, int]:
    """Exact count of (involution, quadratic unipotent, regular unipotent)
    triples with product 1 in SL_n(p), p odd, summed over all involution
    classes. Runs on conjugation orbits; the full group is never enumerated."""
    if p == 2 or not is_prime(p):
        raise ValueError("the field size must be an odd prime, got %d" % p)
    gens = sl_generators(n, p)
    z = regular_unipotent_sl(n, p)
    c3_size = sl_regular_unipotent_class_size(n, p)
    counts: Dict[str, int] = {}
    reps = []
    for k in range(2, n, 2):  # -1 eigenvalue multiplicity, det stays 1
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = p - 1 if i < k else 1
        reps.append((k, make_element(rows, p)))
    if n % 2 == 0:
        rows = [[p - 1 if i == j else 0 for j in range(n)] for i in range(n)]
        reps.append((n, make_element(rows, p)))
    total = 0
    for k, rep in reps:
        if k == n:
            orbit = [rep]  # central involution
        else:
            orbit = class_orbit(rep, gens, cap=orbit_cap)
        cnt = direct_triple_count(orbit, is_quadratic_unipotent, z, c3_size)
        counts["involution(-1^%d)" % k] = cnt
        total += cnt
    counts["total"] = total
    return counts


def lemma_so_triple_count(m: int, p: int,
                          cap: int = DEFAULT_CLOSURE_CAP) -> Dict[str, int]:
    """Exact count of (involution, quadratic unipotent, regular unipotent)
    triples with product 1 in SO_{2m}(p), p odd, over all involution classes
    and all regular-unipotent (partition (2m-1,1)) classes."""
    if p == 2 or not is_prime(p):
        raise ValueError("the field size must be an odd prime, got %d" % p)
    group = closure(so_generators(m, p), cap=cap, kind="SO")
    classes = conjugacy_classes(group)
    dim = 2 * m
    target = tuple([dim - 1, 1])
    regs = []
    invs = []
    for c in classes:
        if c.order == p:
            jt = jordan_type(c.rep)
            if jt.is_unipotent() and jt.partition(1) == target:
                regs.append(c)
        elif c.order == 2:
            invs.append(c)
    if not regs:
        raise ValueError("no regular unipotent class found in SO_%d(%d)" % (dim, p))
    counts: Dict[str, int] = {}
    total = 0
    for rno, reg in enumerate(regs):
        for ino, inv in enumerate(invs):
            orbit = [group.elements[i] for i in inv.indices]
            cnt = direct_triple_count(orbit, is_quadratic_unipotent, reg.rep, reg.size)
            counts["involution%d x regular%d" % (ino, rno)] = cnt
            total += cnt
    counts["total"] = total
    return counts
