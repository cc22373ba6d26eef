"""Concrete finite matrix groups over prime fields.

Elements are immutable matrices over GF(p), optionally taken modulo scalars
(projective groups scale so the first nonzero entry is 1). A row v has the
code sum v_i p^(n-1-i), and the `key` of an element, a canonical identity,
is the integer sum r_i P^(n-1-i) of its row codes r_i in base P = p^n: its
entries in row-major order as base-p digits, so keys order as the tuples
of their row codes do. Every element is keyed by the one row-code
kernel of its (n, p, projective), `_codes`: a `GroupElement` built from
entries takes its key from the kernel's `canonical` of its reduced rows,
and its entries from the kernel's digits; a product or an inverse, whose
`mat_mul`/`mat_inv` rows are reduced already, is coded without reducing
again. `closure`, `class_orbit` and `direct_triple_count` multiply on these
keys through lazily filled tables, the "grease" tables of Parker's
Meat-Axe (Computational Group Theory, Durham 1982): x g takes T_g[r] for
each row code r of x, where T_g[c] = code(v g). A left factor needs no
transpose: row i of g y is sum_j g_ij y_j, so a left plan maps each row of
g y from the rows of y it reads (a lone row passes through or is scaled;
several read a table keyed on their codes in base P, each entry filled
digit-wise through p x p tables of (a x + b y) % p, one per coefficient
pair). Tables grow with the rows met, never to p^n entries.
`_RowCodes.images` applies them to a whole breadth-first level of keys at
once, one row position at a time, in C-level `map`s: each row's codes are
divided out of the keys once and shared by `tee` copies read in step, so
no decoded level is held.

`closure` enumerates a group breadth-first, level by level, in a
deterministic order, and keeps the key of each position, one
right-multiplication position array per generator and its search tree
(Schreier vectors: Holt, Eick and O'Brien, Handbook of Computational Group
Theory, ch. 4). No `GroupElement` is kept per position: `elements` builds
one when it is indexed. Left multiplications are read off the tree, so
conjugacy classes run on positions; only their representatives are built,
and each one's powers are walked on row codes.

`direct_triple_count` takes no inverses: for z in C3, x^-1 z^-1 lies in C2
iff its inverse z x, and so its conjugate x z, lies in C2^-1. Quadratic
unipotents are closed under inversion, as (y^-1 - 1)^2 = y^-2 (y - 1)^2,
so the lemma drivers test x z with `is_quadratic_unipotent` itself. All
members of a class share one trace, and a unipotent one has trace n, so
the drivers state n: each x z is first summed off the row codes of x,
through one lazily filled table per row position from a code to the
diagonal digit of its image, and only the about 1 in p products of trace n
are built and tested. Modulo scalars a trace is no invariant, and none is
taken.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence as SequenceABC
from functools import cache
from itertools import chain, compress, islice, repeat, starmap, tee
from math import gcd, prod
from operator import add, floordiv, getitem, mod, mul
from typing import (
    Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple)

from .modp import (
    is_prime, mat_add_scalar, mat_det, mat_inv, mat_mul, mat_pow, mat_rank, primitive_root,
    read_int, read_lines)


class GroupTooLargeError(ValueError):
    def __init__(self, what: str, cap: int):
        super().__init__("%s exceeds the cap of %d elements" % (what, cap))
        self.cap = cap


DEFAULT_CLOSURE_CAP = 2_000_000
DEFAULT_ORBIT_CAP = 1_000_000


class GroupElement:
    """An n x n matrix over GF(p); canonical under scalars when projective.
    `make_element` builds one from entries, its kernel `_codes` from a key."""

    __slots__ = ("n", "p", "entries", "projective", "key")

    def __init__(self, codes: _RowCodes, key: int):
        self.n, self.p, self.projective, self.key = codes.n, codes.p, codes.projective, key
        self.entries = tuple(map(codes.digits.__getitem__, codes.rows(key)))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return _codes(self.n, self.p, self.projective).reduced(
            mat_mul(self.entries, other.entries, self.p))

    def inverse(self) -> "GroupElement":
        return _codes(self.n, self.p, self.projective).reduced(mat_inv(self.entries, self.p))

    def det(self) -> int:
        return mat_det(self.entries, self.p)

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and self.key == other.key and self.n == other.n
                and self.p == other.p and self.projective == other.projective)

    def __hash__(self):
        return hash((self.n, self.key))

    def __repr__(self):
        rows = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return "GroupElement[%s | GF(%d)%s]" % (
            rows, self.p, " mod scalars" if self.projective else "")


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
    held as integer keys of row codes, each product one table lookup per row."""

    def __init__(self, n: int, p: int, projective: bool):
        self.n, self.p, self.projective = n, p, projective
        self.weights = weights = tuple(p ** (n - 1 - i) for i in range(n))
        self.size = P = p ** n
        self.strides = tuple(P ** (n - 1 - i) for i in range(n))  # of row i in a key
        self.digits = _Lazy(lambda c: tuple(c // w % p for w in weights))
        self.shared = _Lazy(lambda c: c)  # one int object per row code, for table values
        # mix[a, b][x][y] = (a x + b y) % p: the digit of a v + b w where v
        # has digit x and w digit y
        self.mix = _Lazy(lambda ab: [[(ab[0] * x + ab[1] * y) % p for y in range(p)]
                                     for x in range(p)])
        # projective rescaling: c -> inverse of the first nonzero entry of its
        # row, and s -> the table c -> code(s v)
        self.lead = _Lazy(
            lambda c: pow(next((d for d in self.digits[c] if d), 1), -1, p))
        self.scaled = _Lazy(lambda s: _Lazy(
            lambda c: self.code([s * d % p for d in self.digits[c]])))

    def code(self, row: Iterable[int]) -> int:
        """The code of a row of reduced entries."""
        return sum(map(mul, self.weights, row))

    def rows(self, key: int) -> List[int]:
        """The row codes of a key."""
        return [key // w % self.size for w in self.strides]

    def row(self, level: Sequence[int], i: int) -> Iterator[int]:
        """The code of row i of every key in the level, in level order."""
        w = self.strides[i]
        codes = level if w == 1 else map(floordiv, level, repeat(w))
        return codes if i == 0 else map(mod, codes, repeat(self.size))

    def right(self, entries) -> _Lazy:
        """T[c] = code(v g) for the matrix g with these entries."""
        digits, p = self.digits, self.p
        cols = tuple(zip(*entries))
        return _Lazy(lambda c: self.code(
            [sum(map(mul, digits[c], col)) % p for col in cols]))

    def left(self, entries) -> List[Tuple[Tuple[int, ...], Optional[Callable]]]:
        """A plan for g y, one step per row of g: row i of g y is
        sum_j g_ij y_j, so a step names the rows j with g_ij != 0 and maps
        their codes to the code of row i (None passes a lone row with
        coefficient 1 through; a lone other coefficient s reads the scaled
        table; several rows read a lazy table keyed on their codes in base
        P, as in a key, filled by `combine`)."""
        plan = []
        for row in entries:
            rows = tuple(j for j, s in enumerate(row) if s)
            coeffs = tuple(row[j] for j in rows)
            if len(rows) > 1:
                step = _Lazy(self.combine(coeffs)).__getitem__
            else:
                step = None if coeffs == (1,) else self.scaled[coeffs[0]].__getitem__
            plan.append((rows, step))
        return plan

    def combine(self, coeffs: Tuple[int, ...]) -> Callable:
        """The map from the codes of rows y_1..y_m (m >= 2), in base P, to
        the code of sum_k a_k y_k, for the nonzero coefficients a_k:
        digit-wise through the mix tables of (a_1, a_2), then of (1, a_k)
        for each later row."""
        digits, code, size, m = self.digits, self.code, self.size, len(coeffs)
        mixes = [self.mix[coeffs[:2]].__getitem__]
        mixes += [self.mix[1, a].__getitem__ for a in coeffs[2:]]

        def fill(cs):  # divmod splits the commonest case, two codes, at once
            cs = divmod(cs, size) if m == 2 else [cs // w % size for w in self.strides[-m:]]
            rows = map(digits.__getitem__, cs)
            d = next(rows)
            for mix, e in zip(mixes, rows):
                d = map(getitem, map(mix, d), e)
            return self.shared[code(d)]
        return fill

    def canonical(self, key: int) -> int:
        """Modulo scalars, the key of the multiple whose first nonzero entry is 1."""
        if self.projective:  # the first nonzero row's code is the key over its stride
            s = self.lead[key // next((w for w in self.strides if key >= w), 1)]
            if s != 1:
                return sum(map(mul, self.strides, map(self.scaled[s].__getitem__, self.rows(key))))
        return key

    def images(self, level: Sequence[int], rights: Sequence[_Lazy],
               lefts: Optional[Sequence] = None) -> Iterator[Tuple[int, ...]]:
        """For every key x in the level, in level order, the canonical keys
        of x g for the right table of each g, or of h x g with each plan
        left = `left(h)`. Each row position maps the whole level through
        one table: its codes are divided out of the keys once, and every
        read of them is a `tee` copy, all read in step, so no decoded level
        is held; the keys are encoded one at a time as they are read."""
        teed = [tee(self.row(level, j), 1)[0] for j in range(self.n)]

        def step(right, js, table):  # a row of h x g from the rows js of x g
            rows = self.encode([map(right.__getitem__, teed[j].__copy__()) for j in js])
            return rows if table is None else map(table, rows)
        out = []
        for right, left in zip(rights, lefts or repeat(None)):
            plan = [((j,), None) for j in range(self.n)] if left is None else left
            keys = self.encode([step(right, js, table) for js, table in plan])
            out.append(map(self.canonical, keys) if self.projective else keys)
        teed.clear()  # every read has its copy: the unread originals would hold the level
        return zip(*out)

    def encode(self, rows: List[Iterator[int]]) -> Iterator[int]:
        """The integers with these digits in base P, most significant first."""
        keys = rows[0]
        for codes in rows[1:]:  # Horner's rule
            keys = map(add, map(mul, keys, repeat(self.size)), codes)
        return keys

    def element(self, key: int) -> GroupElement:
        """The element with this (canonical) key."""
        return GroupElement(self, key)

    def reduced(self, entries: Sequence[Sequence[int]]) -> GroupElement:
        """The element with these entries, already reduced mod p."""
        return self.element(self.canonical(sum(map(mul, self.strides, map(self.code, entries)))))


_codes = cache(_RowCodes)  # the process's one row-code kernel per (n, p, projective)


def _matrix(n: int, entries: Dict[Tuple[int, int], int]) -> List[List[int]]:
    """The n x n identity with the given (row, col): value entries set."""
    return [[entries.get((i, j), int(i == j)) for j in range(n)] for i in range(n)]


def identity(n: int, p: int, projective: bool = False) -> GroupElement:
    return make_element(_matrix(n, {}), p, projective)


def make_element(rows: Sequence[Sequence[int]], p: int,
                 projective: bool = False) -> GroupElement:
    return _codes(len(rows), p, projective).reduced([[v % p for v in row] for row in rows])


# ---------------------------------------------------------------------------
# groups


class ConjugacyClass(NamedTuple):
    rep: GroupElement
    size: int
    order: int
    indices: Tuple[int, ...]  # element indices, ascending
    powers: Tuple[int, ...]  # positions of rep^t for 0 <= t < order


class _Elements(SequenceABC):
    """A read-only view of a group's keys as elements, each `GroupElement`
    built when it is indexed."""

    __slots__ = ("keys", "element")

    def __init__(self, keys: List[int], element: Callable):
        self.keys, self.element = keys, element

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, u):
        if isinstance(u, slice):
            return list(map(self.element, self.keys[u]))
        return self.element(self.keys[u])


class FiniteGroup:
    """An enumerated group. A plain class: `conjugacy_classes` sets
    `classes` on first use, and a NamedTuple's `index` field would shadow
    `tuple.index`."""

    def __init__(self, kind: str, generators: Tuple[GroupElement, ...],
                 codes: _RowCodes, keys: List[int], index: Dict[int, int],
                 right: List[array], parent: array, via: array):
        self.kind = kind  # SL | GL | SO | PSL | PGL, or "subgroup of GL" / "subgroup of PGL"
        self.n, self.p, self.generators, self.codes = codes.n, codes.p, generators, codes
        self.keys = keys  # canonical keys by position
        self.elements = _Elements(keys, codes.element)
        self.index = index  # canonical key -> position
        # right[g][u] = position of elements[u] * generators[g]
        self.right = right
        # breadth-first tree: elements[u] = elements[parent[u]] * generators[via[u]]
        self.parent, self.via = parent, via
        self.classes: Optional[List[ConjugacyClass]] = None

    @property
    def order(self) -> int:
        return len(self.keys)

    def left(self, h: int) -> array:
        """Positions of elements[h] * elements[u] for every u, in one pass
        over the tree (position 0 holds the identity)."""
        right, parent, via = self.right, self.parent, self.via
        out = array("i", [h]) * len(self.keys)
        for u in range(1, len(out)):
            out[u] = right[via[u]][out[parent[u]]]
        return out


def closure(generators: Sequence[GroupElement], cap: int = DEFAULT_CLOSURE_CAP,
            kind: str = "GL") -> FiniteGroup:
    """Breadth-first product closure, with its multiplication arrays and
    tree, one level of keys at a time; within a level, new keys are
    numbered element by element and, per element, generator by generator.
    Generators must be invertible (classes need g^-1 in the group): a
    singular one raises ValueError."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n, p, projective = gens[0].n, gens[0].p, gens[0].projective
    for no, g in enumerate(gens):
        if (g.n, g.p, g.projective) != (n, p, projective):
            raise ValueError("generators live in different matrix groups")
        if not g.det():
            raise ValueError("generator %d is singular" % (no + 1))
    codes = _codes(n, p, projective)
    tables = [codes.right(g.entries) for g in gens]
    keys = [identity(n, p, projective).key]
    index = {keys[0]: 0}
    right = [array("i") for _ in gens]
    parent, via = array("i", [0]), array("i", [0])
    start = 0
    while start < len(keys):
        level, first = keys[start:], start
        start = len(keys)
        for u, ys in enumerate(codes.images(level, tables), first):
            for gno, y in enumerate(ys):
                v = index.get(y)
                if v is None:
                    v = index[y] = len(keys)
                    keys.append(y)
                    parent.append(u)
                    via.append(gno)
                    if len(keys) > cap:
                        raise GroupTooLargeError("group closure", cap)
                right[gno].append(v)
    return FiniteGroup(kind=kind, generators=tuple(gens), codes=codes, keys=keys,
                       index=index, right=right, parent=parent, via=via)


def conjugacy_classes(group: FiniteGroup) -> List[ConjugacyClass]:
    """Partition the enumerated group, on positions: x -> g^-1 x g is
    right[g][left(g^-1)[x]], g^-1 the position u with u g = 1.
    Representatives are enumeration-least, the only elements built. Each
    class keeps the positions of its representative's powers, walked
    through the representative's right table; `dixon` reads inverse
    classes and power maps off them."""
    if group.classes is not None:
        return group.classes
    conj = [(r, group.left(r.index(0))) for r in group.right]
    codes, keys, index, strides = group.codes, group.keys, group.index, group.codes.strides
    class_of = [-1] * len(keys)
    classes: List[ConjugacyClass] = []
    for start in range(len(keys)):
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
        rep = group.elements[start]
        table, powers, x, u = codes.right(rep.entries), [0], keys[start], start
        while u:
            powers.append(u)
            x = codes.canonical(sum(map(mul, strides, map(table.__getitem__, codes.rows(x)))))
            u = index[x]
        classes.append(ConjugacyClass(
            rep=rep, size=len(members), order=len(powers),
            indices=tuple(members), powers=tuple(powers)))
    group.classes = classes
    return classes


def class_orbit(rep: GroupElement, generators: Sequence[GroupElement],
                cap: int = DEFAULT_ORBIT_CAP) -> List[int]:
    """Keys of the conjugation orbit of rep under the group the generators
    generate, without enumerating that group, breadth first and one level
    at a time: x -> g x g^-1 for each generator g in turn."""
    codes = _codes(rep.n, rep.p, rep.projective)
    rights = [codes.right(g.inverse().entries) for g in generators]
    lefts = [codes.left(g.entries) for g in generators]
    orbit, seen = [rep.key], {rep.key}
    start = 0
    while start < len(orbit):
        level = orbit[start:]
        start = len(orbit)
        for y in chain.from_iterable(codes.images(level, rights, lefts)):
            if y not in seen:
                seen.add(y)
                orbit.append(y)
                if len(orbit) > cap:
                    raise GroupTooLargeError("conjugation orbit", cap)
    return orbit


# ---------------------------------------------------------------------------
# Jordan structure


class JordanType(NamedTuple):
    """Block partitions per eigenvalue (eigenvalues restricted to 1 and -1)."""

    partitions: Tuple[Tuple[int, Tuple[int, ...]], ...]  # (eigenvalue, blocks desc)

    def partition(self, eigenvalue: int) -> Tuple[int, ...]:
        return dict(self.partitions).get(eigenvalue, ())


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
    """Nontrivial unipotent with (m - 1)^2 = m^2 - 2m + 1 = 0; rejects a
    trace other than n at once (a unipotent matrix has trace n), then stops
    at the first nonzero entry of the square."""
    p, rows = m.p, m.entries
    if (sum(row[i] for i, row in enumerate(rows)) - m.n) % p:
        return False
    cols = tuple(zip(*rows))
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            if (sum(map(mul, row, col)) - 2 * row[j] + (i == j)) % p:
                return False
    return m != identity(m.n, p, m.projective)


# ---------------------------------------------------------------------------
# triple counting


def direct_triple_count(
    c1_orbit: Sequence[int],
    c2_inverse_predicate: Callable[[GroupElement], bool],
    z: GroupElement,
    c3_size: int,
    trace: Optional[int] = None,
) -> int:
    """Number of triples (x, y, z') in C1 x C2 x C3 with x*y*z' = 1, C1
    given by the keys of its members.

    For the fixed representative z the triples with third entry z are the
    x in C1 with y = x^-1 z^-1 in C2, that is with x*z in C2^-1 (see the
    module docstring). `c2_inverse_predicate` is asked about x*z, made by
    one right-table lookup per row of x: it must test membership of the
    class of inverses C2^-1, not of C2. The class of z contributes this
    count once per member, hence the c3_size factor.

    `trace`, when given, is the trace mod p of every member of C2^-1: a
    product x*z with another trace is rejected off the row codes of x,
    before its key or element is built. A trace is no class invariant
    modulo scalars, so a projective z with a trace raises ValueError.
    """
    if trace is not None and z.projective:
        raise ValueError("a trace is not a class invariant modulo scalars")
    codes = _codes(z.n, z.p, z.projective)
    right = codes.right(z.entries)
    if trace is not None:
        # diagonal[i][r]: the (i, i) entry of x z when row i of x has the code r
        diagonal = [_Lazy(lambda r, w=w: right[r] // w % z.p) for w in codes.weights]
        sums = map(sum, zip(*[map(d.__getitem__, codes.row(c1_orbit, i))
                              for i, d in enumerate(diagonal)]))
        hits = set(range(trace % z.p, z.n * (z.p - 1) + 1, z.p))
        c1_orbit = list(compress(c1_orbit, map(hits.__contains__, sums)))
    products = codes.images(c1_orbit, [right])
    return c3_size * sum(map(bool, map(c2_inverse_predicate, starmap(codes.element, products))))


# ---------------------------------------------------------------------------
# standard generators and order formulas


def sl_generators(n: int, p: int, projective: bool = False) -> List[GroupElement]:
    """Transvection plus a Weyl-style cycle; generates SL_n(p) for prime p."""
    if n < 2:
        raise ValueError("SL needs n >= 2")
    w = [[0] * n for _ in range(n)]
    sign = 1 if n % 2 == 1 else -1
    w[0][n - 1] = sign  # so that det = 1
    for i in range(1, n):
        w[i][i - 1] = 1
    return [make_element(_matrix(n, {(0, 1): 1}), p, projective),
            make_element(w, p, projective)]


def gl_generators(n: int, p: int, projective: bool = False) -> List[GroupElement]:
    if n < 1:
        raise ValueError("GL needs n >= 1")
    gens = sl_generators(n, p, projective) if n >= 2 else []
    g = primitive_root(p)
    gens.append(make_element(_matrix(n, {(0, 0): g}), p, projective))
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
            gens.append(make_element(
                _matrix(dim, {(i, j): 1, (dual(j), dual(i)): -1}), p))
    for i in range(m):
        for j in range(i + 1, m):
            # roots e_i + e_j and -(e_i + e_j)
            gens.append(make_element(
                _matrix(dim, {(i, dual(j)): 1, (j, dual(i)): -1}), p))
            gens.append(make_element(
                _matrix(dim, {(dual(j), i): 1, (dual(i), j): -1}), p))
    g = primitive_root(p)
    for i in range(m):
        gens.append(make_element(
            _matrix(dim, {(i, i): g, (dual(i), dual(i)): pow(g, -1, p)}), p))
    # even permutation swapping two hyperbolic pairs; in SO minus Omega
    perm = list(range(dim))
    perm[0], perm[dim - 1] = perm[dim - 1], perm[0]
    perm[1], perm[dim - 2] = perm[dim - 2], perm[1]
    w = [[1 if perm[a] == b else 0 for b in range(dim)] for a in range(dim)]
    gens.append(make_element(w, p))
    return gens


def order_gl(n: int, q: int) -> int:
    return prod(q ** n - q ** i for i in range(n))


def order_sl(n: int, q: int) -> int:
    return order_gl(n, q) // (q - 1)


def _refuse_over_cap(what: str, p_exponent: int, size: Callable[[], int], cap: int) -> None:
    """Refuse, before any work, `size()` elements of p-part p^p_exponent over
    `cap`; as p^e > cap once e >= cap.bit_length(), no huge power is formed."""
    if p_exponent >= cap.bit_length() or size() > cap:
        raise GroupTooLargeError(what, cap)


def group_from_spec(spec: str, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Build a group from a spec string: SL(n,p), GL(n,p), SO(2m,p), PSL(n,p),
    PGL(n,p); one of more than `cap` elements is refused by its order."""
    text = spec.strip().upper().replace(" ", "")
    for kind in ("PSL", "PGL", "SL", "GL", "SO"):
        if text.startswith(kind + "(") and text.endswith(")"):
            args = text[len(kind) + 1:-1].split(",")
            if len(args) != 2:
                raise ValueError("group spec needs two arguments: %r" % spec)
            try:
                n, p = read_int(args[0]), read_int(args[1])
            except ValueError:
                raise ValueError("group spec needs integer arguments: %r"
                                 % spec) from None
            if not is_prime(p):
                raise ValueError("group spec needs a prime field: %r" % spec)
            # below its least n, a kind's generators raise the error
            if kind == "SO":
                if n % 2 != 0:
                    raise ValueError("SO needs even dimension: %r" % spec)
                e = n * (n - 2) // 4  # |SO_2m| = p^(m(m-1)) (p^m - 1) prod_{i<m} (p^2i - 1)
                if n >= 4:
                    _refuse_over_cap("group " + text, e, lambda: p ** e * (p ** (n // 2) - 1)
                                     * prod(p ** i - 1 for i in range(2, n - 1, 2)), cap)
                return closure(so_generators(n // 2, p), cap=cap, kind=kind)
            special = kind.endswith("SL")
            if n >= (2 if special else 1):  # the quotient is prime to p
                quotient = (1 if kind == "GL" else p - 1) * (gcd(n, p - 1) if kind == "PSL" else 1)
                _refuse_over_cap("group " + text, n * (n - 1) // 2,
                                 lambda: order_gl(n, p) // quotient, cap)
            gens = (sl_generators if special else gl_generators)(n, p, projective=kind[0] == "P")
            return closure(gens, cap=cap, kind=kind)
    raise ValueError("unrecognized group spec %r" % spec)


def parse_generator_file(text, projective: bool = False) -> List[GroupElement]:
    """Generator file format: blocks of 'matrix <n> <p>' followed by n rows
    (str, or bytes that must be ASCII)."""
    content, n_lines = read_lines(text)
    gens: List[GroupElement] = []
    for i, line in content:
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
        for i, row_line in islice(content, n):
            row = [_parse_field(v, "entry %d" % (c + 1), i)
                   for c, v in enumerate(row_line.split())]
            if len(row) != n:
                raise ValueError("expected %d entries at line %d" % (n, i))
            rows.append(row)
        if len(rows) < n:
            raise ValueError("matrix block truncated at line %d" % n_lines)
        gens.append(make_element(rows, p, projective))
    if not gens:
        raise ValueError("generator file contains no matrices")
    return gens


def _parse_field(text: str, what: str, line: int) -> int:
    try:
        return read_int(text)
    except ValueError:
        raise ValueError("%s %r is not an integer at line %d"
                         % (what, text, line)) from None


# ---------------------------------------------------------------------------
# nonexistence drivers (brute force on special linear / even orthogonal groups)


def regular_unipotent_sl(n: int, p: int) -> GroupElement:
    """Single Jordan block J_n(1)."""
    return make_element(_matrix(n, {(i, i + 1): 1 for i in range(n - 1)}), p)


def sl_regular_unipotent_class_size(n: int, q: int) -> int:
    # centralizer of J_n in SL_n(q): invertible polynomials in J_n of det 1,
    # det(a0*I + nilpotent part) = a0^n, so gcd(n, q-1) choices of a0
    return order_sl(n, q) // (gcd(n, q - 1) * q ** (n - 1))


def lemma_sl_triple_count(n: int, p: int,
                          orbit_cap: int = DEFAULT_ORBIT_CAP) -> Dict[str, int]:
    """Exact count of (involution, quadratic unipotent, regular unipotent)
    triples with product 1 in SL_n(p), p odd, summed over all involution
    classes. Runs on conjugation orbits, each refused by its size over
    `orbit_cap`; the full group is never enumerated."""
    if p == 2 or not is_prime(p):
        raise ValueError("the field size must be an odd prime, got %d" % p)
    for k in range(2, n + 1, 2):  # the -1 eigenspace's centralizer is GL_k x GL_{n-k}
        _refuse_over_cap("involution class (-1^%d) of SL%d(%d)" % (k, n, p), k * (n - k),
                         lambda: order_gl(n, p) // (order_gl(k, p) * order_gl(n - k, p)),
                         orbit_cap)
    gens = sl_generators(n, p)
    z = regular_unipotent_sl(n, p)
    c3_size = sl_regular_unipotent_class_size(n, p)
    counts: Dict[str, int] = {}
    for k in range(2, n + 1, 2):  # k: -1 eigenvalue multiplicity, even so that det stays 1
        rep = make_element(_matrix(n, {(i, i): -1 for i in range(k)}), p)
        orbit = class_orbit(rep, gens, cap=orbit_cap)
        cnt = direct_triple_count(orbit, is_quadratic_unipotent, z, c3_size, trace=n)
        counts["involution(-1^%d)" % k] = cnt
    counts["total"] = sum(counts.values())
    return counts


def lemma_so_triple_count(m: int, p: int,
                          cap: int = DEFAULT_CLOSURE_CAP) -> Dict[str, int]:
    """Exact count of (involution, quadratic unipotent, regular unipotent)
    triples with product 1 in SO_{2m}(p), p odd, over all involution classes
    and all regular-unipotent (partition (2m-1,1)) classes."""
    if p == 2 or not is_prime(p):
        raise ValueError("the field size must be an odd prime, got %d" % p)
    group = group_from_spec("SO(%d,%d)" % (2 * m, p), cap=cap)
    classes = conjugacy_classes(group)
    dim = 2 * m
    # an element of order p is unipotent, and regular when its blocks are (2m-1, 1)
    regs = [c for c in classes if c.order == p and jordan_type(c.rep).partition(1) == (dim - 1, 1)]
    invs = [c for c in classes if c.order == 2]
    if not regs:
        raise ValueError("no regular unipotent class found in SO_%d(%d)" % (dim, p))
    counts: Dict[str, int] = {}
    for rno, reg in enumerate(regs):
        for ino, inv in enumerate(invs):
            orbit = [group.keys[i] for i in inv.indices]
            cnt = direct_triple_count(orbit, is_quadratic_unipotent, reg.rep, reg.size,
                                      trace=dim)
            counts["involution%d x regular%d" % (ino, rno)] = cnt
    counts["total"] = sum(counts.values())
    return counts
