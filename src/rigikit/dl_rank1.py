"""Generic character tables of GL2(q), SL2(q), PGL2(q) at concrete q,
with Deligne-Lusztig virtual characters, Green functions, torus-character
sums, double-coset value formulas, and the dual-group symmetry checks.

Everything is exact. GL2 allows prime powers q >= 3; SL2 and PGL2 are
restricted to odd primes so the four half-degree SL2 characters carry
the classical quadratic Gauss sum of Q(zeta_q). Only GL2's classes,
values and R_{T,theta} are written down, and GL2's rows are indexed as
its classes: a linear, Steinberg, principal or cuspidal row per central,
unipotent, split or nonsplit class. On z u, z central and u = 1 or
a transvection, a GL2 character is its central character at z times its
degree or its transvection value; a Steinberg row is a linear row times
St; only the torus columns take a formula per row kind. The other two
families read theirs off the GL2 data through a map of classes and a map
of rows. SL2 is the restriction: every SL2 row is the restriction of a
GL2 row, except the two pairs of halves of the two restrictions that
split, which are told apart on the unipotent classes by the Gauss sum.
PGL2 is the quotient by the center, its classes the images of GL2's.
R_{T,theta} commutes with both, so each family's is GL2's at a lift of
theta, read through the row map.

Element orders are read off the power map, class kinds from the orders,
torus elements are classed through the power map, and the dual-group
data are read off the Lusztig series:
the constituents of the R_{T,theta} that a semisimple class of the dual
group names.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .chartable import CharacterTable, CheckReport, CheckResult, CheckRun, build_table_mapped
from .cyclo import Cyclotomic, cyc, from_terms, linear_sum, zeta
from .modp import prime_factors

Label = Tuple  # ("central", a) | ("unipotent", ...) | ("split", ...) | ("nonsplit", ...)
RowLabel = Tuple

# the most table entries (k^2 for k classes) `build_family` builds by
# default: GL2(49), k = 2400, peaks at 119 MB, about 21 bytes per entry
DEFAULT_TABLE_CAP = 8_000_000


class IdentityViolation(AssertionError):
    """An exact character identity failed; always a bug or a bad table."""


def _characteristic(q: int) -> int:
    """The prime p with q a power of p."""
    primes = prime_factors(q)
    if len(primes) != 1:
        raise ValueError("%d is not a prime power" % q)
    return primes[0]


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def gauss_sum(p: int) -> Cyclotomic:
    """sum over t of legendre(t) zeta_p^t; squares to legendre(-1) * p."""
    return from_terms(p, {t: _legendre(t, p) for t in range(1, p)})


# ---------------------------------------------------------------------------
# family container


class DLCharacter(NamedTuple):
    torus: str  # "split" | "nonsplit"
    theta: Tuple
    decomposition: Dict[int, int]  # row index -> integer coefficient


class GreenFunction(NamedTuple):
    torus: str
    values: Dict[str, int]  # algebraic unipotent label -> value


class DualSemisimpleDatum(NamedTuple):
    """One semisimple class t of the dual family and the character data of
    this family attached to it."""

    dual_label: Label
    dual_class_index: int  # class index in the dual family's table
    weyl_order: int  # |W(t)|, 1 or 2
    twist: Optional[str]  # torus type of t when W(t) = 1, else None
    centralizer_pprime: int  # p'-part of |C(t)| in the dual finite group
    ss_rows: Tuple[int, ...]  # constituents of the semisimple character
    reg_rows: Tuple[int, ...]  # constituents of the regular character
    theta_split: Optional[Tuple]
    theta_nonsplit: Optional[Tuple]

    def theta_for(self, torus: str):
        return self.theta_split if torus == "split" else self.theta_nonsplit


class Rank1Family(NamedTuple):
    family: str  # "GL2" | "SL2" | "PGL2"
    q: int
    p: int
    table: CharacterTable
    labels: List[Label]  # the builder's class labels, in its order
    power_label: Callable[[Label, int], Label]  # label of the class of x^r
    class_labels: Dict[int, Label]
    label_to_class: Dict[Label, int]
    label_to_row: Dict[RowLabel, int]
    gl2_row_to_rows: Dict[RowLabel, List[int]]  # GL2 row -> rows read off it

    @property
    def order(self) -> int:
        return self.table.order

    def order_pprime(self) -> int:
        return _pprime(self.table.order, self.p)

    def torus_order(self, torus: str) -> int:
        n = _torus_modulus(self, torus)
        return n * n if self.family == "GL2" and torus == "split" else n

    def centralizer_pprime(self, j: int) -> int:
        return _pprime(self.table.centralizer_order(j), self.p)

    def dl_value(self, dl: DLCharacter, class_index: int) -> Cyclotomic:
        return linear_sum((c, self.table.rows[r][class_index])
                          for r, c in dl.decomposition.items())

    def semisimple_class_indices(self) -> List[int]:
        """The classes of p'-order."""
        return [j for j, c in enumerate(self.table.classes) if c.order % self.p]

    def unipotent_class_indices(self) -> List[Tuple[int, str]]:
        """(class index, algebraic label) for the classes of p-power order:
        'one' at the identity, 'regular' otherwise (at rank 1 every
        nontrivial unipotent element is regular)."""
        return [(j, "one" if c.order == 1 else "regular")
                for j, c in enumerate(self.table.classes)
                if _pprime(c.order, self.p) == 1]


# ---------------------------------------------------------------------------
# GL2(q) construction (pure exponent arithmetic in Z/(q-1) and Z/(q^2-1))


def _fold(x: int, n: int) -> int:
    x %= n
    return min(x, (n - x) % n)


def _nonsplit_rep(e: int, q: int) -> int:
    n = q * q - 1
    e %= n
    return min(e, (e * q) % n)


def _gl2_class_list(q: int):
    """Labels and sizes, in a fixed construction order; a nonsplit class is
    one exponent e of Z/(q^2-1) per orbit {e, qe} off (q+1)Z, first seen."""
    n1 = q - 1
    labels: List[Label] = [("central", a) for a in range(n1)]
    labels += [("unipotent", a) for a in range(n1)]
    labels += [("split", (a, b)) for a in range(n1) for b in range(a + 1, n1)]
    labels += [("nonsplit", r) for r in dict.fromkeys(
        _nonsplit_rep(e, q) for e in range(q * q - 1) if e % (q + 1))]
    size = {"central": 1, "unipotent": q * q - 1, "split": q * (q + 1),
            "nonsplit": q * (q - 1)}
    return labels, [size[kind] for kind, _ in labels]


def _gl2_class_of_power(label: Label, r: int, q: int) -> Label:
    """Label of the class of x^r for x in the labelled class."""
    n1, n2 = q - 1, q * q - 1
    kind = label[0]
    if kind == "central":
        return ("central", (label[1] * r) % n1)
    if kind == "unipotent":
        a = label[1]
        if r % _characteristic(q) == 0:
            return ("central", (a * r) % n1)
        return ("unipotent", (a * r) % n1)
    if kind == "split":
        a, b = label[1]
        ar, br = (a * r) % n1, (b * r) % n1
        if ar == br:
            return ("central", ar)
        return ("split", (min(ar, br), max(ar, br)))
    e = (label[1] * r) % n2
    if e % (q + 1) == 0:
        return ("central", (e // (q + 1)) % n1)
    return ("nonsplit", _nonsplit_rep(e, q))


def _gl2_row_labels(q: int) -> List[RowLabel]:
    """One row per class: the row kinds lin, stlin, prin and cusp are indexed
    as the class kinds central, unipotent, split and nonsplit."""
    kind = {"central": "lin", "unipotent": "stlin", "split": "prin",
            "nonsplit": "cusp"}
    return [(kind[k], x) for k, x in _gl2_class_list(q)[0]]


ValueKey = Tuple  # (c, n, a, b): c * (zeta_n^a + zeta_n^b), or c * zeta_n^a if b is None
_ZERO_KEY: ValueKey = (0, 1, 0, None)


def _key(c: int, n: int, a: int, b: Optional[int] = None) -> ValueKey:
    """The value key of c * (zeta_n^a + zeta_n^b), or of c * zeta_n^a if b is
    None: exponents reduced mod n and sorted, every zero one key."""
    if c == 0:
        return _ZERO_KEY
    if b is None:
        return c, n, a % n, None
    return (c, n, *sorted((a % n, b % n)))


def _key_value(key: ValueKey) -> Cyclotomic:
    c, n, a, b = key
    return linear_sum((c, zeta(n, e)) for e in (a, b) if e is not None)


def _gl2_value(row: RowLabel, cls: Label, q: int) -> ValueKey:
    """The key (`_key`) of the GL2 value of the row at the class."""
    (rk, k), (kind, x) = row, cls
    if rk == "stlin":  # lin times the Steinberg character
        steinberg = {"central": q, "unipotent": 0, "split": 1, "nonsplit": -1}
        c, n, a, b = _gl2_value(("lin", k), cls, q)
        return _key(steinberg[kind] * c, n, a, b)
    if kind in ("central", "unipotent"):
        # z u, z = g^x central: the central character at z, zeta^(c x), times
        # the degree (u = 1) or the value at a transvection u
        c = 2 * k if rk == "lin" else sum(k) if rk == "prin" else k
        degree, transvection = {"lin": (1, 1), "prin": (q + 1, 1), "cusp": (q - 1, -1)}[rk]
        return _key(degree if kind == "central" else transvection, q - 1, c * x)
    if rk == "lin":  # alpha(det); a nonsplit e has det g^e
        return _key(1, q - 1, k * (sum(x) if kind == "split" else x))
    if (rk == "prin") != (kind == "split"):
        return _ZERO_KEY  # prin vanishes off the split torus, cusp off the nonsplit
    if rk == "prin":
        (i, j), (a, b) = k, x
        return _key(1, q - 1, i * a + j * b, j * a + i * b)
    return _key(-1, q * q - 1, k * x, k * x * q)


def _assemble(family: str, q: int, order: int, labels: List[Label],
              sizes: List[int], power_label, gl2_row: Dict[RowLabel, RowLabel],
              value, build=_key_value) -> Rank1Family:
    """The canonical table of one family at q and its label maps.

    `labels` and `sizes` list the classes and `gl2_row` maps each row label
    to the GL2 row it is read off, each in any order; `power_label(label,
    r)` labels the class of x^r and `value(row label, class label)` is the
    key of a character value, which `build` turns into the value, once per
    distinct key. The order of x is the least divisor r of the group order
    with x^r the identity, ("central", 0): from the group order down, each
    prime is divided out while the power stays the identity. Every prime of
    the group order divides the exponent (Cauchy).
    """
    primes = prime_factors(order)
    orders = []
    for lab in labels:
        r = order
        for ell in primes:
            while r % ell == 0 and power_label(lab, r // ell) == ("central", 0):
                r //= ell
        orders.append(r)
    row_labels = list(gl2_row)
    label_pos = {lab: i for i, lab in enumerate(labels)}
    exponent = lcm(*orders)
    class_infos = [
        (size, o, {r: label_pos[power_label(lab, r)] for r in primes})
        for lab, size, o in zip(labels, sizes, orders)
    ]
    key_id: Dict[ValueKey, int] = {}
    ids = [[key_id.setdefault(value(rl, cl), len(key_id)) for cl in labels]
           for rl in row_labels]
    table, class_order, row_order = build_table_mapped(
        "%s(%d)" % (family, q), order, exponent, class_infos, ids,
        list(map(build, key_id)))
    class_labels = {new: labels[old] for new, old in enumerate(class_order)}
    label_to_row = {row_labels[old]: new for new, old in enumerate(row_order)}
    gl2_row_to_rows: Dict[RowLabel, List[int]] = {}
    for rl in row_labels:  # builder order: xi_0 before xi_1
        gl2_row_to_rows.setdefault(gl2_row[rl], []).append(label_to_row[rl])
    return Rank1Family(
        family=family, q=q, p=_characteristic(q), table=table,
        labels=labels, power_label=power_label, class_labels=class_labels,
        label_to_class={lab: i for i, lab in class_labels.items()},
        label_to_row=label_to_row, gl2_row_to_rows=gl2_row_to_rows,
    )


def build_gl2(q: int) -> Rank1Family:
    _characteristic(q)  # a non-prime-power q is named before q < 3
    if q < 3:
        raise ValueError("GL2 needs q >= 3")
    labels, sizes = _gl2_class_list(q)
    assert len(labels) == class_count("GL2", q)
    return _assemble(
        "GL2", q, q * (q - 1) * (q * q - 1), labels, sizes,
        lambda lab, r: _gl2_class_of_power(lab, r, q),
        {rl: rl for rl in _gl2_row_labels(q)},
        lambda row, cls: _gl2_value(row, cls, q))


# ---------------------------------------------------------------------------
# SL2(q), q an odd prime: restriction of the GL2 data


def build_sl2(q: int) -> Rank1Family:
    p = _characteristic(q)
    if p != q or p == 2:
        raise ValueError("SL2 supports odd prime q only, got %d" % q)
    h = (q - 1) // 2

    labels: List[Label] = [("central", 0), ("central", 1)]
    labels += [("unipotent", z + tau) for z in ("", "z") for tau in ("c", "d")]
    labels += [("split", l) for l in range(1, h)]
    labels += [("nonsplit", m) for m in range(1, (q + 1) // 2)]
    assert len(labels) == class_count("SL2", q)

    def gl2_rep(cls: Label) -> Label:
        # the GL2 class holding the SL2 class; -1 is the scalar g^h
        kind, x = cls
        if kind == "central":
            return ("central", x * h)
        if kind == "unipotent":
            return ("unipotent", h if x[0] == "z" else 0)
        if kind == "split":
            return ("split", (x, q - 1 - x))
        return ("nonsplit", _nonsplit_rep(x * (q - 1), q))

    # sizes are GL2's; each unipotent class of GL2 splits in two
    gl2_size = dict(zip(*_gl2_class_list(q)))
    sizes = [gl2_size[gl2_rep(lab)] // (2 if lab[0] == "unipotent" else 1)
             for lab in labels]
    from_gl2 = {gl2_rep(lab): lab for lab in labels}

    def power_label(label: Label, r: int) -> Label:
        if label[0] != "unipotent" or r % p == 0:
            return from_gl2[_gl2_class_of_power(gl2_rep(label), r, q)]
        # x = +-u, u a transvection: x^r = (+-1)^r u^r, and u^r lies in the
        # class of u iff r is a square mod q
        z, tau = label[1][:-1], label[1][-1]
        if _legendre(r, q) == -1:
            tau = "d" if tau == "c" else "c"
        return ("unipotent", (z if r % 2 else "") + tau)

    # each row is the restriction of a GL2 row, halved for xi and eta
    gl2_row: Dict[RowLabel, RowLabel] = {("triv",): ("lin", 0),
                                         ("st",): ("stlin", 0)}
    gl2_row.update((("prin", i), ("prin", (0, i))) for i in range(1, h))
    gl2_row.update((("disc", j), ("cusp", _nonsplit_rep(j, q)))
                   for j in range(1, (q + 1) // 2))
    xi, eta = ("prin", (0, h)), ("cusp", _nonsplit_rep((q + 1) // 2, q))
    gl2_row.update({("xi", 0): xi, ("xi", 1): xi, ("eta", 0): eta, ("eta", 1): eta})

    # the halves differ on the unipotent classes only, by the Gauss sum:
    # (1 + gamma) / 2 or (1 - gamma) / 2 there, 1/2 elsewhere; a value's key
    # is its factor's index here and its GL2 value's key
    half = cyc(Fraction(1, 2))
    gamma = gauss_sum(q)
    factors = (cyc(1), half, half * (cyc(1) + gamma), half * (cyc(1) - gamma))

    def value(row: RowLabel, cls: Label) -> Tuple[int, ValueKey]:
        key = _gl2_value(gl2_row[row], gl2_rep(cls), q)
        if row[0] not in ("xi", "eta"):
            return 0, key
        if cls[0] != "unipotent":
            return 1, key
        # + for xi, index 0 and class c; each of eta, 1 and d flips it
        flips = (row[0] == "eta") + row[1] + (cls[1][-1] == "d")
        return 2 + flips % 2, key

    return _assemble("SL2", q, q * (q * q - 1), labels, sizes, power_label,
                     gl2_row, value, lambda key: factors[key[0]] * _key_value(key[1]))


# ---------------------------------------------------------------------------
# PGL2(q), q an odd prime: quotient of the GL2 data by the center


def build_pgl2(q: int) -> Rank1Family:
    p = _characteristic(q)
    if p != q or p == 2:
        raise ValueError("PGL2 supports odd prime q only, got %d" % q)
    n1 = q - 1
    h1 = n1 // 2

    def quotient(cls: Label) -> Label:
        # the PGL2 class of a GL2 class's image: split pairs up to scalars,
        # nonsplit exponents up to F_q^*, both up to the Weyl swap
        kind, x = cls
        if kind == "split":
            return ("split", _fold(x[1] - x[0], n1))
        if kind == "nonsplit":
            return ("nonsplit", _fold(x, q + 1))
        return ("central", 0) if kind == "central" else ("unipotent",)

    def gl2_rep(cls: Label) -> Label:
        # a GL2 class over the PGL2 class; torus parameters may be unreduced
        if cls[0] == "split":
            return ("split", (0, cls[1]))
        return cls if cls[0] == "nonsplit" else (cls[0], 0)

    sizes: Dict[Label, int] = {}  # q - 1 GL2 elements over each element
    for lab, size in zip(*_gl2_class_list(q)):
        image = quotient(lab)
        sizes[image] = sizes.get(image, 0) + size
    labels = list(sizes)
    assert len(labels) == class_count("PGL2", q)

    def power_label(label: Label, r: int) -> Label:
        return quotient(_gl2_class_of_power(gl2_rep(label), r, q))

    # rows: the GL2 characters with trivial central character
    gl2_row: Dict[RowLabel, RowLabel] = {
        ("triv",): ("lin", 0), ("sgn",): ("lin", h1),
        ("st",): ("stlin", 0), ("sgnst",): ("stlin", h1)}
    gl2_row.update((("prin", i), ("prin", (i, n1 - i))) for i in range(1, h1))
    gl2_row.update((("cusp", s), ("cusp", _nonsplit_rep(s * n1, q)))
                   for s in range(1, (q + 1) // 2))

    def value(row: RowLabel, cls: Label) -> ValueKey:
        return _gl2_value(gl2_row[row], gl2_rep(cls), q)

    return _assemble("PGL2", q, q * (q * q - 1), labels,
                     [size // n1 for size in sizes.values()],
                     power_label, gl2_row, value)


def class_count(family: str, q: int) -> int:
    """k, the number of classes (and rows) of the family's table at q."""
    return {"GL2": q * q - 1, "SL2": q + 4, "PGL2": q + 2}[family]


def build_family(family: str, q: int, cap: int = DEFAULT_TABLE_CAP) -> Rank1Family:
    """The family's table at q. A table of more than `cap` entries is
    refused with ValueError before any work, q's own checks included."""
    builders = {"GL2": build_gl2, "SL2": build_sl2, "PGL2": build_pgl2}
    if family not in builders:
        raise ValueError("unknown family %r (want GL2, SL2 or PGL2)" % family)
    k = class_count(family, q)
    if k * k > cap:
        raise ValueError("%s(%d) has k = %d classes, k^2 = %d table entries, above "
                         "the cap of %d" % (family, q, k, k * k, cap))
    return builders[family](q)


# ---------------------------------------------------------------------------
# tori: element and character bookkeeping


def _torus_modulus(fam: Rank1Family, torus: str) -> int:
    """Elements and characters of the torus are residues modulo this
    (pairs of residues for the split torus of GL2)."""
    q = fam.q
    if torus == "split":
        return q - 1
    return q * q - 1 if fam.family == "GL2" else q + 1


def torus_element_class(fam: Rank1Family, torus: str, t) -> int:
    """Class index of a torus element given by its parameter: the
    parameter is an unreduced class label, reduced as x^1."""
    return fam.label_to_class[fam.power_label((torus, t), 1)]


def torus_elements(fam: Rank1Family, torus: str):
    """The torus parameters; its characters have the same parameters."""
    n = _torus_modulus(fam, torus)
    if fam.family == "GL2" and torus == "split":
        return [(a, b) for a in range(n) for b in range(n)]
    return list(range(n))


def _theta_exponent(fam: Rank1Family, torus: str, theta, t) -> int:
    """k with theta(t) = zeta_n^k, n the torus modulus."""
    if fam.family == "GL2" and torus == "split":
        return theta[0] * t[0] + theta[1] * t[1]
    return theta * t


def weyl_on_torus(fam: Rank1Family, torus: str, t):
    """Action of the nontrivial Weyl element on torus parameters."""
    n = _torus_modulus(fam, torus)
    if fam.family != "GL2":
        return (-t) % n
    return (t[1], t[0]) if torus == "split" else (t * fam.q) % n


def _gl2_dl(q: int, torus: str, theta) -> Dict[RowLabel, int]:
    """R_{T,theta} of GL2(q) as GL2 row labels with coefficients; the sign
    is +1 on the split torus and -1 on the nonsplit one."""
    n1 = q - 1
    if torus == "split":
        i, j = theta[0] % n1, theta[1] % n1
        if i == j:
            return {("lin", i): 1, ("stlin", i): 1}
        return {("prin", (min(i, j), max(i, j))): 1}
    e = theta % (q * q - 1)
    if e % (q + 1) == 0:
        k = e // (q + 1) % n1
        return {("lin", k): 1, ("stlin", k): -1}
    return {("cusp", _nonsplit_rep(e, q)): -1}


def dl_character(fam: Rank1Family, torus: str, theta) -> DLCharacter:
    """Decomposition of the Deligne-Lusztig virtual character R_{T,theta}:
    GL2's at a lift of theta, each GL2 row replaced by the rows read off it.
    SL2's theta is folded first, so the lift's rows are in the row map."""
    lift = theta
    if fam.family == "SL2":
        i = _fold(theta, _torus_modulus(fam, torus))
        lift = (i, 0) if torus == "split" else i
    elif fam.family == "PGL2":
        lift = (theta, -theta) if torus == "split" else theta * (fam.q - 1)
    dec = {r: c for label, c in _gl2_dl(fam.q, torus, lift).items()
           for r in fam.gl2_row_to_rows[label]}
    return DLCharacter(torus=torus, theta=theta, decomposition=dec)


# ---------------------------------------------------------------------------
# theta-independence on unipotent classes, Green functions


RANK1_PSI = {
    # algebraic unipotent label -> ((power of q, (psi at 1, psi at s)), ...)
    "one": ((0, (1, 1)), (1, (1, -1))),
    "regular": ((0, (1, 1)),),
}


def theta_independence(fam: Rank1Family) -> Tuple[CheckReport, List[GreenFunction]]:
    """All R_{T,theta} agree on each unipotent class; the common values are
    the Green function of the torus, matching 1 and (q + 1 resp. 1 - q)."""
    items: List[CheckResult] = []
    greens: List[GreenFunction] = []
    for torus in ("split", "nonsplit"):
        values: Dict[str, int] = {}
        dls = [dl_character(fam, torus, theta) for theta in torus_elements(fam, torus)]
        for j, alg in fam.unipotent_class_indices():
            seen = {fam.dl_value(dl, j) for dl in dls}
            name = "valuni_%s_%s_%s" % (torus, alg, fam.table.classes[j].name)
            if len(seen) != 1:
                items.append(CheckResult(
                    name, False, "distinct values %s" % sorted(map(str, seen))))
                continue
            common = next(iter(seen))
            psi_sum = sum(
                coeff[0 if torus == "split" else 1] * fam.q ** i
                for i, coeff in RANK1_PSI[alg]
            )
            ok = common.is_integer() and common.to_integer() == psi_sum
            items.append(CheckResult(
                name, ok,
                "" if ok else "common value %s, coefficient form gives %d"
                % (common, psi_sum)))
            if ok:
                values[alg] = common.to_integer()
        greens.append(GreenFunction(torus=torus, values=values))
    return CheckReport("theta independence on unipotent classes",
                       tuple(items)), greens


# ---------------------------------------------------------------------------
# torus character sums (vanishing off common kernels)


def torus_character_sums(fam: Rank1Family, torus: str, H, points):
    """(sum over theta in H of R_{T,theta}(s), hypothesis satisfied?) at each
    s in points.

    H is a subgroup of the torus character group, listed by its members.
    The sum vanishes whenever some theta in H is nontrivial on s. The row
    multiplicities of the sum do not depend on s; at each s they are added
    per distinct value (the table's rows share one object per value) before
    one `linear_sum` over those values.
    """
    n = _torus_modulus(fam, torus)
    multiplicity: Dict[int, int] = {}
    for theta in H:
        for row, coeff in dl_character(fam, torus, theta).decomposition.items():
            multiplicity[row] = multiplicity.get(row, 0) + coeff
    rows = fam.table.rows
    for s in points:
        j = torus_element_class(fam, torus, s)
        qualified = any(_theta_exponent(fam, torus, theta, s) % n for theta in H)
        per_value: Dict[Cyclotomic, int] = {}
        for r, c in multiplicity.items():
            v = rows[r][j]
            per_value[v] = per_value.get(v, 0) + c
        yield linear_sum((c, v) for v, c in per_value.items()), qualified


def vanishing_sum_report(fam: Rank1Family) -> CheckReport:
    """Full-character-group sums vanish on every nonidentity torus element."""
    items = []
    for torus in ("split", "nonsplit"):
        H = points = torus_elements(fam, torus)  # the whole character group
        for s, (total, qualified) in zip(
                points, torus_character_sums(fam, torus, H, points)):
            if not qualified:
                continue  # s in every kernel (the identity): hypothesis fails
            name = "sum_%s_s%s" % (torus, s)
            items.append(CheckResult(name, total.is_zero(),
                                     "" if total.is_zero() else "sum %s" % total))
    return CheckReport("torus character sums vanish", tuple(items))


# ---------------------------------------------------------------------------
# dual semisimple data and the value formulas


def dual_data(famG: Rank1Family, famGstar: Rank1Family) -> List[DualSemisimpleDatum]:
    """Semisimple classes of famGstar matched to character data of famG,
    read off the Lusztig series.

    Supported dual pairs: (GL2, GL2) self-dual and (SL2, PGL2) / (PGL2, SL2)
    at the same q. A semisimple class t of famGstar, taken in the builder's
    order, names a character theta of each torus that contains it: both tori
    for a central t, its own torus otherwise. Its Lusztig series is the set
    of constituents of those R_{T,theta}: the members of least degree make
    up the semisimple character, those of greatest degree the regular one.
    Degrees against centralizer orders are asserted on the way (this is the
    symmetry identity at s = 1).
    """
    if famGstar.q != famG.q:
        raise ValueError("dual pair must share q")
    pair = (famG.family, famGstar.family)
    if pair not in (("GL2", "GL2"), ("SL2", "PGL2"), ("PGL2", "SL2")):
        raise ValueError("unsupported dual pair %s" % (pair,))
    out: List[DualSemisimpleDatum] = []
    for lab in famGstar.labels:
        kind = lab[0]
        if kind == "unipotent":
            continue
        if kind == "central":
            thetas = {torus: _central_torus_param(famGstar, torus, lab)
                      for torus in ("split", "nonsplit")}
        else:
            thetas = {kind: lab[1]}
        series: Dict[int, int] = {}  # row -> degree, in insertion order
        for torus, theta in thetas.items():
            for r in dl_character(famG, torus, theta).decomposition:
                series[r] = famG.table.rows[r][0].to_integer()
        low, high = min(series.values()), max(series.values())
        j = famGstar.label_to_class[lab]
        cent = famGstar.centralizer_pprime(j)
        if cent * low != famG.order_pprime():
            raise IdentityViolation(
                "dual matching failed at s = 1 for %s: %d * %d != %d"
                % (lab, cent, low, famG.order_pprime()))
        out.append(DualSemisimpleDatum(
            dual_label=lab, dual_class_index=j, weyl_order=len(thetas),
            twist=kind if len(thetas) == 1 else None, centralizer_pprime=cent,
            ss_rows=tuple(r for r, d in series.items() if d == low),
            reg_rows=tuple(r for r, d in series.items() if d == high),
            theta_split=thetas.get("split"),
            theta_nonsplit=thetas.get("nonsplit")))
    return out


def semisimple_value_on_unipotent(fam: Rank1Family, datum: DualSemisimpleDatum,
                                  class_index: int) -> Cyclotomic:
    """Value of the semisimple character bundle on a unipotent class,
    reproduced from the Green-function coefficients and asserted against
    the table."""
    order = fam.table.classes[class_index].order
    if _pprime(order, fam.p) != 1:
        raise ValueError("class %d is not unipotent" % class_index)
    alg = "one" if order == 1 else "regular"

    def coset_avg(psi_entry) -> Fraction:
        val1, vals = psi_entry
        if datum.weyl_order == 2:
            return Fraction(val1 + vals, 2)
        return Fraction(val1 if datum.twist == "split" else vals)

    unsigned = {}
    for lab in ("one", alg):
        unsigned[lab] = sum(
            coset_avg(coeff) * fam.q ** i for i, coeff in RANK1_PSI[lab]
        )
    sign = 1 if unsigned["one"] > 0 else -1
    predicted = sign * unsigned[alg]
    actual = linear_sum((1, fam.table.rows[r][class_index]) for r in datum.ss_rows)
    if not (actual.is_rational() and actual.to_rational() == predicted):
        raise IdentityViolation(
            "semisimple value mismatch for %s at class %s: table %s, "
            "coefficient form %s"
            % (datum.dual_label, fam.table.classes[class_index].name,
               actual, predicted))
    return actual


def unipotent_values_report(famG: Rank1Family,
                            famGstar: Rank1Family) -> CheckReport:
    """Every semisimple character's unipotent values from Green coefficients;
    the regular-unipotent value must be +1 or -1."""
    items = []
    unipotent = famG.unipotent_class_indices()
    for datum in dual_data(famG, famGstar):
        for j, alg in unipotent:
            name = "ssval_%s_%s" % (datum.dual_label, famG.table.classes[j].name)
            try:
                v = semisimple_value_on_unipotent(famG, datum, j)
            except IdentityViolation as exc:
                items.append(CheckResult(name, False, str(exc)))
                continue
            if alg == "regular":
                ok = v.is_rational() and v.to_rational() in (1, -1)
                items.append(CheckResult(name, ok,
                                         "" if ok else "value %s not +-1" % v))
            else:
                items.append(CheckResult(name, True))
    return CheckReport("semisimple values on unipotent classes", tuple(items))


def dl_value_via_cosets(fam: Rank1Family, s_class: int,
                        datum: DualSemisimpleDatum, torus: str) -> Cyclotomic:
    """R_{T,theta}(s) through the double-coset value formula, asserted
    against the decomposition value.

    The index |C^F : T^F|_{p'} carries the sign of the Deligne-Lusztig
    degree (negative for the nonsplit torus); at rank 1 the double cosets
    collapse to at most two terms.
    """
    theta = datum.theta_for(torus)
    if theta is None:
        raise ValueError("dual class %s has no torus of type %s"
                         % (datum.dual_label, torus))
    dl = dl_character(fam, torus, theta)
    formula = _key_value(_coset_key(fam, s_class, datum, dl))
    table_value = fam.dl_value(dl, s_class)
    if formula != table_value:
        raise IdentityViolation(_coset_mismatch(fam, s_class, dl, formula, table_value))
    return formula


def _coset_key(fam: Rank1Family, s_class: int, datum: DualSemisimpleDatum,
               dl: DLCharacter) -> ValueKey:
    """The value key of the double-coset formula for R_{T,theta}(s)."""
    torus, theta = dl.torus, dl.theta
    lab = fam.class_labels[s_class]
    if lab[0] not in ("central", "split", "nonsplit"):
        raise ValueError("class %s is not semisimple" % (lab,))
    n = _torus_modulus(fam, torus)
    if lab[0] == "central":
        s_param = _central_torus_param(fam, torus, lab)
        sign = 1 if torus == "split" else -1
        index = fam.order_pprime() // _pprime(fam.torus_order(torus), fam.p)
        return _key(sign * index, n, _theta_exponent(fam, torus, theta, s_param))
    if lab[0] != torus:
        return _ZERO_KEY
    s_param = lab[1]  # split pair or nonsplit exponent
    # one double coset with index factor |W(t)| = 2, or s and its Weyl image
    w_param = s_param if datum.weyl_order == 2 else weyl_on_torus(fam, torus, s_param)
    return _key(1, n, _theta_exponent(fam, torus, theta, s_param),
                _theta_exponent(fam, torus, theta, w_param))


def _coset_mismatch(fam: Rank1Family, s_class: int, dl: DLCharacter,
                    formula: Cyclotomic, table_value: Cyclotomic) -> str:
    return ("double-coset value mismatch at class %s, torus %s, theta %s: "
            "formula %s, table %s" % (fam.table.classes[s_class].name, dl.torus,
                                      dl.theta, formula, table_value))


def _pprime(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


def _central_torus_param(fam: Rank1Family, torus: str, lab: Label):
    q = fam.q
    a = lab[1]
    if fam.family == "GL2":
        return (a, a) if torus == "split" else (q + 1) * a
    if fam.family == "SL2":
        return a * (_torus_modulus(fam, torus) // 2)
    return 0  # PGL2 center is trivial


def coset_values_report(fam: Rank1Family, famGstar: Rank1Family) -> CheckReport:
    """Double-coset formula against table values for all semisimple classes
    and all dual data, both tori (value 0 when s misses the torus): one run
    per dual datum and torus over the semisimple classes. Formula and table
    values are built once per key and interned, so that equal values are
    one object."""
    semisimple = fam.semisimple_class_indices()
    names = tuple(fam.table.classes[j].name for j in semisimple)
    rows = fam.table.rows
    interned: Dict[Cyclotomic, Cyclotomic] = {}
    sums: Dict[tuple, Cyclotomic] = {}  # ((c, v), ...) -> sum of c * v
    formulas: Dict[ValueKey, Cyclotomic] = {}
    runs = []
    for datum in dual_data(fam, famGstar):
        for torus in ("split", "nonsplit"):
            theta = datum.theta_for(torus)
            if theta is None:
                continue
            dl = dl_character(fam, torus, theta)
            terms = dl.decomposition.items()
            failures: Dict[int, str] = {}
            for pos, j in enumerate(semisimple):
                key = tuple([(c, rows[r][j]) for r, c in terms])
                table_value = sums.get(key)
                if table_value is None:
                    v = linear_sum(key)
                    table_value = sums[key] = interned.setdefault(v, v)
                formula_key = _coset_key(fam, j, datum, dl)
                formula = formulas.get(formula_key)
                if formula is None:
                    v = _key_value(formula_key)
                    formula = formulas[formula_key] = interned.setdefault(v, v)
                if formula is not table_value:
                    failures[pos] = _coset_mismatch(fam, j, dl, formula, table_value)
            runs.append(CheckRun("valRT_%s_%s_" % (datum.dual_label, torus), names, failures))
    return CheckReport("double-coset semisimple values", runs)


# ---------------------------------------------------------------------------
# the dual symmetry of semisimple character values


def dual_symmetry_report(famG: Rank1Family, famGstar: Rank1Family,
                         regular: bool = False) -> CheckReport:
    """|C(t)|_{p'} chi_t(s) = |C(s)|_{p'} chi_s(t) over all semisimple pairs.

    chi_t is evaluated through a single constituent (constituent agreement
    on semisimple classes is checked first, a failure naming the first
    class where they differ); `regular` switches both sides to the
    Steinberg-twisted partners. Each s-class pairs with a dual datum, and
    gives one run over the t names. Each side is built once per (factor,
    value) and interned, so that equal sides are one object.
    """
    data_t = dual_data(famG, famGstar)
    data_s = dual_data(famGstar, famG)
    by_class_s = {d.dual_class_index: d for d in data_s}
    classes = famG.table.classes
    interned: Dict[Cyclotomic, Cyclotomic] = {}
    scaled: Dict[Tuple[int, Cyclotomic], Cyclotomic] = {}  # (c, v) -> c * v

    def scale(c: int, v: Cyclotomic) -> Cyclotomic:
        out = scaled.get((c, v))
        if out is None:
            out = cyc(c) * v
            out = scaled[c, v] = interned.setdefault(out, out)
        return out

    def rows_of(d: DualSemisimpleDatum) -> Tuple[int, ...]:
        return d.reg_rows if regular else d.ss_rows

    def eps(family: str, label: Label) -> int:
        # (-1)^(F-rank of the connected centralizer) of a semisimple class.
        # The regular character attached to t carries this sign by definition
        # (its defining sum twists each torus term by the torus sign), so the
        # regular-character identity holds with both sides decorated by it;
        # the semisimple-character identity needs no decoration. The F-rank
        # is 1 on the central and split classes, 0 on the nonsplit ones, plus
        # 1 in GL2 for its center.
        rank = (label[0] != "nonsplit") + (family == "GL2")
        return -1 if regular and rank % 2 else 1

    semisimple = famG.semisimple_class_indices()
    checks: List = []
    for d in data_t:
        first, *others = (famG.table.rows[r] for r in rows_of(d))
        differ = next(((j, row[j]) for j in semisimple for row in others
                       if row[j] != first[j]), None)
        if differ is not None:
            j, v = differ
            checks.append(CheckResult(
                "constituents_%s" % (d.dual_label,), False,
                "constituents differ on class %s: %s and %s" % (classes[j].name, first[j], v)))
    t_names = tuple(str(dt.dual_label) for dt in data_t)
    # per t: its character's row, eps * |C(t)|_{p'}, its class
    per_t = [(famG.table.rows[rows_of(dt)[0]],
              eps(famGstar.family, dt.dual_label) * dt.centralizer_pprime,
              dt.dual_class_index) for dt in data_t]
    for s_class in semisimple:
        s_name = classes[s_class].name
        ds = by_class_s.get(s_class)
        if ds is None:
            checks.append(CheckResult("pairing_s%s" % s_name, False,
                                      "no dual datum matches class %s" % s_name))
            continue
        c_s = eps(famG.family, famG.class_labels[s_class]) \
            * famG.centralizer_pprime(s_class)
        row_s = famGstar.table.rows[rows_of(ds)[0]]
        failures: Dict[int, str] = {}
        for pos, (row_t, c_t, t_class) in enumerate(per_t):
            lhs, rhs = scale(c_t, row_t[s_class]), scale(c_s, row_s[t_class])
            if lhs is not rhs:
                failures[pos] = "lhs %s, rhs %s" % (lhs, rhs)
        checks.append(CheckRun("sym%s_s=%s_t=" % ("_reg" if regular else "", s_name),
                               t_names, failures))
    title = "dual symmetry (%s)" % ("regular characters" if regular
                                    else "semisimple characters")
    return CheckReport(title, checks)
