"""Generic character tables of GL2(q), SL2(q), PGL2(q) at concrete q,
with Deligne-Lusztig virtual characters, Green functions, torus-character
sums, double-coset value formulas, and the dual-group symmetry checks.

Everything is exact. GL2 allows prime powers q >= 3; SL2 and PGL2 are
restricted to odd primes so the four half-degree SL2 characters carry the
classical quadratic Gauss sum of Q(zeta_q). PGL2 is derived from the GL2
data by factoring out the center, not written down separately.

Only the tables, their power maps and the R_{T,theta} decompositions are
written down per family. Class kinds come from element orders, torus
elements are classed through the power map, and the dual-group data are
read off the Lusztig series: the constituents of the R_{T,theta} that a
semisimple class of the dual group names.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .chartable import CharacterTable, CheckReport, CheckResult, build_table_mapped
from .cyclo import ZERO, Cyclotomic, cyc, from_terms, linear_sum, zeta
from .modp import prime_factors

Label = Tuple  # ("central", a) | ("unipotent", ...) | ("split", ...) | ("nonsplit", ...)
RowLabel = Tuple


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


def _nonsplit_reps(q: int) -> List[int]:
    """One exponent e of Z/(q^2-1) per orbit {e, qe} off (q+1)Z, in
    first-seen order: the nonsplit classes and the cuspidal rows of GL2."""
    return list(dict.fromkeys(
        _nonsplit_rep(e, q) for e in range(q * q - 1) if e % (q + 1)))


def _gl2_class_list(q: int):
    """Labels, sizes, orders, in a fixed construction order."""
    p = _characteristic(q)
    n1, n2 = q - 1, q * q - 1
    labels: List[Label] = []
    sizes: List[int] = []
    orders: List[int] = []
    for a in range(n1):
        labels.append(("central", a))
        sizes.append(1)
        orders.append(n1 // gcd(a, n1))
    for a in range(n1):
        labels.append(("unipotent", a))
        sizes.append(n2)
        orders.append(p * (n1 // gcd(a, n1)))
    for a in range(n1):
        for b in range(a + 1, n1):
            labels.append(("split", (a, b)))
            sizes.append(q * (q + 1))
            orders.append(lcm(n1 // gcd(a, n1), n1 // gcd(b, n1)))
    for r in _nonsplit_reps(q):
        labels.append(("nonsplit", r))
        sizes.append(q * (q - 1))
        orders.append(n2 // gcd(r, n2))
    return labels, sizes, orders


def _gl2_class_of_power(label: Label, r: int, q: int) -> Label:
    """Label of the class of x^r for x in the labelled class."""
    p = _characteristic(q)
    n1, n2 = q - 1, q * q - 1
    kind = label[0]
    if kind == "central":
        return ("central", (label[1] * r) % n1)
    if kind == "unipotent":
        a = label[1]
        if r % p == 0:
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
    n1 = q - 1
    out: List[RowLabel] = [("lin", k) for k in range(n1)]
    out += [("stlin", k) for k in range(n1)]
    out += [("prin", (i, j)) for i in range(n1) for j in range(i + 1, n1)]
    return out + [("cusp", r) for r in _nonsplit_reps(q)]


def _gl2_value(row: RowLabel, cls: Label, q: int) -> Cyclotomic:
    n1, n2 = q - 1, q * q - 1
    kind, rk = cls[0], row[0]
    if rk == "lin":
        k = row[1]
        if kind == "central":
            return zeta(n1, 2 * k * cls[1])
        if kind == "unipotent":
            return zeta(n1, 2 * k * cls[1])
        if kind == "split":
            a, b = cls[1]
            return zeta(n1, k * (a + b))
        return zeta(n1, k * cls[1])  # alpha(norm), norm exponent = e
    if rk == "stlin":
        k = row[1]
        if kind == "central":
            return cyc(q) * zeta(n1, 2 * k * cls[1])
        if kind == "unipotent":
            return cyc(0)
        if kind == "split":
            a, b = cls[1]
            return zeta(n1, k * (a + b))
        return -zeta(n1, k * cls[1])
    if rk == "prin":
        i, j = row[1]
        if kind == "central":
            return cyc(q + 1) * zeta(n1, (i + j) * cls[1])
        if kind == "unipotent":
            return zeta(n1, (i + j) * cls[1])
        if kind == "split":
            a, b = cls[1]
            return _root_sum(n1, i * a + j * b, j * a + i * b)
        return cyc(0)
    # cuspidal, parameter e0 with values through zeta_{q^2-1}
    e0 = row[1]
    if kind == "central":
        return cyc(q - 1) * zeta(n1, e0 * cls[1])
    if kind == "unipotent":
        return -zeta(n1, e0 * cls[1])
    if kind == "split":
        return cyc(0)
    e = cls[1]
    return -_root_sum(n2, e0 * e, e0 * e * q)


def _root_sum(n: int, a: int, b: int) -> Cyclotomic:
    """zeta_n^a + zeta_n^b, built once per pair of exponents mod n."""
    return _reduced_root_sum(n, *sorted((a % n, b % n)))


@cache
def _reduced_root_sum(n: int, a: int, b: int) -> Cyclotomic:
    return zeta(n, a) + zeta(n, b)


def _assemble(family: str, q: int, order: int, labels: List[Label],
              sizes: List[int], orders: List[int], power_label,
              row_labels: List[RowLabel], value) -> Rank1Family:
    """The canonical table of one family at q and its label maps.

    `labels`, `sizes` and `orders` list the classes and `row_labels` the
    characters, each in any order; `power_label(label, r)` labels the class
    of x^r and `value(row label, class label)` is a character value.
    """
    label_pos = {lab: i for i, lab in enumerate(labels)}
    exponent = lcm(*orders)
    primes = prime_factors(exponent)
    class_infos = [
        (size, o, {r: label_pos[power_label(lab, r)] for r in primes})
        for lab, size, o in zip(labels, sizes, orders)
    ]
    rows = [[value(rl, cl) for cl in labels] for rl in row_labels]
    table, class_order, row_order = build_table_mapped(
        "%s(%d)" % (family, q), order, exponent, class_infos, rows)
    class_labels = {new: labels[old] for new, old in enumerate(class_order)}
    return Rank1Family(
        family=family, q=q, p=_characteristic(q), table=table,
        labels=labels, power_label=power_label, class_labels=class_labels,
        label_to_class={lab: i for i, lab in class_labels.items()},
        label_to_row={row_labels[old]: new for new, old in enumerate(row_order)},
    )


def build_gl2(q: int) -> Rank1Family:
    _characteristic(q)  # a non-prime-power q is named before q < 3
    if q < 3:
        raise ValueError("GL2 needs q >= 3")
    labels, sizes, orders = _gl2_class_list(q)
    assert len(labels) == q * q - 1
    return _assemble(
        "GL2", q, q * (q - 1) * (q * q - 1), labels, sizes, orders,
        lambda lab, r: _gl2_class_of_power(lab, r, q),
        _gl2_row_labels(q), lambda row, cls: _gl2_value(row, cls, q))


# ---------------------------------------------------------------------------
# SL2(q), q an odd prime


def build_sl2(q: int) -> Rank1Family:
    p = _characteristic(q)
    if p != q or p == 2:
        raise ValueError("SL2 supports odd prime q only, got %d" % q)
    n1, n2 = q - 1, q + 1
    eps = _legendre(-1, q)
    gamma = gauss_sum(q)
    half = Fraction(1, 2)

    labels: List[Label] = [("central", 0), ("central", 1)]
    sizes = [1, 1]
    orders = [1, 2]
    for tau in ("c", "d"):
        labels.append(("unipotent", tau))
        sizes.append((q * q - 1) // 2)
        orders.append(q)
    for tau in ("c", "d"):
        labels.append(("unipotent", "z" + tau))
        sizes.append((q * q - 1) // 2)
        orders.append(2 * q)
    for l in range(1, (q - 1) // 2):
        labels.append(("split", l))
        sizes.append(q * (q + 1))
        orders.append(n1 // gcd(l, n1))
    for m in range(1, (q + 1) // 2):
        labels.append(("nonsplit", m))
        sizes.append(q * (q - 1))
        orders.append(n2 // gcd(m, n2))
    assert len(labels) == q + 4

    def unip_tau(tau: str, scalar: int) -> str:
        # multiply the transvection parameter by `scalar`
        flip = _legendre(scalar, q) == -1
        base = tau[-1]
        swapped = {"c": "d", "d": "c"}[base] if flip else base
        return swapped

    def power_label(label: Label, r: int) -> Label:
        kind = label[0]
        if kind == "central":
            return ("central", (label[1] * r) % 2)
        if kind == "unipotent":
            tau = label[1]
            has_z = tau.startswith("z")
            if r == p:
                return ("central", (1 if has_z else 0) * (r % 2))
            new_tau = unip_tau(tau, r)
            new_z = has_z and r % 2 == 1
            return ("unipotent", ("z" + new_tau) if new_z else new_tau)
        if kind == "split":
            e = _fold(label[1] * r, n1)
            if e == 0:
                return ("central", 0)
            if e == n1 // 2:
                return ("central", 1)
            return ("split", e)
        e = _fold(label[1] * r, n2)
        if e == 0:
            return ("central", 0)
        if e == n2 // 2:
            return ("central", 1)
        return ("nonsplit", e)

    row_labels: List[RowLabel] = [("triv",), ("st",)]
    for i in range(1, (q - 1) // 2):
        row_labels.append(("prin", i))
    for j in range(1, (q + 1) // 2):
        row_labels.append(("disc", j))
    row_labels += [("xi", 0), ("xi", 1), ("eta", 0), ("eta", 1)]

    def value(row: RowLabel, cls: Label) -> Cyclotomic:
        kind = row[0]
        ckind = cls[0]
        if kind == "triv":
            return cyc(1)
        if kind == "st":
            if ckind == "central":
                return cyc(q)
            if ckind == "unipotent":
                return cyc(0)
            return cyc(1) if ckind == "split" else cyc(-1)
        if kind == "prin":
            i = row[1]
            if ckind == "central":
                return cyc((q + 1) * (1 if cls[1] == 0 else (-1) ** i))
            if ckind == "unipotent":
                z_sign = (-1) ** i if cls[1].startswith("z") else 1
                return cyc(z_sign)
            if ckind == "split":
                return zeta(n1, i * cls[1]) + zeta(n1, -i * cls[1])
            return cyc(0)
        if kind == "disc":
            j = row[1]
            if ckind == "central":
                return cyc((q - 1) * (1 if cls[1] == 0 else (-1) ** j))
            if ckind == "unipotent":
                z_sign = (-1) ** j if cls[1].startswith("z") else 1
                return cyc(-z_sign)
            if ckind == "split":
                return cyc(0)
            return -(zeta(n2, j * cls[1]) + zeta(n2, -j * cls[1]))
        if kind == "xi":
            sign = 1 if row[1] == 0 else -1
            if ckind == "central":
                return cyc(Fraction(q + 1, 2) * (1 if cls[1] == 0 else eps))
            if ckind == "unipotent":
                tau = cls[1]
                zf = eps if tau.startswith("z") else 1
                gs = sign if tau.endswith("c") else -sign
                return cyc(zf) * (cyc(half) + cyc(Fraction(gs, 2)) * gamma)
            if ckind == "split":
                return cyc((-1) ** cls[1])
            return cyc(0)
        # eta
        sign = 1 if row[1] == 0 else -1
        if ckind == "central":
            return cyc(Fraction(q - 1, 2) * (1 if cls[1] == 0 else -eps))
        if ckind == "unipotent":
            tau = cls[1]
            zf = -eps if tau.startswith("z") else 1
            gs = sign if tau.endswith("c") else -sign
            return cyc(zf) * (cyc(-half) + cyc(Fraction(gs, 2)) * gamma)
        if ckind == "split":
            return cyc(0)
        return cyc(-((-1) ** cls[1]))

    return _assemble("SL2", q, q * (q * q - 1), labels, sizes, orders,
                     power_label, row_labels, value)


# ---------------------------------------------------------------------------
# PGL2(q), q an odd prime: quotient of the GL2 data by the center


def build_pgl2(q: int) -> Rank1Family:
    p = _characteristic(q)
    if p != q or p == 2:
        raise ValueError("PGL2 supports odd prime q only, got %d" % q)
    n1, n2 = q - 1, q + 1
    half1 = n1 // 2

    labels: List[Label] = [("central", 0), ("unipotent",)]
    sizes = [1, q * q - 1]
    orders = [1, p]
    for d in range(1, (q - 1) // 2 + 1):
        labels.append(("split", d))
        sizes.append(q * (q + 1) // (2 if d == half1 else 1))
        orders.append(n1 // gcd(d, n1))
    for m in range(1, (q + 1) // 2 + 1):
        labels.append(("nonsplit", m))
        sizes.append(q * (q - 1) // (2 if m == n2 // 2 else 1))
        orders.append(n2 // gcd(m, n2))
    assert len(labels) == q + 2

    def power_label(label: Label, r: int) -> Label:
        kind = label[0]
        if kind == "central":
            return label
        if kind == "unipotent":
            return ("central", 0) if r == p else label
        if kind == "split":
            e = _fold(label[1] * r, n1)
            return ("central", 0) if e == 0 else ("split", e)
        e = _fold(label[1] * r, n2)
        return ("central", 0) if e == 0 else ("nonsplit", e)

    # rows: GL2 characters with trivial central character, evaluated on
    # representatives central(0), unipotent(0), split((0,d)), nonsplit(e=m)
    row_labels: List[RowLabel] = [("triv",), ("sgn",), ("st",), ("sgnst",)]
    for i in range(1, (q - 1) // 2):
        row_labels.append(("prin", i))
    for s in range(1, (q + 1) // 2):
        row_labels.append(("cusp", s))
    assert len(row_labels) == q + 2

    def gl2_rep(cls: Label) -> Label:
        if cls[0] == "central":
            return ("central", 0)
        if cls[0] == "unipotent":
            return ("unipotent", 0)
        if cls[0] == "split":
            return ("split", (0, cls[1]))
        return ("nonsplit", _nonsplit_rep(cls[1], q))

    def gl2_row(row: RowLabel) -> RowLabel:
        if row == ("triv",):
            return ("lin", 0)
        if row == ("sgn",):
            return ("lin", half1)
        if row == ("st",):
            return ("stlin", 0)
        if row == ("sgnst",):
            return ("stlin", half1)
        if row[0] == "prin":
            i = row[1]
            return ("prin", tuple(sorted((i, (n1 - i) % n1))))
        return ("cusp", _nonsplit_rep(row[1] * n1, q))

    def value(row: RowLabel, cls: Label) -> Cyclotomic:
        return _gl2_value(gl2_row(row), gl2_rep(cls), q)

    return _assemble("PGL2", q, q * (q * q - 1), labels, sizes, orders,
                     power_label, row_labels, value)


def build_family(family: str, q: int) -> Rank1Family:
    if family == "GL2":
        return build_gl2(q)
    if family == "SL2":
        return build_sl2(q)
    if family == "PGL2":
        return build_pgl2(q)
    raise ValueError("unknown family %r (want GL2, SL2 or PGL2)" % family)


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
    n = _torus_modulus(fam, torus)
    if fam.family == "GL2" and torus == "split":
        return [(a, b) for a in range(n) for b in range(n)]
    return list(range(n))


def torus_characters(fam: Rank1Family, torus: str):
    return torus_elements(fam, torus)  # same parameter space


def _theta_exponent(fam: Rank1Family, torus: str, theta, t) -> int:
    """k with theta(t) = zeta_n^k, n the torus modulus."""
    if fam.family == "GL2" and torus == "split":
        return theta[0] * t[0] + theta[1] * t[1]
    return theta * t


def theta_value(fam: Rank1Family, torus: str, theta, t) -> Cyclotomic:
    return zeta(_torus_modulus(fam, torus), _theta_exponent(fam, torus, theta, t))


def weyl_on_torus(fam: Rank1Family, torus: str, t):
    """Action of the nontrivial Weyl element on torus parameters."""
    n = _torus_modulus(fam, torus)
    if fam.family != "GL2":
        return (-t) % n
    return (t[1], t[0]) if torus == "split" else (t * fam.q) % n


# (family, torus) -> (row kind of the regular thetas, constituents with
# coefficients at the theta of order 2); the sign of R_{T,theta} is +1 on
# the split torus and -1 on the nonsplit one
_RANK1_DL_ROWS = {
    ("SL2", "split"): ("prin", ((("xi", 0), 1), (("xi", 1), 1))),
    ("SL2", "nonsplit"): ("disc", ((("eta", 0), -1), (("eta", 1), -1))),
    ("PGL2", "split"): ("prin", ((("sgn",), 1), (("sgnst",), 1))),
    ("PGL2", "nonsplit"): ("cusp", ((("sgn",), 1), (("sgnst",), -1))),
}


def dl_character(fam: Rank1Family, torus: str, theta) -> DLCharacter:
    """Decomposition of the Deligne-Lusztig virtual character R_{T,theta}."""
    q = fam.q
    n1 = q - 1
    row = fam.label_to_row
    if fam.family == "GL2":
        if torus == "split":
            i, j = theta[0] % n1, theta[1] % n1
            if i == j:
                dec = {row[("lin", i)]: 1, row[("stlin", i)]: 1}
            else:
                dec = {row[("prin", (min(i, j), max(i, j)))]: 1}
        else:
            e = theta % (q * q - 1)
            if e % (q + 1) == 0:
                k = e // (q + 1) % n1
                dec = {row[("lin", k)]: 1, row[("stlin", k)]: -1}
            else:
                dec = {row[("cusp", _nonsplit_rep(e, q))]: -1}
        return DLCharacter(torus=torus, theta=theta, decomposition=dec)
    regular_kind, order_two = _RANK1_DL_ROWS[fam.family, torus]
    sign = 1 if torus == "split" else -1
    n = _torus_modulus(fam, torus)
    i = _fold(theta, n)
    if i == 0:
        dec = {row[("triv",)]: 1, row[("st",)]: sign}
    elif i == n // 2:
        dec = {row[lab]: c for lab, c in order_two}
    else:
        dec = {row[(regular_kind, i)]: sign}
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
        for j, alg in fam.unipotent_class_indices():
            seen = set()
            for theta in torus_characters(fam, torus):
                dl = dl_character(fam, torus, theta)
                seen.add(fam.dl_value(dl, j))
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


def torus_character_sum(fam: Rank1Family, torus: str, H, s):
    """(sum over theta in H of R_{T,theta}(s), hypothesis satisfied?).

    H is a subgroup of the torus character group, listed by its members.
    The sum vanishes whenever some theta in H is nontrivial on s.
    """
    return next(_torus_character_sums(fam, torus, H, [s]))


def _torus_character_sums(fam: Rank1Family, torus: str, H, points):
    """`torus_character_sum` at each s in points; the row multiplicities of
    sum over theta in H of R_{T,theta} do not depend on s."""
    n = _torus_modulus(fam, torus)
    multiplicity: Dict[int, int] = {}
    for theta in H:
        for row, coeff in dl_character(fam, torus, theta).decomposition.items():
            multiplicity[row] = multiplicity.get(row, 0) + coeff
    for s in points:
        j = torus_element_class(fam, torus, s)
        qualified = any(_theta_exponent(fam, torus, theta, s) % n for theta in H)
        total = linear_sum((c, fam.table.rows[r][j]) for r, c in multiplicity.items())
        yield total, qualified


def vanishing_sum_report(fam: Rank1Family) -> CheckReport:
    """Full-character-group sums vanish on every nonidentity torus element."""
    items = []
    for torus in ("split", "nonsplit"):
        H = torus_characters(fam, torus)
        points = torus_elements(fam, torus)
        for s, (total, qualified) in zip(
                points, _torus_character_sums(fam, torus, H, points)):
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
    alg = dict(fam.unipotent_class_indices()).get(class_index)
    if alg is None:
        raise ValueError("class %d is not unipotent" % class_index)

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
    for datum in dual_data(famG, famGstar):
        for j, alg in famG.unipotent_class_indices():
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
    return _coset_value(fam, s_class, datum, dl, fam.dl_value(dl, s_class))


def _coset_value(fam: Rank1Family, s_class: int, datum: DualSemisimpleDatum,
                 dl: DLCharacter, table_value: Cyclotomic) -> Cyclotomic:
    """`dl_value_via_cosets` with R_{T,theta} and its value at s_class
    already built."""
    torus, theta = dl.torus, dl.theta
    lab = fam.class_labels[s_class]
    if lab[0] not in ("central", "split", "nonsplit"):
        raise ValueError("class %s is not semisimple" % (lab,))

    if lab[0] == "central":
        s_param = _central_torus_param(fam, torus, lab)
        sign = 1 if torus == "split" else -1
        index = fam.order_pprime() // _pprime(fam.torus_order(torus), fam.p)
        rhs = cyc(sign * index) * theta_value(fam, torus, theta, s_param)
    elif lab[0] != torus:
        rhs = ZERO
    else:
        s_param = lab[1]  # split pair or nonsplit exponent
        # one double coset with index factor |W(t)| = 2, or s and its Weyl image
        w_param = s_param if datum.weyl_order == 2 else weyl_on_torus(fam, torus, s_param)
        rhs = _root_sum(_torus_modulus(fam, torus),
                        _theta_exponent(fam, torus, theta, s_param),
                        _theta_exponent(fam, torus, theta, w_param))
    if rhs != table_value:
        raise IdentityViolation(
            "double-coset value mismatch at class %s, torus %s, theta %s: "
            "formula %s, table %s"
            % (fam.table.classes[s_class].name, torus, theta, rhs, table_value))
    return rhs


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
    and all dual data, both tori (value 0 when s misses the torus)."""
    items = []
    semisimple = fam.semisimple_class_indices()
    rows = fam.table.rows
    sums: Dict[tuple, Cyclotomic] = {}  # ((c, v), ...) -> sum of c * v
    for datum in dual_data(fam, famGstar):
        for torus in ("split", "nonsplit"):
            theta = datum.theta_for(torus)
            if theta is None:
                continue
            dl = dl_character(fam, torus, theta)
            terms = dl.decomposition.items()
            prefix = "valRT_%s_%s_" % (datum.dual_label, torus)
            for j in semisimple:
                name = prefix + fam.table.classes[j].name
                key = tuple([(c, rows[r][j]) for r, c in terms])
                value = sums.get(key)
                if value is None:
                    value = sums[key] = linear_sum(key)
                try:
                    _coset_value(fam, j, datum, dl, value)
                    items.append(CheckResult(name, True))
                except IdentityViolation as exc:
                    items.append(CheckResult(name, False, str(exc)))
    return CheckReport("double-coset semisimple values", tuple(items))


# ---------------------------------------------------------------------------
# the dual symmetry of semisimple character values


def eps_centralizer(family: str, kind: str) -> int:
    """(-1)^(F-rank of the connected centralizer) of a semisimple class.

    The regular character attached to t carries this sign definitionally
    (its defining sum twists each torus term by the torus sign), so the
    regular-character symmetry identity holds with both sides decorated by
    it; the semisimple-character identity needs no decoration.
    """
    if family == "GL2":
        ranks = {"central": 2, "split": 2, "nonsplit": 1}
    else:
        ranks = {"central": 1, "split": 1, "nonsplit": 0}
    return -1 if ranks[kind] % 2 else 1


def _constituents_agree_on_semisimple(fam: Rank1Family,
                                      rows: Sequence[int]) -> bool:
    if len(rows) == 1:
        return True
    ss = fam.semisimple_class_indices()
    first = fam.table.rows[rows[0]]
    return all(
        all(fam.table.rows[r][j] == first[j] for j in ss) for r in rows[1:]
    )


def dual_symmetry_report(famG: Rank1Family, famGstar: Rank1Family,
                         regular: bool = False) -> CheckReport:
    """|C(t)|_{p'} chi_t(s) = |C(s)|_{p'} chi_s(t) over all semisimple pairs.

    chi_t is evaluated through a single constituent (constituent agreement
    on semisimple classes is asserted first); `regular` switches both sides
    to the Steinberg-twisted partners.
    """
    data_t = dual_data(famG, famGstar)
    data_s = dual_data(famGstar, famG)
    by_class_s = {d.dual_class_index: d for d in data_s}
    scaled: Dict[Tuple[int, Cyclotomic], Cyclotomic] = {}  # (c, v) -> c * v

    def scale(c: int, v: Cyclotomic) -> Cyclotomic:
        out = scaled.get((c, v))
        if out is None:
            out = scaled[c, v] = cyc(c) * v
        return out

    items: List[CheckResult] = []
    for d in data_t:
        rows = d.reg_rows if regular else d.ss_rows
        if not _constituents_agree_on_semisimple(famG, rows):
            items.append(CheckResult(
                "constituents_%s" % (d.dual_label,), False,
                "constituents differ on a semisimple class"))
    for s_class in famG.semisimple_class_indices():
        ds = by_class_s.get(s_class)
        if ds is None:
            items.append(CheckResult("pairing_s%d" % s_class, False,
                                     "no dual datum matches class %d" % s_class))
            continue
        cent_s = famG.centralizer_pprime(s_class)
        eps_s = eps_centralizer(famG.family, famG.class_labels[s_class][0]) \
            if regular else 1
        for dt in data_t:
            rows_t = dt.reg_rows if regular else dt.ss_rows
            rows_s = ds.reg_rows if regular else ds.ss_rows
            eps_t = eps_centralizer(famGstar.family, dt.dual_label[0]) \
                if regular else 1
            lhs = scale(eps_t * dt.centralizer_pprime,
                        famG.table.rows[rows_t[0]][s_class])
            rhs = scale(eps_s * cent_s,
                        famGstar.table.rows[rows_s[0]][dt.dual_class_index])
            name = "sym%s_s=%s_t=%s" % (
                "_reg" if regular else "",
                famG.table.classes[s_class].name, dt.dual_label)
            ok = lhs == rhs
            items.append(CheckResult(
                name, ok,
                "" if ok else "lhs %s, rhs %s" % (lhs, rhs)))
    title = "dual symmetry (%s)" % ("regular characters" if regular
                                    else "semisimple characters")
    return CheckReport(title, tuple(items))
