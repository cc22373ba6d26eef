"""Frobenius triple counts and rigidity verdicts over a character table.

The count of (x, y, z) in C1 x C2 x C3 with xyz = 1 comes from the
classical class-algebra formula

    N = (|C1||C2||C3| / |G|) * sum over chi of chi(g1)chi(g2)chi(g3)/chi(1),

evaluated exactly in cyclotomic arithmetic. The sum over nontrivial
characters f satisfies N = (|C1||C2||C3|/|G|) (1 + f) and is the quantity
whose smallness drives rigidity arguments.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul
from typing import NamedTuple, Sequence, Tuple

from .chartable import CharacterTable, class_is_rational
from .cyclo import Cyclotomic, cyc, format_value, linear_sum


class ClassTriple(NamedTuple):
    c1: int
    c2: int
    c3: int


class InconsistentTableError(ValueError):
    pass


def _degree(no: int, row: Sequence[Cyclotomic]) -> Fraction:
    """The degree of character row `no` (0-based), which must be a
    positive integer."""
    d = row[0]
    if not d.is_rational() or d.to_rational() <= 0 or d.to_rational().denominator != 1:
        raise InconsistentTableError(
            "character row %d has degree %s, not a positive integer"
            % (no + 1, format_value(d)))
    return d.to_rational()


def _character_sum(table: CharacterTable, indices: Sequence[int]) -> Cyclotomic:
    r = len(indices)
    return linear_sum(
        (_degree(no, row) ** (2 - r), reduce(mul, map(row.__getitem__, indices)))
        for no, row in enumerate(table.rows))


def _count(table: CharacterTable, indices: Sequence[int], total: Cyclotomic) -> int:
    """(|C_1|...|C_r| / |G|) * total, checked to be a nonnegative integer."""
    scale = reduce(mul, (table.classes[j].size for j in indices), Fraction(1, table.order))
    value = cyc(scale) * total
    if not value.is_rational():
        raise InconsistentTableError(
            "triple count is irrational: %s" % format_value(value))
    rat = value.to_rational()
    if rat.denominator != 1 or rat < 0:
        raise InconsistentTableError(
            "triple count is not a nonnegative integer: %s" % rat)
    return int(rat)


def frobenius_count_multi(table: CharacterTable, indices: Sequence[int]) -> int:
    """Number of (x_1, ..., x_r) in C_1 x ... x C_r with product 1."""
    if len(indices) < 2:
        raise ValueError("need at least two classes")
    return _count(table, indices, _character_sum(table, indices))


def frobenius_count(table: CharacterTable, triple: ClassTriple) -> int:
    """Number of (x, y, z) in C1 x C2 x C3 with xyz = 1."""
    return frobenius_count_multi(table, tuple(triple))


def nontrivial_sum(table: CharacterTable, triple: ClassTriple) -> Cyclotomic:
    """Sum over nontrivial chi of chi(g1)chi(g2)chi(g3)/chi(1).

    The trivial row is located structurally (all values 1), never by
    position; it contributes exactly 1 to the sum over all rows.
    N = (|C1||C2||C3|/|G|)(1 + f) holds exactly.
    """
    table.trivial_row_index()
    return _character_sum(table, tuple(triple)) - cyc(1)


class RigidityReport(NamedTuple):
    triple: ClassTriple
    class_names: Tuple[str, str, str]
    triple_count: int
    f_value: Cyclotomic
    orbit_count_upper: Fraction
    rationality_flags: Tuple[bool, bool, bool]
    center_order: int
    generation_assumed: bool
    verdict: str  # rigid-candidate | not-rigid | indeterminate

    @property
    def rationally_rigid(self) -> bool:
        return self.verdict == "rigid-candidate" and all(self.rationality_flags)

    def machine_block(self) -> str:
        lines = [
            "N = %d" % self.triple_count,
            "f = %s" % format_value(self.f_value),
            "orbits = %s" % _fmt_frac(self.orbit_count_upper),
            "rational_c1 = %s" % _yn(self.rationality_flags[0]),
            "rational_c2 = %s" % _yn(self.rationality_flags[1]),
            "rational_c3 = %s" % _yn(self.rationality_flags[2]),
            "verdict = %s" % self.verdict,
        ]
        return "\n".join(lines)

    def text_report(self) -> str:
        lines = [
            "triple (%s, %s, %s): product-1 count N = %d"
            % (self.class_names + (self.triple_count,)),
            "nontrivial character sum f = %s" % format_value(self.f_value),
            "orbit count upper bound N/(|G|/|Z|) = %s"
            % _fmt_frac(self.orbit_count_upper),
            "class rationality: %s"
            % ", ".join("%s:%s" % (n, _yn(f))
                        for n, f in zip(self.class_names, self.rationality_flags)),
            "verdict: %s%s" % (self.verdict,
                               " (rationally rigid)" if self.rationally_rigid else ""),
            "note: generation of the full group is an external hypothesis%s"
            % (" (assumed here)" if self.generation_assumed else " (not assumed)"),
        ]
        return "\n".join(lines)


def _yn(b: bool) -> str:
    return "yes" if b else "no"


def _fmt_frac(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)


def rigidity_verdict(table: CharacterTable, triple: ClassTriple,
                     center_order: int = 1,
                     generation_assumed: bool = False) -> RigidityReport:
    """Rigidity bookkeeping for one class triple.

    The triple is a rigid candidate when the count equals |G|/|Z| and every
    product-1 triple is assumed to generate; counts other than 0 or |G|/|Z|
    rule rigidity out regardless of generation.
    """
    if center_order < 1:
        raise ValueError("center order must be positive, got %d" % center_order)
    if table.order % center_order != 0:
        raise ValueError("center order %d does not divide group order %d"
                         % (center_order, table.order))
    total = _character_sum(table, tuple(triple))
    n = _count(table, triple, total)
    table.trivial_row_index()  # f = total - 1 needs a trivial row
    target = table.order // center_order
    if n == target:  # never 0, as the target is positive
        verdict = "rigid-candidate" if generation_assumed else "indeterminate"
    else:
        verdict = "not-rigid"
    flags = tuple(class_is_rational(table, j) for j in triple)
    names = tuple(table.classes[j].name for j in triple)
    return RigidityReport(
        triple=triple,
        class_names=names,
        triple_count=n,
        f_value=total - cyc(1),
        orbit_count_upper=Fraction(n, target),
        rationality_flags=flags,
        center_order=center_order,
        generation_assumed=generation_assumed,
        verdict=verdict,
    )
