import random
from fractions import Fraction

import pytest

from rigikit.chartable import class_is_rational
from rigikit.cyclo import cyc
from rigikit.dixon import character_table_dixon
from rigikit.rigidity import (
    ClassTriple,
    InconsistentTableError,
    frobenius_count,
    frobenius_count_multi,
    nontrivial_sum,
    rigidity_verdict,
)
from rigikit.smallgrp import group_from_spec


def table_for(spec):
    return character_table_dixon(group_from_spec(spec))


def test_s3_count_matches_enumeration_oracle():
    # direct enumeration: 3 transpositions, x != y gives a 3-cycle, so 6
    g = group_from_spec("SL(2,2)")
    from rigikit.smallgrp import conjugacy_classes

    cc = conjugacy_classes(g)
    two = next(c for c in cc if c.order == 2)
    three = next(c for c in cc if c.order == 3)
    members3 = {g.elements[i].key for i in three.indices}
    brute = sum(
        1
        for i in two.indices
        for j in two.indices
        if (g.elements[i] * g.elements[j]).inverse().key in members3
    )
    assert brute == 6

    t = table_for("SL(2,2)")
    tri = ClassTriple(t.class_index("2A"), t.class_index("2A"), t.class_index("3A"))
    assert frobenius_count(t, tri) == 6
    f = nontrivial_sum(t, tri)
    assert f == cyc(1)
    # N = (|C1||C2||C3|/|G|)(1 + f) exactly
    assert Fraction(3 * 3 * 2, 6) * (1 + f.to_rational()) == 6


def test_identity_class_forcing():
    t = table_for("PSL(2,7)")
    one = t.class_index("1A")
    for name in ("2A", "3A", "7A", "7B"):
        j = t.class_index(name)
        inv = t.inverse_class(j)
        assert frobenius_count(t, ClassTriple(one, j, inv)) == t.classes[j].size
        for other in range(t.n_classes):
            if other != inv:
                assert frobenius_count(t, ClassTriple(one, j, other)) == 0


def test_psl27_rigid_triple():
    t = table_for("PSL(2,7)")
    tri = ClassTriple(t.class_index("2A"), t.class_index("3A"), t.class_index("7A"))
    assert frobenius_count(t, tri) == 168
    assert nontrivial_sum(t, tri).is_zero()
    rep = rigidity_verdict(t, tri, center_order=1, generation_assumed=True)
    assert rep.verdict == "rigid-candidate"
    assert rep.rationality_flags == (True, True, False)
    assert not rep.rationally_rigid
    assert rep.orbit_count_upper == 1
    rep2 = rigidity_verdict(t, tri, center_order=1, generation_assumed=False)
    assert rep2.verdict == "indeterminate"


def test_zero_count_is_not_rigid():
    t = table_for("PSL(2,7)")
    # (1A, 2A, 3A): product of an involution with identity is never order 3
    tri = ClassTriple(t.class_index("1A"), t.class_index("2A"), t.class_index("3A"))
    rep = rigidity_verdict(t, tri, generation_assumed=True)
    assert rep.triple_count == 0
    assert rep.verdict == "not-rigid"
    assert nontrivial_sum(t, tri) == cyc(-1)  # forced by N = 0


def test_oversized_count_is_not_rigid():
    t = table_for("SL(2,2)")
    tri = ClassTriple(t.class_index("3A"), t.class_index("3A"), t.class_index("3A"))
    rep = rigidity_verdict(t, tri, generation_assumed=True)
    # 3-cycles: (xy)^-1 is a 3-cycle for x=y^-1 pairs only in part; count is 2*... exact from table
    assert rep.triple_count == frobenius_count(t, tri)
    assert rep.verdict == "not-rigid" or rep.triple_count in (0, 6)


def test_cyclic_and_inversion_symmetry():
    rng = random.Random(77)
    for spec in ("SL(2,2)", "GL(2,3)", "SL(2,5)", "PSL(2,7)"):
        t = table_for(spec)
        k = t.n_classes
        for _ in range(12):
            a, b, c = (rng.randrange(k) for _ in range(3))
            n = frobenius_count(t, ClassTriple(a, b, c))
            assert n == frobenius_count(t, ClassTriple(b, c, a))
            assert n == frobenius_count(t, ClassTriple(c, a, b))
            ai, bi, ci = (t.inverse_class(j) for j in (a, b, c))
            assert n == frobenius_count(t, ClassTriple(ci, bi, ai))


def test_f_rational_when_classes_rational():
    for spec in ("SL(2,2)", "GL(2,3)", "SL(2,5)"):
        t = table_for(spec)
        rng = random.Random(13)
        rational = [j for j in range(t.n_classes) if class_is_rational(t, j)]
        for _ in range(10):
            tri = ClassTriple(*(rng.choice(rational) for _ in range(3)))
            assert nontrivial_sum(t, tri).is_rational()


def test_multi_class_product_count():
    t = table_for("SL(2,2)")
    i2 = t.class_index("2A")
    i3 = t.class_index("3A")
    # four transpositions with product 1: x*y*x*y = 1 iff (xy)^2 = 1 iff x = y
    # (order-3 products have order 3): 3 choices of x times 3 of z with
    # (xz)^2=1... count via brute force below
    g = group_from_spec("SL(2,2)")
    from rigikit.smallgrp import conjugacy_classes

    cc = conjugacy_classes(g)
    two = next(c for c in cc if c.order == 2)
    elems = [g.elements[i] for i in two.indices]
    e = g.elements[0]
    brute = sum(
        1
        for x in elems
        for y in elems
        for z in elems
        for w in elems
        if x * y * z * w == e
    )
    assert frobenius_count_multi(t, (i2, i2, i2, i2)) == brute
    with pytest.raises(ValueError):
        frobenius_count_multi(t, (i2,))


def test_inconsistent_table_rejected():
    from rigikit.chartable import CharacterTable

    t = table_for("SL(2,2)")
    rows = [list(r) for r in t.rows]
    rows[2][2] = rows[2][2] + 1  # breaks integrality of counts
    bad = CharacterTable(name=t.name, order=t.order, exponent=t.exponent,
                         classes=t.classes, rows=tuple(tuple(r) for r in rows))
    tri = ClassTriple(2, 2, 2)
    with pytest.raises(InconsistentTableError):
        frobenius_count(bad, tri)


def test_center_order_must_divide():
    t = table_for("SL(2,2)")
    with pytest.raises(ValueError):
        rigidity_verdict(t, ClassTriple(0, 1, 2), center_order=5)


def test_machine_block_format():
    t = table_for("PSL(2,7)")
    tri = ClassTriple(t.class_index("2A"), t.class_index("3A"), t.class_index("7A"))
    rep = rigidity_verdict(t, tri, generation_assumed=True)
    block = rep.machine_block()
    assert block.splitlines() == [
        "N = 168",
        "f = 0",
        "orbits = 1",
        "rational_c1 = yes",
        "rational_c2 = yes",
        "rational_c3 = no",
        "verdict = rigid-candidate",
    ]
    with pytest.raises(AttributeError):
        rep.verdict = "not-rigid"
