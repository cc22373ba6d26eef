import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from rigikit import dixon
from rigikit.chartable import build_table_mapped, emit_ctb, same_character_data, validate
from rigikit.cyclo import zeta
from rigikit.dixon import (
    DixonError,
    _split,
    character_table_dixon,
    character_table_dixon_mapped,
    class_constants,
    dixon_parameters,
)
from rigikit.dl_rank1 import build_family
from rigikit.rigidity import ClassTriple, frobenius_count
from rigikit.smallgrp import conjugacy_classes, group_from_spec


def test_parameters_smallest_qualifying_prime():
    # l = 1 (mod exponent), l > 2*ceil(sqrt(order)), smallest such
    ell, omega = dixon_parameters(168, 84)
    assert ell == 337
    assert pow(omega, 84, ell) == 1
    assert all(pow(omega, 84 // p, ell) != 1 for p in (2, 3, 7))
    assert dixon_parameters(120, 60)[0] == 61
    assert dixon_parameters(48, 24)[0] == 73
    assert dixon_parameters(6, 6)[0] == 7


def test_s3_table():
    t = character_table_dixon(group_from_spec("SL(2,2)"))
    assert sorted(t.rows[r][0].to_integer() for r in range(3)) == [1, 1, 2]
    assert validate(t).ok


def test_degrees_sl25_psl27():
    t = character_table_dixon(group_from_spec("SL(2,5)"))
    assert [t.rows[r][0].to_integer() for r in range(9)] == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    assert validate(t).ok
    t7 = character_table_dixon(group_from_spec("PSL(2,7)"))
    assert [t7.rows[r][0].to_integer() for r in range(6)] == [1, 3, 3, 6, 7, 8]
    assert validate(t7).ok
    # the two degree-3 rows carry values of conductor 7
    deg3 = [r for r in range(6) if t7.rows[r][0].to_integer() == 3]
    assert {max(v.conductor for v in t7.rows[r]) for r in deg3} == {7}


def _table_order(group):
    """Conjugacy classes in the order of class_constants' indices."""
    cc = conjugacy_classes(group)
    return sorted(cc, key=lambda c: (c.order != 1, c.order, c.size, c.rep.key))


def test_class_constants_identities():
    for spec in ("GL(1,3)", "SL(2,2)", "PSL(2,7)"):
        g = group_from_spec(spec)
        tensor = class_constants(g)
        sizes = [c.size for c in _table_order(g)]
        k = len(sizes)
        for i in range(k):
            for j in range(k):
                total = sum(tensor[i][j][t] * sizes[t] for t in range(k))
                assert total == sizes[i] * sizes[j]


def test_order2_group_constant():
    g = group_from_spec("GL(1,3)")
    tensor = class_constants(g)
    # classes: 0 = identity, 1 = the involution; (-1)(-1) = 1
    assert tensor[1][1][0] == 1


def test_determinism():
    a = emit_ctb(character_table_dixon(group_from_spec("SL(2,5)")))
    b = emit_ctb(character_table_dixon(group_from_spec("SL(2,5)")))
    assert a == b


def brute_triple_count(group, cls1, cls2, cls3):
    members3 = {group.elements[i].key for i in cls3.indices}
    count = 0
    for i in cls1.indices:
        x = group.elements[i]
        for j in cls2.indices:
            y = group.elements[j]
            if (x * y).inverse().key in members3:
                count += 1
    return count


def test_oracle_equivalence_randomized():
    rng = random.Random(20240607)
    for spec in ("SL(2,2)", "GL(2,3)", "SL(2,5)", "PSL(2,7)"):
        g = group_from_spec(spec)
        table, class_map = character_table_dixon_mapped(g)
        k = table.n_classes
        for _ in range(20):
            i, j, t = (rng.randrange(k) for _ in range(3))
            n_char = frobenius_count(table, ClassTriple(i, j, t))
            n_brute = brute_triple_count(g, class_map[i], class_map[j], class_map[t])
            assert n_char == n_brute, (spec, i, j, t)


def test_psl27_constant_cross_check():
    g = group_from_spec("PSL(2,7)")
    table, class_map = character_table_dixon_mapped(g)
    i2 = table.class_index("2A")
    i3 = table.class_index("3A")
    i7 = table.class_index("7A")
    n = frobenius_count(table, ClassTriple(i2, i3, i7))
    assert n == 168
    assert brute_triple_count(g, class_map[i2], class_map[i3], class_map[i7]) == 168


def test_trivial_group():
    t = character_table_dixon(group_from_spec("GL(1,2)"))
    assert t.order == 1 and t.exponent == 1
    assert validate(t).ok


def test_class_constants_against_definition(conjugated_group):
    # oracle: a[i][j][k] = #{x in C_i : x^-1 z_k in C_j}, by element products
    rng = random.Random(5)
    for kind, n, p in (("PSL", 2, 7), ("GL", 2, 3), ("SL", 2, 5), ("SO", 4, 3)):
        g = conjugated_group(kind, n, p, rng)
        classes = _table_order(g)
        k = len(classes)
        class_of = {}
        for cno, c in enumerate(classes):
            for pos in c.indices:
                class_of[g.elements[pos].key] = cno
        expected = [[[0] * k for _ in range(k)] for _ in range(k)]
        for i, c in enumerate(classes):
            for pos in c.indices:
                x_inv = g.elements[pos].inverse()
                for kk, z in enumerate(classes):
                    expected[i][class_of[(x_inv * z.rep).key]][kk] += 1
        assert class_constants(g) == expected, (kind, n, p)


def test_generic_families_and_psl2_13():
    # Dixon tables against the generic rank-1 tables and the validator
    gl25 = character_table_dixon(group_from_spec("GL(2,5)"))
    assert same_character_data(gl25, build_family("GL2", 5).table)
    sl211 = character_table_dixon(group_from_spec("SL(2,11)"))
    assert same_character_data(sl211, build_family("SL2", 11).table)
    psl213 = character_table_dixon(group_from_spec("PSL(2,13)"))
    assert psl213.order == 1092 and validate(psl213).ok
    # each value is a sum of roots of unity of its class's element order
    for t in (gl25, sl211, psl213):
        for row in t.rows:
            for v, c in zip(row, t.classes):
                assert c.order % v.conductor == 0, (t.name, c.name)


def test_cyclic_group_of_order_60_in_closed_form():
    # GL(1,61) is cyclic of order 60 with generator g: chi_a(g^b) = zeta_60^(ab),
    # at element orders up to 60, each with its own length-m inverse DFT
    class_infos = [(1, 60 // gcd(b, 60), {p: p * b % 60 for p in (2, 3, 5)})
                   for b in range(60)]
    ids = [[a * b % 60 for b in range(60)] for a in range(60)]
    values = [zeta(60, e) for e in range(60)]
    closed = build_table_mapped("C60", 60, 60, class_infos, ids, values)[0]
    assert same_character_data(character_table_dixon(group_from_spec("GL(1,61)")), closed)


def test_each_distinct_residue_tuple_is_lifted_once(monkeypatch):
    lifts = []
    from_terms = dixon.from_terms

    def counted(*args):
        lifts.append(args)
        return from_terms(*args)
    monkeypatch.setattr(dixon, "from_terms", counted)
    table = character_table_dixon(group_from_spec("GL(2,5)"))
    # 576 entries share 135 tuples (chi(x^t) mod l for t < m), one lift each
    assert len(table.rows) * len(table.classes) == 576
    assert len(lifts) == 135


# --- the eigenspace split, against sympy used only as an oracle -------------


def _dm(rows, ell):
    return DomainMatrix([[GF(ell)(v) for v in row] for row in rows],
                        (len(rows), len(rows[0])), GF(ell))


def _ints(m, ell):
    return [[int(v) % ell for v in row] for row in m.to_list()]


def _row_space(rows, ell):
    return tuple(map(tuple, _ints(_dm(rows, ell).rref()[0], ell)))


def _split_down(a, ell):
    """Row bases of the pieces that `_split` reaches, applied again to the
    restriction of a to each piece until a is scalar on every one. Each
    piece is put in reduced echelon form by sympy, and the restriction is
    read off its pivot columns P: A[t][j] = (a b_j)[P_t]."""
    pieces = _split(a, ell)
    if pieces is None:
        return [[[int(i == j) for j in range(len(a))] for i in range(len(a))]]
    assert len(pieces) > 1
    out = []
    for piece in pieces:
        echelon, pivots = _dm(piece, ell).rref()
        basis = _ints(echelon, ell)
        assert len(pivots) == len(basis)
        restricted = [[sum(x * y for x, y in zip(a[p], v)) % ell for v in basis]
                      for p in pivots]
        # the piece is invariant: a b_j = sum_t A[t][j] b_t in full
        images = [[sum(x * y for x, y in zip(row, v)) % ell for row in a] for v in basis]
        assert images == _ints(_dm(restricted, ell).transpose() * _dm(basis, ell), ell)
        for sub in _split_down(restricted, ell):
            out.append(_ints(_dm(sub, ell) * _dm(basis, ell), ell))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_split_finds_the_eigenspaces(data):
    ell = data.draw(st.sampled_from([7, 13, 61, 337]))
    d = data.draw(st.integers(1, 5))
    values = data.draw(st.lists(st.integers(0, ell - 1), min_size=1, max_size=d,
                                unique=True))
    diag = data.draw(st.lists(st.sampled_from(values), min_size=d, max_size=d))
    # P = (row permutation) L U with L unit lower and U upper triangular,
    # the diagonal of U nonzero, is invertible
    entry = st.integers(0, ell - 1)
    low = [[data.draw(entry) if j < i else int(i == j) for j in range(d)] for i in range(d)]
    up = [[data.draw(entry) if j > i else data.draw(st.integers(1, ell - 1)) if i == j
           else 0 for j in range(d)] for i in range(d)]
    lu = _ints(_dm(low, ell) * _dm(up, ell), ell)
    dm_p = _dm([lu[r] for r in data.draw(st.permutations(range(d)))], ell)
    a = _ints(dm_p * DomainMatrix.diag([GF(ell)(v) for v in diag], GF(ell))
              * dm_p.inv(), ell)
    # brute force: the nullspace of a - lambda for every lambda in GF(l)
    expected = set()
    for lam in range(ell):
        shifted = [[(v - lam * (i == j)) % ell for j, v in enumerate(row)]
                   for i, row in enumerate(a)]
        kernel = _dm(shifted, ell).nullspace()
        if kernel.shape[0]:
            expected.add(_row_space(_ints(kernel, ell), ell))
    assert len(expected) == len(set(diag))
    got = [_row_space(b, ell) for b in _split_down(a, ell)]
    assert len(got) == len(set(got)) and set(got) == expected


def test_split_of_a_scalar_matrix_is_none():
    for ell in (7, 13, 61, 337):
        for d in (1, 2, 4):
            for lam in (0, 1, ell - 1, 5):
                a = [[lam * (i == j) for j in range(d)] for i in range(d)]
                assert _split(a, ell) is None


def test_split_rejects_a_matrix_that_is_not_diagonalizable():
    for ell in (7, 13, 61, 337):
        for lam in (0, 1, 3, ell - 1):
            with pytest.raises(DixonError, match="not semisimple"):
                _split([[lam, 1], [0, lam]], ell)
    # x^2 + 1 is irreducible mod 7: no eigenvalue lies in GF(7)
    with pytest.raises(DixonError, match="not semisimple"):
        _split([[0, 6], [1, 0]], 7)
