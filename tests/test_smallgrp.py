import gc
import random
import re
import tracemalloc
from collections import Counter
from itertools import permutations, starmap
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigikit import smallgrp
from rigikit.dixon import character_table_dixon_mapped
from rigikit.modp import euler_phi
from rigikit.rigidity import ClassTriple, frobenius_count
from rigikit.smallgrp import (
    _codes,
    _matrix,
    _RowCodes,
    GroupTooLargeError,
    UnsupportedSpectrumError,
    class_orbit,
    closure,
    conjugacy_classes,
    direct_triple_count,
    gl_generators,
    group_from_spec,
    identity,
    is_quadratic_unipotent,
    jordan_type,
    lemma_sl_triple_count,
    lemma_so_triple_count,
    make_element,
    order_gl,
    order_sl,
    parse_generator_file,
    regular_unipotent_sl,
    sl_generators,
    sl_regular_unipotent_class_size,
    so_generators,
)


# --- oracles: order formulas, element orders, forms and class membership ----


def order_psl(n, q):
    return order_sl(n, q) // gcd(n, q - 1)


def order_pgl(n, q):
    return order_gl(n, q) // (q - 1)


def order_so_even_plus(m, q):
    total = q ** (m * (m - 1)) * (q ** m - 1)
    for i in range(1, m):
        total *= q ** (2 * i) - 1
    return total


def element_order(g):
    """Least k >= 1 with g^k = 1, by repeated products."""
    e = identity(g.n, g.p, g.projective)
    x, k = g, 1
    while x != e:
        x, k = x * g, k + 1
    return k


def gram_antidiagonal(dim):
    return [[1 if i + j == dim - 1 else 0 for j in range(dim)] for i in range(dim)]


def preserves_form(x, gram):
    """x^T gram x == gram over GF(p), by plain integer products."""
    n, p, a = x.n, x.p, x.entries
    left = [[sum(a[k][i] * gram[k][l] * a[l][j] for k in range(n) for l in range(n)) % p
             for j in range(n)] for i in range(n)]
    return left == gram


def class_membership_predicate(members):
    keys = {m.key for m in members}
    return lambda x: x.key in keys


def quadratic_unipotent(m):
    """m != 1 and (m - 1)^2 = 0, by plain integer products."""
    n, p = m.n, m.p
    a = [[(m.entries[i][j] - (i == j)) % p for j in range(n)] for i in range(n)]
    square = [[sum(a[i][k] * a[k][j] for k in range(n)) % p for j in range(n)]
              for i in range(n)]
    return any(map(any, a)) and not any(map(any, square))


def test_closure_orders_match_formulas():
    assert group_from_spec("SL(2,5)").order == order_sl(2, 5) == 120
    assert group_from_spec("GL(2,3)").order == order_gl(2, 3) == 48
    assert group_from_spec("PSL(2,7)").order == order_psl(2, 7) == 168
    assert group_from_spec("PGL(2,5)").order == order_pgl(2, 5) == 120
    assert group_from_spec("SO(4,3)").order == order_so_even_plus(2, 3) == 576


def test_product_is_row_by_column():
    a, b = [[1, 1], [0, 1]], [[1, 0], [1, 1]]
    for projective in (False, True):
        x, y = make_element(a, 5, projective), make_element(b, 5, projective)
        assert x * y == make_element([[2, 1], [1, 1]], 5, projective)
        assert y * x == make_element([[1, 1], [1, 2]], 5, projective)


def test_trivial_group():
    g = closure([identity(2, 3)])
    assert g.order == 1
    assert len(conjugacy_classes(g)) == 1


def test_conjugacy_class_counts():
    assert len(conjugacy_classes(group_from_spec("SL(2,5)"))) == 9
    psl = group_from_spec("PSL(2,7)")
    cc = conjugacy_classes(psl)
    assert len(cc) == 6
    assert sorted(c.size for c in cc) == [1, 21, 24, 24, 42, 56]
    assert sum(c.size for c in cc) == psl.order


def test_classes_stable_under_generator_conjugation():
    g = group_from_spec("SL(2,5)")
    cc = conjugacy_classes(g)
    rng = random.Random(5)
    for c in cc:
        members = {g.elements[i].key for i in c.indices}
        for _ in range(3):
            x = g.elements[rng.choice(c.indices)]
            for gen in g.generators:
                y = gen * x * gen.inverse()
                assert y.key in members


def test_group_closed_under_product_and_inverse():
    g = group_from_spec("GL(2,3)")
    rng = random.Random(11)
    for _ in range(60):
        a = rng.choice(g.elements)
        b = rng.choice(g.elements)
        assert (a * b).key in g.index
        assert a.inverse().key in g.index


def test_class_orbit_examples():
    # regular unipotent in SL2(3): centralizer order 6 in a group of order 24
    gens = sl_generators(2, 3)
    z = regular_unipotent_sl(2, 3)
    assert len(class_orbit(z, gens)) == 4
    # central element: orbit of size one
    center = make_element([[2, 0], [0, 2]], 3)
    assert len(class_orbit(center, gens)) == 1
    # involution in SL4(3): |SL4(3)| / |S(GL2 x GL2)(3)| = 12130560 / 1152
    gens4 = sl_generators(4, 3)
    rep = make_element([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3)
    expected = order_sl(4, 3) // (order_gl(2, 3) * order_gl(2, 3) // (3 - 1))
    assert expected == 10530
    assert len(class_orbit(rep, gens4)) == expected


def test_caps_raise():
    with pytest.raises(GroupTooLargeError):
        group_from_spec("SL(2,5)", cap=50)
    gens4 = sl_generators(4, 3)
    rep = make_element([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3)
    with pytest.raises(GroupTooLargeError):
        class_orbit(rep, gens4, cap=100)


def test_jordan_types():
    assert jordan_type(identity(4, 3)).partitions == ((1, (1, 1, 1, 1)),)
    assert jordan_type(regular_unipotent_sl(4, 3)).partitions == ((1, (4,)),)
    two_blocks = make_element(
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]], 3)
    assert jordan_type(two_blocks).partition(1) == (2, 2)
    assert is_quadratic_unipotent(two_blocks)
    assert not is_quadratic_unipotent(identity(4, 3))
    assert not is_quadratic_unipotent(regular_unipotent_sl(4, 3))
    inv = make_element([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3)
    jt = jordan_type(inv)
    assert jt.partition(1) == (1, 1) and jt.partition(-1) == (1, 1)
    assert [(ev, sum(part)) for ev, part in jt.partitions] == [(1, 2), (-1, 2)]
    with pytest.raises(UnsupportedSpectrumError):
        jordan_type(make_element([[2, 0], [0, 4]], 7))


def test_jordan_type_conjugation_invariant():
    g = group_from_spec("SL(2,5)")
    rng = random.Random(3)
    z = regular_unipotent_sl(2, 5)
    jt = jordan_type(z)
    for _ in range(10):
        h = rng.choice(g.elements)
        assert jordan_type(h * z * h.inverse()) == jt


def test_direct_triple_count_representative_independent():
    psl = group_from_spec("PSL(2,7)")
    cc = conjugacy_classes(psl)
    by_size = {c.size: c for c in cc}
    c2a, c3a = by_size[21], by_size[56]
    sevens = [c for c in cc if c.order == 7]
    orbit = [psl.keys[i] for i in c2a.indices]
    inverses = {psl.elements[i].inverse() for i in c3a.indices}
    pred = class_membership_predicate(inverses)
    rng = random.Random(9)
    for c7 in sevens:
        counts = set()
        for _ in range(3):
            rep = psl.elements[rng.choice(c7.indices)]
            counts.add(direct_triple_count(orbit, pred, rep, c7.size))
        assert counts == {168}


def test_sl_regular_unipotent_class_size_formula():
    # brute-force cross-check in SL2(3) and SL3(3)
    gens = sl_generators(2, 3)
    assert sl_regular_unipotent_class_size(2, 3) == len(
        class_orbit(regular_unipotent_sl(2, 3), gens))
    gens3 = sl_generators(3, 3)
    assert sl_regular_unipotent_class_size(3, 3) == len(
        class_orbit(regular_unipotent_sl(3, 3), gens3))


def test_so4_generators_preserve_form():
    for p in (3, 5):
        gram = gram_antidiagonal(4)
        for gen in so_generators(2, p):
            assert preserves_form(gen, gram)
            assert gen.det() == 1


def test_lemma_sl_counts_vanish():
    assert lemma_sl_triple_count(2, 3)["total"] == 0
    assert lemma_sl_triple_count(3, 3)["total"] == 0
    assert lemma_sl_triple_count(3, 5)["total"] == 0


def test_lemma_so_count_vanishes_q3():
    counts = lemma_so_triple_count(2, 3)
    assert counts["total"] == 0
    # SO4 is not simple: both partition-(3,1) classes must have been swept
    assert sum(1 for k in counts if k.startswith("involution0 x")) == 2


def test_lemma_rejects_char_2():
    with pytest.raises(ValueError):
        lemma_sl_triple_count(3, 2)
    with pytest.raises(ValueError):
        lemma_so_triple_count(2, 2)


def test_group_spec_errors():
    for bad in ("SL(2,4)", "XX(2,3)", "SO(5,3)", "SL(2)", "SL(2,6)", "GL(0,3)",
                "PGL(0,5)"):
        with pytest.raises(ValueError):
            group_from_spec(bad)
    with pytest.raises(ValueError, match=r"integer arguments: 'SL\(a,3\)'"):
        group_from_spec("SL(a,3)")
    # int() would read these as GL(2,5) and GL(2,11)
    for spec in ("GL(\u0662,5)", "GL(2,1_1)"):
        with pytest.raises(ValueError, match=re.escape("integer arguments: %r" % spec)):
            group_from_spec(spec)


class _Built(Exception):
    """Raised in place of building generators: the size check let a group pass."""


def _refuse_generators(monkeypatch):
    def built(*args, **kwargs):
        raise _Built
    for name in ("sl_generators", "gl_generators", "so_generators"):
        monkeypatch.setattr(smallgrp, name, built)


@pytest.mark.parametrize("spec", ["SL(2,5)", "SL(3,3)", "GL(1,7)", "GL(2,3)", "GL(2,5)",
                                  "PSL(2,7)", "PSL(2,11)", "PGL(2,5)", "PGL(2,7)",
                                  "SO(4,3)", "SO(4,5)", "SO(4,7)"])
def test_group_spec_closed_form_is_the_enumerated_order(monkeypatch, spec):
    # refused at one element under its order, before any generator is built,
    # and let through at its order: the closed form is the enumerated order
    order = group_from_spec(spec).order
    _refuse_generators(monkeypatch)
    with pytest.raises(GroupTooLargeError, match=re.escape("group %s exceeds the cap of %d "
                                                           % (spec, order - 1))):
        group_from_spec(spec, cap=order - 1)
    with pytest.raises(_Built):
        group_from_spec(spec, cap=order)
    if spec.startswith("SO"):  # lemma so refuses its group by the same form
        dim, p = map(int, re.findall(r"\d+", spec))
        with pytest.raises(GroupTooLargeError, match=re.escape("group %s " % spec)):
            lemma_so_triple_count(dim // 2, p, cap=order - 1)


@pytest.mark.parametrize("n,p,size", [(3, 3, 117), (3, 5, 775), (3, 7, 2793), (4, 3, 10530)])
def test_involution_class_closed_form_is_the_orbit_size(monkeypatch, n, p, size):
    rep = make_element(_matrix(n, {(0, 0): -1, (1, 1): -1}), p)
    assert len(class_orbit(rep, sl_generators(n, p))) == size
    _refuse_generators(monkeypatch)
    with pytest.raises(GroupTooLargeError, match=re.escape(
            "involution class (-1^2) of SL%d(%d) exceeds the cap of %d " % (n, p, size - 1))):
        lemma_sl_triple_count(n, p, orbit_cap=size - 1)
    with pytest.raises(_Built):
        lemma_sl_triple_count(n, p, orbit_cap=size)


def test_central_involution_orbit_is_one_key():
    # lemma sl runs -I (k = n) through class_orbit like any other class
    for n, p in ((2, 3), (4, 3), (4, 5), (6, 3)):
        rep = make_element(_matrix(n, {(i, i): -1 for i in range(n)}), p)
        assert class_orbit(rep, sl_generators(n, p)) == [rep.key]


@pytest.mark.parametrize("call", [
    lambda: group_from_spec("SL(40,3)"),
    lambda: group_from_spec("GL(1000000,3)"),
    lambda: group_from_spec("PSL(1000000,3)"),
    lambda: group_from_spec("SO(2000000,3)"),
    lambda: lemma_sl_triple_count(1000000, 3),
    lambda: lemma_so_triple_count(1000000, 3),
    lambda: lemma_so_triple_count(2, 13),
], ids=["SL40", "GL1e6", "PSL1e6", "SO2e6", "lemma-sl", "lemma-so", "lemma-so-13"])
def test_oversized_instances_are_refused_before_any_generator(monkeypatch, call):
    _refuse_generators(monkeypatch)
    with pytest.raises(GroupTooLargeError):
        call()


def test_generator_file_roundtrip():
    text = """\
# a transvection and a Weyl element
matrix 2 5
1 1
0 1
matrix 2 5
0 4
1 0
"""
    gens = parse_generator_file(text)
    assert len(gens) == 2
    assert closure(gens).order == order_sl(2, 5)
    with pytest.raises(ValueError):
        parse_generator_file("matrix 2 5\n1 1\n")
    with pytest.raises(ValueError):
        parse_generator_file("matrix 2 5\n1 1 1\n0 1\n")
    for n in (0, -1):
        with pytest.raises(ValueError, match="line 1"):
            parse_generator_file("matrix %d 3\n" % n)
    with pytest.raises(ValueError, match="singular"):
        closure(parse_generator_file("matrix 2 3\n1 1\n0 1\nmatrix 2 3\n1 0\n0 0\n"))
    for text, named in (("matrix 2 x\n1 0\n0 1\n", "modulus 'x' .* line 1"),
                        ("matrix y 5\n", "size 'y' .* line 1"),
                        ("# comment\nmatrix 2 5\n1 y\n0 1\n", "entry 2 'y' .* line 3")):
        with pytest.raises(ValueError, match=named):
            parse_generator_file(text)


def test_projective_canonicalization():
    a = make_element([[1, 1], [0, 1]], 7, projective=True)
    b = make_element([[3, 3], [0, 3]], 7, projective=True)
    assert a == b and hash(a) == hash(b)
    c = make_element([[1, 1], [0, 1]], 7, projective=False)
    assert a != c


def test_equal_keys_of_different_sizes_are_different_elements():
    # over GF(3) both keys are 28: rows (1, 0), (0, 1) are 1 * 3 + 0, 0 * 3 + 1
    # in base 9, and rows (0, 0, 0), (0, 0, 1), (0, 0, 1) are 0, 1, 1 in base 27
    two = identity(2, 3)
    three = make_element([[0, 0, 0], [0, 0, 1], [0, 0, 1]], 3)
    assert two.key == three.key == 28
    assert two != three and len({two, three}) == 2


def reduce_and_scale(rows, p, projective):
    """Oracle: the entries mod p, and mod scalars scaled by the inverse of
    the first nonzero entry in row-major order."""
    rows = [[v % p for v in row] for row in rows]
    if projective:
        s = pow(next((v for row in rows for v in row if v), 1), -1, p)
        rows = [[v * s % p for v in row] for row in rows]
    return tuple(map(tuple, rows))


def row_codes(rows, p):
    return tuple(sum(v * p ** (len(row) - 1 - i) for i, v in enumerate(row)) for row in rows)


def integer_key(rows, p):
    """Oracle: the entries in row-major order as the base-p digits of one integer."""
    flat = [v for row in rows for v in row]
    return sum(v * p ** (len(flat) - 1 - i) for i, v in enumerate(flat))


def plain_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def plain_det(a, p):
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = sign
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total % p


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_elements_match_the_reduce_and_scale_oracle(data):
    n = data.draw(st.integers(1, 4))
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
    projective = data.draw(st.booleans())
    matrix = st.lists(st.lists(st.integers(-3 * p, 3 * p), min_size=n, max_size=n),
                      min_size=n, max_size=n)
    a_rows, b_rows = data.draw(matrix), data.draw(matrix)
    a, b = make_element(a_rows, p, projective), make_element(b_rows, p, projective)
    for x, rows in ((a, a_rows), (b, b_rows)):
        assert x.entries == reduce_and_scale(rows, p, projective)
        assert x.key == integer_key(x.entries, p)
        built = _codes(n, p, projective).element(x.key)
        assert built == x and built.entries == x.entries
    product = a * b
    assert product.entries == reduce_and_scale(plain_product(a_rows, b_rows), p, projective)
    assert product.key == integer_key(product.entries, p)
    if plain_det(a_rows, p):
        inv = a.inverse()
        assert inv.entries == reduce_and_scale(inv.entries, p, projective)
        assert inv.key == integer_key(inv.entries, p)
        one = reduce_and_scale(plain_product(a_rows, inv.entries), p, projective)
        assert one == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_element_orders():
    g = make_element([[1, 1], [0, 1]], 5)
    assert element_order(g) == 5
    w = make_element([[0, 4], [1, 0]], 5)
    assert element_order(w) == 4


def _classes_by_products(group):
    """Oracle: the conjugation search on GroupElement products, x -> g x g^-1
    for each generator g; sorted position tuples in order of least member."""
    gens = [(g, g.inverse()) for g in group.generators]
    class_of = [-1] * group.order
    classes = []
    for start in range(group.order):
        if class_of[start] >= 0:
            continue
        class_of[start] = len(classes)
        members = [start]
        frontier = [group.elements[start]]
        while frontier:
            x = frontier.pop()
            for g, ginv in gens:
                pos = group.index[(g * x * ginv).key]
                if class_of[pos] < 0:
                    class_of[pos] = len(classes)
                    members.append(pos)
                    frontier.append(group.elements[pos])
        classes.append(tuple(sorted(members)))
    return classes


def test_recorded_arrays_tree_and_classes(conjugated_group):
    rng = random.Random(17)
    groups = [conjugated_group(kind, n, p, rng) for kind, n, p in
              (("PSL", 2, 7), ("GL", 2, 3), ("SL", 2, 5), ("SO", 4, 3))]
    groups.append(closure([identity(2, 3)]))
    for g in groups:
        els, index = g.elements, g.index
        assert len(g.right) == len(g.generators)
        for gen, right in zip(g.generators, g.right):
            assert list(right) == [index[(x * gen).key] for x in els]
        assert len(g.parent) == len(g.via) == g.order
        for u in range(1, g.order):
            assert g.parent[u] < u
            assert els[u] == els[g.parent[u]] * g.generators[g.via[u]]
        hs = {0, g.order - 1, *(rng.randrange(g.order) for _ in range(3))}
        hs |= {index[gen.inverse().key] for gen in g.generators}
        for h in sorted(hs):
            assert list(g.left(h)) == [index[(els[h] * x).key] for x in els]
        cc = conjugacy_classes(g)
        assert [c.indices for c in cc] == _classes_by_products(g)
        for c in cc:
            assert c.rep == els[c.indices[0]] and c.size == len(c.indices)
            assert all(element_order(els[u]) == c.order for u in c.indices)


def test_class_powers_are_the_representative_powers(conjugated_group):
    rng = random.Random(23)
    # in the abelian groups most powers are read by stride off an earlier walk
    abelian = [closure([make_element([[2]], 61)]),
               closure([make_element([[3, 0], [0, 1]], 7), make_element([[1, 0], [0, 3]], 7)])]
    for g in [conjugated_group(kind, n, p, rng) for kind, n, p in (
            ("PSL", 2, 7), ("GL", 2, 3), ("SL", 2, 5), ("SO", 4, 3))] + abelian:
        class_of = {u: c for c in conjugacy_classes(g) for u in c.indices}
        for c in conjugacy_classes(g):
            x, walked = g.elements[0], []
            for _ in range(c.order):
                walked.append(g.index[x.key])
                x = x * c.rep
            assert x == g.elements[0] and c.order == element_order(c.rep)
            assert list(c.powers) == walked
            assert class_of[c.powers[-1]] is class_of[g.index[c.rep.inverse().key]]


def test_class_orders_of_a_cyclic_group():
    # every power of the generator gets its order from one walk
    g = closure([make_element([[5, 1], [2, 0]], 257)])
    assert g.order == 1376
    orders = Counter(c.order for c in conjugacy_classes(g))
    assert orders == {d: euler_phi(d) for d in range(1, 1377) if 1376 % d == 0}


def test_a_closure_holds_one_integer_key_per_element():
    # SO(4,5), 14400 elements: a 32-byte integer key, its pointers in keys and
    # index, and 4 bytes in each of 9 position arrays come to about 120 bytes
    # an element, and the closure's traced peak is 157; row-code tuple keys
    # (88 bytes) took it to 286
    gens = so_generators(2, 5)
    gc.collect()
    tracemalloc.start()
    try:
        group = closure(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.order == 14400
    assert peak <= 180 * group.order, peak / group.order


# --- the row-code kernel against GroupElement arithmetic ---------------------


def _check_row_codes(codes, xs, g):
    """`images` of a level of elements xs against GroupElement arithmetic:
    the products x g and the conjugates g x g^-1 (right table of g^-1, left
    plan of g); and the quadratic unipotent test on every x and result
    against the plain-integer oracle."""
    products = list(starmap(codes.element, codes.images([x.key for x in xs],
                                                         [codes.right(g.entries)])))
    conjugates = list(starmap(codes.element, codes.images(
        [x.key for x in xs], [codes.right(g.inverse().entries)], [codes.left(g.entries)])))
    for x, product, conjugate in zip(xs, products, conjugates):
        assert product == x * g and product.entries == (x * g).entries
        expected = g * x * g.inverse()
        assert conjugate == expected and conjugate.entries == expected.entries
        for m in (x, product, conjugate):
            assert is_quadratic_unipotent(m) == quadratic_unipotent(m)
    assert len(products) == len(conjugates) == len(xs)


@st.composite
def invertible(draw, n, p, projective):
    """A row permutation times a unit lower and an invertible upper
    triangular factor: every invertible matrix has this form."""
    entry, unit = st.integers(0, p - 1), st.integers(1, p - 1)
    perm = draw(st.permutations(range(n)))
    factors = (
        [[int(perm[i] == j) for j in range(n)] for i in range(n)],
        [[draw(entry) if j < i else int(i == j) for j in range(n)] for i in range(n)],
        [[draw(entry) if j > i else draw(unit) if i == j else 0 for j in range(n)]
         for i in range(n)])
    x = identity(n, p, projective)
    for rows in factors:
        x = x * make_element(rows, p, projective)
    return x


def _check_keys(codes, xs, g):
    """Integer keys against row-code tuples and GroupElement arithmetic: each
    key rebuilds its element, keys order as the tuples of row codes do, and
    `images` of the level of xs under g and g^-1 at once gives the keys of
    the products x g and x g^-1."""
    for x in xs:
        built = codes.element(x.key)
        assert built == x and built.entries == x.entries
    for a in xs:
        for b in xs:
            ta, tb = row_codes(a.entries, codes.p), row_codes(b.entries, codes.p)
            assert (a.key < b.key, a.key == b.key) == (ta < tb, ta == tb)
    ginv = g.inverse()
    images = codes.images([x.key for x in xs], [codes.right(g.entries), codes.right(ginv.entries)])
    assert list(images) == [((x * g).key, (x * ginv).key) for x in xs]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_keys_round_trip_order_and_multiply(data):
    n = data.draw(st.integers(1, 4))
    p = data.draw(st.sampled_from([2, 3, 5, 7, 17]))
    projective = data.draw(st.booleans())
    entry = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    xs = [make_element(rows, p, projective)
          for rows in data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                         min_size=1, max_size=4))]
    _check_keys(_codes(n, p, projective), xs, data.draw(invertible(n, p, projective)))


def test_keys_of_gl4_17_outgrow_64_bits():
    # 16 as the first of 16 base-17 digits: no fixed-width integer holds the
    # key (mod scalars the first nonzero digit is 1, and the key stays smaller)
    for projective in (False, True):
        g = gl_generators(4, 17, projective)
        xs = [make_element(_matrix(4, {(0, 0): 16, (0, 3): 5}), 17, projective),
              g[1], g[0] * g[1]]
        assert (xs[0].key > 2 ** 63) != projective
        _check_keys(_codes(4, 17, projective), xs, g[-1])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_row_codes_match_group_elements(data):
    n = data.draw(st.integers(1, 4))
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    projective = data.draw(st.booleans())
    codes = _RowCodes(n, p, projective)
    g = data.draw(invertible(n, p, projective))
    xs = data.draw(st.lists(invertible(n, p, projective), min_size=1, max_size=3))
    if n > 1 and data.draw(st.booleans()):
        # a conjugate of 1 + E_{1n}, so that the predicate also meets its true case
        q = identity(n, p, projective).entries
        q = make_element([[v + (i == 0 and j == n - 1) for j, v in enumerate(row)]
                          for i, row in enumerate(q)], p, projective)
        xs[0] = xs[0] * q * xs[0].inverse()
        # mod scalars the rescaled conjugate is unipotent only up to a scalar
        assert projective or quadratic_unipotent(xs[0])
    _check_row_codes(codes, xs, g)


def test_left_plans_of_the_standard_generators():
    """The standard generators' rows take every branch of a left plan: a
    lone 1 passed through, a lone other coefficient (scaled table), and
    two nonzero entries (table keyed on two row codes)."""
    rng = random.Random(29)
    steps = set()
    for n, p, projective in ((2, 5, False), (3, 7, False), (3, 7, True), (2, 3, True)):
        codes = _RowCodes(n, p, projective)
        gens = gl_generators(n, p, projective)
        xs = [gens[0]] + [make_element([[rng.randrange(p) for _ in range(n)]
                                        for _ in range(n)], p, projective)
                          for _ in range(5)]
        for g in gens:
            steps |= {(len(rows), step is None) for rows, step in codes.left(g.entries)}
            _check_row_codes(codes, xs, g)
    codes = _RowCodes(4, 5, False)
    for g in so_generators(2, 5):
        steps |= {(len(rows), step is None) for rows, step in codes.left(g.entries)}
        _check_row_codes(codes, [regular_unipotent_sl(4, 5)] + so_generators(2, 5), g)
    assert steps == {(1, True), (1, False), (2, False)}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_left_steps_match_the_reduce_and_combine_oracle(data):
    """A left step on the codes of rows y_j, several of them read as one
    integer in base p^n, gives the code of sum_j a_j y_j reduced mod p, for
    1 to n nonzero coefficients a_j."""
    n = data.draw(st.integers(2, 4))
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    m = data.draw(st.integers(1, n))
    row = [0] * n
    for j in data.draw(st.permutations(range(n)))[:m]:
        row[j] = data.draw(st.integers(1, p - 1))
    digit = st.integers(0, p - 1)
    ys = data.draw(st.lists(st.lists(digit, min_size=n, max_size=n), min_size=n, max_size=n))
    codes = _RowCodes(n, p, data.draw(st.booleans()))
    (rows, step), = codes.left([row])
    assert rows == tuple(j for j in range(n) if row[j])
    ins = [row_codes(ys, p)[j] for j in rows]
    arg = sum(c * p ** (n * (m - 1 - k)) for k, c in enumerate(ins))  # base p^n
    expected, = row_codes([[sum(row[j] * y[i] for j, y in enumerate(ys)) % p
                            for i in range(n)]], p)
    assert (arg if step is None else step(arg)) == expected
    if step is not None:
        assert step(arg) == expected  # read back from the filled table


def test_row_codes_on_conjugated_groups(conjugated_group):
    rng = random.Random(23)
    for kind, n, p in (("PSL", 2, 7), ("PSL", 2, 13), ("GL", 2, 3), ("SO", 4, 3)):
        g = conjugated_group(kind, n, p, rng)
        codes = _RowCodes(n, p, kind == "PSL")
        others = list(g.generators) + rng.sample(g.elements, 2)
        xs = rng.sample(g.elements, min(g.order, 200))
        for h in others:
            _check_row_codes(codes, xs, h)


def _closure_one_at_a_time(gens):
    """Oracle: the breadth-first closure one element at a time on
    GroupElement products; (keys, right, parent, via)."""
    e = identity(gens[0].n, gens[0].p, gens[0].projective)
    elements, index = [e], {e.key: 0}
    right, parent, via = [[] for _ in gens], [0], [0]
    for u, x in enumerate(elements):  # the list grows as it is walked
        for gno, g in enumerate(gens):
            y = x * g
            v = index.get(y.key)
            if v is None:
                v = index[y.key] = len(elements)
                elements.append(y)
                parent.append(u)
                via.append(gno)
            right[gno].append(v)
    return [x.key for x in elements], right, parent, via


def _orbit_one_at_a_time(rep, gens):
    """Oracle: the conjugation orbit's keys, breadth first one element at a
    time, x -> g x g^-1 on GroupElement products."""
    pairs = [(g, g.inverse()) for g in gens]
    orbit, seen = [rep], {rep.key}
    for x in orbit:  # the list grows as it is walked
        for g, ginv in pairs:
            y = g * x * ginv
            if y.key not in seen:
                seen.add(y.key)
                orbit.append(y)
    return [x.key for x in orbit]


def test_levels_keep_the_one_at_a_time_order(conjugated_group):
    rng = random.Random(37)
    for kind, n, p in (("PSL", 2, 7), ("PSL", 2, 13), ("GL", 2, 3), ("SL", 2, 5),
                       ("SL", 3, 3), ("SO", 4, 3)):
        g = conjugated_group(kind, n, p, rng)
        keys, right, parent, via = _closure_one_at_a_time(g.generators)
        assert g.keys == keys and [list(r) for r in g.right] == right
        assert list(g.parent) == parent and list(g.via) == via
        assert [g.elements[u].key for u in range(g.order)] == keys
        assert [x.key for x in g.elements[:3]] == keys[:3]
        reps = [c.rep for c in conjugacy_classes(g)]
        for rep in [reps[1], reps[-1]] + rng.sample(reps, min(len(reps), 3)):
            orbit = class_orbit(rep, g.generators)
            assert orbit == _orbit_one_at_a_time(rep, g.generators)
            c, = [c for c in conjugacy_classes(g) if c.rep == rep]
            assert sorted(orbit) == sorted(keys[u] for u in c.indices)


def test_lemma_path_counts_triples_where_they_exist():
    """Positive control for the lemma path (class_orbit, then
    direct_triple_count with is_quadratic_unipotent) in SL(3,3), with C1
    the involutions and C2 summed over the quadratic unipotent classes
    (closed under inversion, so C2^-1 ranges over the same classes): the
    counts equal the Dixon-table structure constants, and are nonzero for
    z = x t of order 6, x = diag(-1, -1, 1) and t a transvection inside the
    -1 eigenspace of x (x z = t). For z a transvection the count is 0: if
    x = (y z)^-1, then x - 1 maps into W = L_y + L_z (the lines the two
    transvections move to), so x is -1 on W = its -1 eigenspace, and y z
    would be -1 on W, which two unipotent maps of a plane never give."""
    group = group_from_spec("SL(3,3)")
    table, class_map = character_table_dixon_mapped(group)
    involution = make_element([[2, 0, 0], [0, 2, 0], [0, 0, 1]], 3)
    transvection = make_element([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 3)

    def class_no(x):
        u = group.index[x.key]
        return next(c for c, cls in class_map.items() if u in cls.indices)

    c1 = class_no(involution)
    quadratic = [c for c, cls in class_map.items() if is_quadratic_unipotent(cls.rep)]
    assert quadratic == [class_no(transvection)]
    orbit = class_orbit(involution, sl_generators(3, 3))
    assert len(orbit) == class_map[c1].size
    counts = []
    for z in (involution * transvection, transvection):
        c3 = class_no(z)
        direct = direct_triple_count(orbit, is_quadratic_unipotent, z, class_map[c3].size)
        assert direct == sum(frobenius_count(table, ClassTriple(c1, c2, c3))
                             for c2 in quadratic)
        counts.append(direct)
    assert counts[0] > 0 and counts[1] == 0


def _triple_counts(group):
    """(direct_triple_count, frobenius_count) for every class triple, the
    predicate testing C2^-1 as direct_triple_count asks; off scalars the
    count with the trace of C2^-1 stated is asserted equal to the count
    without it."""
    table, class_map = character_table_dixon_mapped(group)
    els = group.elements
    out = {}
    k = table.n_classes
    for c1 in range(k):
        orbit = [group.keys[i] for i in class_map[c1].indices]
        for c2 in range(k):
            inverses = {els[i].inverse() for i in class_map[c2].indices}
            trace = None
            if not group.codes.projective:  # a class has one trace, off scalars
                trace, = {sum(x.entries[i][i] for i in range(x.n)) % x.p for x in inverses}
            inverses = class_membership_predicate(inverses)
            for c3 in range(k):
                z = class_map[c3]
                names = tuple(table.classes[c].name for c in (c1, c2, c3))
                direct = direct_triple_count(orbit, inverses, z.rep, z.size)
                if trace is not None:
                    assert direct == direct_triple_count(
                        orbit, inverses, z.rep, z.size, trace=trace), names
                out[names] = (direct, frobenius_count(table, ClassTriple(c1, c2, c3)))
    return out


def test_direct_triple_count_against_character_table(conjugated_group):
    rng = random.Random(31)
    # more than 1/share of each group's class triples have a nonzero count
    for kind, n, p, share in (("PSL", 2, 7, 4), ("GL", 2, 3, 4), ("SL", 2, 5, 4),
                              ("SL", 3, 3, 4), ("SO", 4, 3, 8)):
        counts = _triple_counts(conjugated_group(kind, n, p, rng))
        assert all(direct == frobenius for direct, frobenius in counts.values()), kind
        assert sum(1 for direct, _ in counts.values() if direct) > len(counts) // share
        if kind == "PSL":
            # 7A is not real (7A^-1 = 7B): testing C2 in place of C2^-1 swaps these
            assert counts["2A", "7A", "7A"] == (168, 168)
            assert counts["2A", "7B", "7A"] == (0, 0)


def test_a_stated_trace_is_refused_modulo_scalars():
    psl = group_from_spec("PSL(2,7)")
    z = psl.elements[1]
    assert direct_triple_count([z.key], bool, z, 1) == 1
    with pytest.raises(ValueError, match="modulo scalars"):
        direct_triple_count([z.key], bool, z, 1, trace=2)
