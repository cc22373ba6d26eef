import random
from fractions import Fraction
from functools import cache
from importlib import resources
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime

from rigikit import chartable, dl_rank1
from rigikit.chartable import (
    CTBSyntaxError,
    CharacterTable,
    CheckReport,
    CheckResult,
    _check_orthogonality,
    _residues_match,
    _split_prime,
    _unit_generators,
    build_table_mapped,
    canonical_layout,
    class_is_rational,
    emit_ctb,
    parse_ctb,
    same_character_data,
    validate,
)
from rigikit.cyclo import cyc, parse_value, zeta
from rigikit.dixon import character_table_dixon
from rigikit.dl_rank1 import build_family
from rigikit.modp import element_of_order, prime_factors
from rigikit.smallgrp import group_from_spec

C2_TEXT = """\
CTB 1
name C2
order 2
exponent 2
classes 2
class 1A size=1 order=1 pow2=1A
class 2A size=1 order=2 pow2=1A
char X1 1 ; 1
char X2 1 ; -1
"""

S3_TEXT = """\
CTB 1
name S3
# symmetric group on three letters
order 6
exponent 6
classes 3
class 1A size=1 order=1 pow2=1A pow3=1A
class 2A size=3 order=2 pow2=1A pow3=2A
class 3A size=2 order=3 pow2=3A pow3=1A
char X1 1 ; 1 ; 1
char X2 1 ; -1 ; 1
char X3 2 ; 0 ; -1
"""


def s3_dixon():
    return character_table_dixon(group_from_spec("SL(2,2)"))


def test_parse_order2():
    t = parse_ctb(C2_TEXT)
    assert t.n_classes == 2
    assert t.rows == ((cyc(1), cyc(1)), (cyc(1), cyc(-1)))


def test_parse_s3_matches_dixon_oracle():
    t = parse_ctb(S3_TEXT)
    assert [t.rows[r][0].to_integer() for r in range(3)] == [1, 1, 2]
    assert same_character_data(t, s3_dixon())


def test_parse_accepts_bytes():
    t = parse_ctb(S3_TEXT.encode("ascii"))
    assert t.order == 6


def test_malformed_char_line_names_line():
    bad = S3_TEXT.replace("char X3 2 ; 0 ; -1", "char X3 2 ; zz ; -1")
    with pytest.raises(CTBSyntaxError) as err:
        parse_ctb(bad)
    assert "X3" in str(err.value) and "line" in str(err.value)


def test_parse_reads_each_distinct_value_once(monkeypatch):
    table = build_family("GL2", 5).table
    text = emit_ctb(table)
    calls = []

    def counting(value_text):
        calls.append(value_text)
        return parse_value(value_text)
    monkeypatch.setattr(chartable, "parse_value", counting)
    assert parse_ctb(text).rows == table.rows
    assert len(calls) == len({c.strip() for c in calls})
    # a bad value is reported at the first line that holds it
    bad = S3_TEXT.replace("char X2 1 ; -1 ; 1", "char X2 1 ; zz ; 1").replace(
        "char X3 2 ; 0 ; -1", "char X3 2 ; zz ; -1")
    with pytest.raises(CTBSyntaxError) as err:
        parse_ctb(bad)
    assert "X2" in str(err.value) and err.value.line == 11


def test_wrong_value_count():
    bad = S3_TEXT.replace("char X3 2 ; 0 ; -1", "char X3 2 ; 0")
    with pytest.raises(CTBSyntaxError) as err:
        parse_ctb(bad)
    assert "expected 3" in str(err.value)


def test_unknown_power_map_name():
    bad = S3_TEXT.replace("pow3=2A", "pow3=9Z")
    with pytest.raises(CTBSyntaxError) as err:
        parse_ctb(bad)
    assert "9Z" in str(err.value)


def test_missing_header():
    with pytest.raises(CTBSyntaxError):
        parse_ctb("CTB 2\nname x\n")
    with pytest.raises(CTBSyntaxError):
        parse_ctb(S3_TEXT.replace("order 6\n", ""))


def test_roundtrip():
    for text in (C2_TEXT, S3_TEXT):
        t = parse_ctb(text)
        assert parse_ctb(emit_ctb(t)) == t
    big = character_table_dixon(group_from_spec("PSL(2,7)"))
    assert parse_ctb(emit_ctb(big)) == big


def test_validate_s3_all_pass():
    report = validate(parse_ctb(S3_TEXT))
    assert report.ok
    names = {c.name for c in report.items}
    assert {"row_orthogonality", "column_orthogonality",
            "class_sizes_sum", "power_map_orders"} <= names


def test_check_report_formats():
    bad = CheckResult("sizes", False, "sum 7")
    rep = CheckReport("demo", (bad, CheckResult("order", True)))
    assert not rep.ok and rep.failures() == (bad,)
    assert rep.machine_block() == "sizes = FAIL: sum 7\norder = pass"
    assert str(rep) == "%-24s FAIL: sum 7\n%-24s pass" % ("sizes", "order")
    assert CheckReport("empty", ()).ok


def _tweak_value(table, r, j, delta):
    rows = [list(row) for row in table.rows]
    rows[r][j] = rows[r][j] + delta
    return CharacterTable(
        name=table.name, order=table.order, exponent=table.exponent,
        classes=table.classes, rows=tuple(tuple(row) for row in rows))


def test_perturbed_value_fails_row_orthogonality():
    t = parse_ctb(S3_TEXT)
    bad = _tweak_value(t, 2, 1, cyc(1))
    report = validate(bad)
    assert not report.ok
    fail = {c.name: c for c in report.failures()}
    assert "row_orthogonality" in fail
    assert "2" in fail["row_orthogonality"].detail  # names the row pair


def test_perturbed_value_fails_column_orthogonality():
    t = parse_ctb(S3_TEXT)
    bad = _tweak_value(t, 2, 1, cyc(1))
    fail = {c.name: c for c in validate(bad).failures()}
    # columns 1A and 2A: 1*1 + 1*(-1) + 2*1 = 2, not 0
    assert fail["column_orthogonality"].detail == "fails for classes 1A and 2A"


def test_size_sum_failure():
    t = parse_ctb(S3_TEXT.replace("class 2A size=3", "class 2A size=4"))
    report = validate(t, orthogonality=False)
    fail = {c.name for c in report.failures()}
    assert "class_sizes_sum" in fail


def test_power_map_order_consistency_failure():
    t = parse_ctb(S3_TEXT.replace("class 3A size=2 order=3 pow2=3A pow3=1A",
                                  "class 3A size=2 order=3 pow2=1A pow3=1A"))
    report = validate(t, orthogonality=False)
    assert "power_map_orders" in {c.name for c in report.failures()}


def test_columns_distinct_on_real_tables():
    for spec in ("SL(2,2)", "GL(2,3)", "PSL(2,7)"):
        t = character_table_dixon(group_from_spec(spec))
        cols = {t.column(j) for j in range(t.n_classes)}
        assert len(cols) == t.n_classes


def test_rationality_s3_and_psl27():
    s3 = parse_ctb(S3_TEXT)
    assert all(class_is_rational(s3, j) for j in range(3))
    t7 = character_table_dixon(group_from_spec("PSL(2,7)"))
    verdicts = {t7.classes[j].name: class_is_rational(t7, j)
                for j in range(t7.n_classes)}
    assert verdicts["1A"] and verdicts["2A"] and verdicts["3A"] and verdicts["4A"]
    assert not verdicts["7A"] and not verdicts["7B"]


def class_rational_by_power_maps(table, j):
    """Power-map rationality verdict, or None when the stored prime maps do
    not generate all units modulo the element order."""
    m = table.classes[j].order
    if m <= 2:
        return True
    units = [k for k in range(1, m) if gcd(k, m) == 1]
    gens = [p for p in prime_factors(table.exponent) if m % p != 0]
    reached = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for p in gens:
            y = (x * p) % m
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    if len(reached) != len(units):
        return None
    return all(table.classes[j].power(p) == j for p in gens)


def class_rational_by_galois(table, j):
    """True iff the column is fixed by every Galois map of the exponent field."""
    col = table.column(j)
    n = table.exponent
    return all(v.galois(k) == v for k in range(2, n + 1) if gcd(k, n) == 1
               for v in col)


def test_rationality_cross_checks_agree():
    for spec in ("SL(2,2)", "GL(2,3)", "SL(2,5)", "PSL(2,7)"):
        t = character_table_dixon(group_from_spec(spec))
        for j in range(t.n_classes):
            by_values = class_is_rational(t, j)
            assert class_rational_by_galois(t, j) == by_values
            by_pm = class_rational_by_power_maps(t, j)
            if by_pm is not None:
                assert by_pm == by_values


def test_inverse_class_via_conjugation():
    t7 = character_table_dixon(group_from_spec("PSL(2,7)"))
    i7a = t7.class_index("7A")
    i7b = t7.class_index("7B")
    assert t7.inverse_class(i7a) == i7b
    assert t7.inverse_class(i7b) == i7a
    for name in ("1A", "2A", "3A", "4A"):
        j = t7.class_index(name)
        assert t7.inverse_class(j) == j


def test_canonical_layout_cross_construction():
    dix = character_table_dixon(group_from_spec("GL(2,3)"))
    gen = build_family("GL2", 3).table
    assert same_character_data(dix, gen)
    assert emit_ctb(dix).splitlines()[1] != emit_ctb(gen).splitlines()[1]  # names differ
    assert emit_ctb(dix).splitlines()[2:] == emit_ctb(gen).splitlines()[2:]


def test_trivial_row_detection():
    t = parse_ctb(S3_TEXT)
    assert t.trivial_row_index() == 0
    assert t.centralizer_order(1) == 2


def _rebuild(table, class_order, row_order=None):
    """build_table_mapped on a table's data, classes listed in class_order
    and rows in row_order."""
    new_of = {old: new for new, old in enumerate(class_order)}
    infos = []
    for old in class_order:
        c = table.classes[old]
        infos.append((c.size, c.order, {p: new_of[i] for p, i in c.power_maps}))
    row_order = range(len(table.rows)) if row_order is None else row_order
    rows = [[table.rows[r][old] for old in class_order] for r in row_order]
    return build_table_mapped(table.name, table.order, table.exponent, infos, rows)[0]


def test_build_table_from_rotated_classes():
    # the identity need not come first in the input class list
    for table in (parse_ctb(S3_TEXT), build_family("GL2", 3).table):
        k = table.n_classes
        for shift in range(k):
            rotated = _rebuild(table, [(i + shift) % k for i in range(k)])
            assert same_character_data(rotated, table), (table.name, shift)


def test_build_table_needs_one_identity_class():
    rows = [[cyc(1), cyc(1)], [cyc(1), cyc(-1)]]
    for infos, found in (([(1, 2, {}), (1, 2, {})], 0), ([(1, 1, {}), (1, 1, {})], 2)):
        with pytest.raises(ValueError, match="found %d" % found):
            build_table_mapped("C2", 2, 2, infos, rows)


# ---------------------------------------------------------------------------
# orthogonality by one split prime against the exact pairwise check

FIXTURES = ("c2.ctb", "s3.ctb", "gl2_3.ctb", "sl2_5.ctb", "psl2_7.ctb")
GENERIC = ([("GL2", q) for q in (3, 4, 5, 7, 8, 9, 11, 13)]
           + [(fam, q) for fam in ("SL2", "PGL2") for q in (3, 5, 7, 11, 13)])
DIXON_SPECS = ("SL(2,2)", "GL(2,3)", "SL(2,5)", "PSL(2,7)")
SOURCES = ([("fixture", name) for name in FIXTURES]
           + [("generic", fq) for fq in GENERIC]
           + [("dixon", spec) for spec in DIXON_SPECS])


@cache
def source_table(kind, key):
    if kind == "fixture":
        return parse_ctb(resources.files("rigikit.data").joinpath(key).read_text())
    if kind == "generic":
        return build_family(*key).table
    return character_table_dixon(group_from_spec(key))


def exact_orthogonality(table):
    """The exact pairwise checks, with the arguments `validate` gives them."""
    nr, k = len(table.rows), table.n_classes
    return (
        _check_orthogonality("row_orthogonality", table.rows,
                             [c.size for c in table.classes], [table.order] * nr,
                             range(nr), "rows"),
        _check_orthogonality("column_orthogonality",
                             [table.column(j) for j in range(k)], [1] * nr,
                             [table.centralizer_order(j) for j in range(k)],
                             [c.name for c in table.classes], "classes"))


def validated_orthogonality(table):
    return tuple(c for c in validate(table).items if c.name.endswith("_orthogonality"))


def modular_verdicts(table):
    """(rows, columns) verdicts of the modular pass alone; the pass must apply."""
    split = _split_prime(table)
    assert split is not None
    nr, k = len(table.rows), table.n_classes
    return (
        _residues_match(split, [c.size for c in table.classes], [table.order] * nr,
                        False),
        _residues_match(split, [1] * nr, [table.centralizer_order(j) for j in range(k)],
                        True))


def gram_bound(table):
    """B of the proof, from the values' public coefficients: the larger of
    the row and column bounds, with N_max = |G|."""
    values = {v for row in table.rows for v in row}
    d = lcm(*(c.denominator for v in values for c in v.coeffs.values()))
    norm = {v: sum(abs(c * d) for c in v.coeffs.values()) for v in values}
    by_class = [max(norm[v] for v in table.column(j)) for j in range(table.n_classes)]
    by_row = [max(norm[v] for v in row) for row in table.rows]
    return d * d * table.order + max(
        sum(c.size * m * m for c, m in zip(table.classes, by_class)),
        sum(m * m for m in by_row))


def with_rows(table, rows):
    return CharacterTable(name=table.name, order=table.order, exponent=table.exponent,
                          classes=table.classes, rows=tuple(tuple(r) for r in rows))


@pytest.mark.parametrize("kind,key", SOURCES, ids=[str(k) for _, k in SOURCES])
def test_split_prime_verdict_equals_exact_check(kind, key):
    table = source_table(kind, key)
    exact = exact_orthogonality(table)
    assert tuple(c.ok for c in exact) == modular_verdicts(table) == (True, True)
    assert validated_orthogonality(table) == exact


@pytest.mark.parametrize("kind,key", SOURCES, ids=[str(k) for _, k in SOURCES])
def test_split_prime_is_one_mod_e_and_above_the_bound(kind, key):
    table = source_table(kind, key)
    ell = _split_prime(table)[0]
    e = lcm(*(v.conductor for row in table.rows for v in row))
    assert isprime(ell) and (ell - 1) % e == 0 and ell > gram_bound(table)


def test_unit_generators_generate():
    for n in range(1, 2000):
        units = {u for u in range(n) if gcd(u, n) == 1} or {0}
        gens = _unit_generators(n)
        reached, todo = {1 % n}, [1 % n]
        while todo:
            h = todo.pop()
            for g in gens:
                if g * h % n not in reached:
                    reached.add(g * h % n)
                    todo.append(g * h % n)
        assert reached == units, n
    # 5, the least primitive root mod 40487, has order 40486 mod 40487^2,
    # so the generator there must be lifted to 5 + 40487
    n, phi = 40487 ** 2, 40486 * 40487
    (g,) = _unit_generators(n)
    assert all(pow(g, phi // q, n) != 1 for q in prime_factors(phi))


def residues_match_by_loop(split, weights, norms, transpose):
    """`_residues_match` as one modular dot product per Gram entry."""
    ell, dd, at, inv = split
    if transpose:
        at, inv = list(zip(*at)), list(zip(*inv))
    return all(sum(u * w * y for u, w, y in zip(x, weights, z)) % ell
               == (dd * norms[a] % ell if a == b else 0)
               for a, x in enumerate(at) for b, z in enumerate(inv))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_gram_rows_agree_with_the_loop(data):
    # a matching split from the characters of Z/m: at[a][j] = c_a w_j^-1
    # omega^(a j) and inv[b][j] = omega^(-b j) have weighted Gram entries
    # c_a m delta_ab; then one entry perturbed, or the whole matrix random
    ell, m = data.draw(st.sampled_from([(7, 3), (13, 4), (31, 6), (101, 5), (337, 7),
                                        (65537, 8), (1000000007, 2)]))
    omega = element_of_order(m, ell)
    weights = data.draw(st.lists(st.integers(1, ell - 1), min_size=m, max_size=m))
    # D^2 and the norms are units mod l, as `_split_prime` makes them: a
    # multiple of l would zero a whole row of `at` and hide a perturbed entry
    scale = data.draw(st.lists(st.integers(1, 10 ** 6).filter(lambda c: c % ell),
                               min_size=m, max_size=m))
    dd = data.draw(st.integers(1, 50).filter(lambda c: c % ell))
    at = [[c * dd * pow(w, -1, ell) * pow(omega, a * j, ell) % ell
           for j, w in enumerate(weights)] for a, c in enumerate(scale)]
    inv = [[pow(omega, -b * j % m, ell) for j in range(m)] for b in range(m)]
    norms = [c * m for c in scale]
    how = data.draw(st.sampled_from(["match", "at", "inv", "random"]))
    if how == "random":
        at = data.draw(st.lists(st.lists(st.integers(0, ell - 1), min_size=m, max_size=m),
                                min_size=m, max_size=m))
    elif how != "match":
        a, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        matrix = at if how == "at" else inv
        matrix[a][j] = (matrix[a][j] + data.draw(st.integers(1, ell - 1))) % ell
    transpose = data.draw(st.booleans())
    if transpose:  # the same matrices read as columns
        at, inv = [list(c) for c in zip(*at)], [list(c) for c in zip(*inv)]
    split = (ell, dd, at, inv)
    got = _residues_match(split, weights, norms, transpose)
    assert got == residues_match_by_loop(split, weights, norms, transpose)
    if how in ("match", "at", "inv"):
        assert got == (how == "match")


def rational_rows(table):
    return [r for r, row in enumerate(table.rows)
            if r > 0 and all(v.is_rational() for v in row)]


def test_stable_perturbation_is_caught_by_the_residues():
    # a rational row stays Galois-fixed, so the modular pass applies and
    # rejects; the exact check then names the same pair as before. Flipping
    # the sign of one value keeps every Gram diagonal entry, so only the
    # off-diagonal residues see it.
    for kind, key in (("fixture", "s3.ctb"), ("fixture", "psl2_7.ctb"),
                      ("generic", ("GL2", 5))):
        table = source_table(kind, key)
        r = rational_rows(table)[-1]
        j = next(j for j in range(1, table.n_classes) if not table.rows[r][j].is_zero())
        for bad in (_tweak_value(table, r, 1, cyc(1)),
                    _tweak_value(table, r, j, -2 * table.rows[r][j])):
            assert modular_verdicts(bad) == (False, False)
            got = validated_orthogonality(bad)
            assert got == exact_orthogonality(bad)
            assert not any(c.ok for c in got) and all(c.detail for c in got)


def test_values_with_denominators_pass_by_the_residues():
    # two rational rows of equal norm mixed by the rational rotation
    # (3, 4; 4, -3)/5 keep both orthogonality relations, with D = 5
    s3 = source_table("fixture", "s3.ctb")
    x, y = s3.rows[1], s3.rows[2]
    mixed = with_rows(s3, [s3.rows[0],
                           [(3 * u + 4 * v) / 5 for u, v in zip(x, y)],
                           [(4 * u - 3 * v) / 5 for u, v in zip(x, y)]])
    assert _split_prime(mixed)[1] == 25
    assert modular_verdicts(mixed) == (True, True)
    assert validated_orthogonality(mixed) == exact_orthogonality(mixed)
    assert all(c.ok for c in exact_orthogonality(mixed))


def test_unstable_or_repeated_rows_take_the_exact_check():
    psl = source_table("fixture", "psl2_7.ctb")
    r = next(r for r, row in enumerate(psl.rows) if not row[-1].is_rational())
    unstable = _tweak_value(psl, r, psl.n_classes - 1, cyc(1))
    s3 = source_table("fixture", "s3.ctb")
    broken = _tweak_value(s3, 2, 1, zeta(3))
    repeated = with_rows(s3, s3.rows + (s3.rows[1],))
    for table in (unstable, broken, repeated):
        assert _split_prime(table) is None
        got = validated_orthogonality(table)
        assert got == exact_orthogonality(table)
        assert not all(c.ok for c in got)


SMALL = [("fixture", name) for name in FIXTURES] + [
    ("generic", ("SL2", 5)), ("generic", ("PGL2", 5)), ("generic", ("GL2", 4))]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rational_row_perturbations_agree_with_exact_check(data):
    table = source_table(*data.draw(st.sampled_from(SMALL)))
    rows = [list(row) for row in table.rows]
    for _ in range(data.draw(st.integers(1, 3))):
        r = data.draw(st.sampled_from(rational_rows(table)))
        j = data.draw(st.integers(0, table.n_classes - 1))
        delta = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
        rows[r][j] = rows[r][j] + delta
    bad = with_rows(table, rows)
    assert validated_orthogonality(bad) == exact_orthogonality(bad)
    if len(set(bad.rows)) == len(bad.rows):
        assert _split_prime(bad) is not None


# ---------------------------------------------------------------------------
# the canonical layout does not depend on the presentation

LAYOUT_SOURCES = ([("fixture", name) for name in FIXTURES]
                  + [("generic", ("GL2", q)) for q in (3, 4, 5, 7, 8, 9)]
                  + [("generic", (fam, q)) for fam in ("SL2", "PGL2")
                     for q in (3, 5, 7, 11, 13)]
                  + [("dixon", spec) for spec in DIXON_SPECS])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_layout_ignores_class_and_row_order(data):
    table = source_table(*data.draw(st.sampled_from(LAYOUT_SOURCES)))
    class_order = data.draw(st.permutations(range(table.n_classes)))
    row_order = data.draw(st.permutations(range(len(table.rows))))
    assert emit_ctb(_rebuild(table, class_order, row_order)) == emit_ctb(table)


def test_gl2_layout_ignores_the_construction_order(monkeypatch):
    class_list = dl_rank1._gl2_class_list
    for q in (7, 8):
        expected = emit_ctb(build_family("GL2", q).table)
        for seed in range(4):
            def shuffled(q, seed=seed):
                classes = list(zip(*class_list(q)))
                random.Random(seed).shuffle(classes)
                return tuple(map(list, zip(*classes)))
            with monkeypatch.context() as m:
                m.setattr(dl_rank1, "_gl2_class_list", shuffled)
                assert emit_ctb(build_family("GL2", q).table) == expected, (q, seed)


def test_layout_of_ties_refinement_cannot_split():
    # an identity and six classes of equal keys and values whose power maps
    # form a 4-cycle 1 -> 4 -> 6 -> 5 -> 1 with tails 2 -> 5 and 3 -> 4:
    # refinement splits nothing, the leaves differ by where the first
    # individualized class lies, and only the least certificate, found
    # under sound pruning, is independent of the presentation; the layout
    # (each class's power class, in new indices) is pinned, so that a
    # change of the canonical form shows
    power = {0: 0, 1: 4, 2: 5, 3: 4, 4: 6, 5: 1, 6: 5}
    layouts = set()
    for seed in range(6):
        label = list(range(1, 7))
        random.Random(seed).shuffle(label)
        label = [0] + label  # class x is presented at position label[x]
        pm = [None] * 7
        for x, y in power.items():
            pm[label[x]] = ((2, label[y]),)
        class_order, _ = canonical_layout([(1, 1)] + [(2, 1)] * 6, [(0, 1)],
                                          [[0] * 7], pm)
        pos = {old: new for new, old in enumerate(class_order)}
        layouts.add(tuple(pos[pm[old][0][1]] for old in class_order))
    assert layouts == {(0, 2, 5, 2, 3, 4, 4)}


@pytest.mark.parametrize("fixture,builds", [
    ("c2.ctb", [("dixon", "GL(1,3)")]),
    ("s3.ctb", [("dixon", "SL(2,2)")]),
    ("gl2_3.ctb", [("dixon", "GL(2,3)"), ("generic", ("GL2", 3))]),
    ("sl2_5.ctb", [("dixon", "SL(2,5)"), ("generic", ("SL2", 5))]),
    ("psl2_7.ctb", [("dixon", "PSL(2,7)")]),
])
def test_fixtures_equal_their_builds_byte_for_byte(fixture, builds):
    shipped = resources.files("rigikit.data").joinpath(fixture).read_text().splitlines()
    for build in builds:
        # only the name line may differ
        assert emit_ctb(source_table(*build)).splitlines()[2:] == shipped[2:], build
