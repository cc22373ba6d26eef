import gc
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cache
from importlib import resources
from math import gcd, lcm, prod
from operator import add

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
    _gram_failure,
    _orthogonality_failure,
    _residues,
    _split_prime,
    _unit_generators,
    _units,
    build_table_mapped,
    canonical_layout,
    class_is_rational,
    emit_ctb,
    parse_ctb,
    same_character_data,
    validate,
)
from rigikit.cli import main
from rigikit.cyclo import (cyc, parse_value, raw_conjugate, raw_embed,
                           raw_equals_rational, raw_mul, zeta)
from rigikit.dixon import character_table_dixon
from rigikit.dl_rank1 import build_family
from rigikit.modp import PRIME_TEST_BOUND, element_of_order, prime_factors
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


@pytest.mark.parametrize("old,new,message,line", [
    ("order 6\n", "order 0\n", "header integers must be positive", 4),
    ("exponent 6\n", "exponent x\n",
     "bad integer in header: invalid literal for int() with base 10: 'x'", 5),
    ("classes 3\n", "classes 0\n", "header integers must be positive", 6),
    ("class 2A size=3", "class 1A size=3", "duplicate class name '1A'", 8),
    ("pow3=2A\n", "pow3\n", "bad class attribute 'pow3'", 8),
    ("2A size=3 order=2", "2A size=3", "class 2A needs size= and order=", 8),
    ("char X3 2 ; 0 ; -1", "char X3", "char line needs a name and values", 12),
    ("char X1 1 ; 1 ; 1\nchar X2 1 ; -1 ; 1\nchar X3 2 ; 0 ; -1\n", "",
     "table has no character rows", 9),
    ("2A size=3", "2A size=0", "size must be positive, got 0", 8),
    # the CTB grammar has one of each attribute and no '_' digit separators
    ("2A size=3", "2A size=3 size=4", "repeated class attribute 'size'", 8),
    ("pow2=3A", "pow2=3A pow2=1A", "repeated class attribute 'pow2'", 9),
    ("order 6\n", "order 0_6\n",
     "bad integer in header: invalid literal for int() with base 10: '0_6'", 4),
    ("2A size=3", "2A size=3_0", "bad size '3_0'", 8),
    ("pow3=2A\n", "pow0_3=2A\n", "bad power-map prime '0_3'", 8),
    ("char X3 2 ; 0 ; -1", "char X3 2 ; -1_0/1_0 ; -1",
     "bad value in char X3: bad rational '1_0/1_0' in '-1_0/1_0'", 12),
    ("char X3 2 ; 0 ; -1", "char X3 2 ; E(3,1_0) ; -1",
     "bad value in char X3: non-integer arguments in 'E(3,1_0)'", 12),
    # a malformed value is reported before a root outside the field
    ("char X3 2 ; 0 ; -1", "char X3 2 ; 1/0 ; E(100000000,1)",
     "bad value in char X3: bad rational '1/0' in '1/0'", 12),
    ("char X3 2 ; 0 ; -1", "char X3 2 ; E(100000000,1) ; 1/0",
     "E(100000000,k) in char X3: 100000000 does not divide lcm(2, exponent) = 6", 12),
])
def test_structural_errors_name_their_line(tmp_path, capsys, old, new, message, line):
    bad = S3_TEXT.replace(old, new)
    assert bad != S3_TEXT
    with pytest.raises(CTBSyntaxError) as err:
        parse_ctb(bad)
    assert str(err.value) == "%s (line %d)" % (message, line)
    target = tmp_path / "bad.ctb"
    target.write_text(bad)
    assert main(["validate", str(target)]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % err.value)


def test_str_input_refuses_other_scripts_digits():
    # bytes stop at the ASCII check; int() would read these as 6 and 2
    for old, new, message in (
            ("order 6", "order \u0666",
             "bad integer in header: invalid literal for int() with base 10: '\u0666' (line 4)"),
            ("char X3 2 ;", "char X3 \u0662 ;",
             "bad value in char X3: bad rational '\u0662' in '\u0662' (line 12)")):
        with pytest.raises(CTBSyntaxError) as err:
            parse_ctb(S3_TEXT.replace(old, new))
        assert str(err.value) == message


def test_power_map_for_a_prime_not_dividing_the_exponent_is_named():
    good = validate(parse_ctb(S3_TEXT))
    bad = validate(parse_ctb(S3_TEXT.replace("pow3=2A", "pow3=2A pow5=3A pow4=1A")))
    detail = ("2A:pow4 (4 is not a prime dividing the exponent), "
              "2A:pow5 (5 is not a prime dividing the exponent)")
    assert [(c.name, c.ok, c.detail) for c in bad.items] == [
        (c.name, c.ok, c.detail) if c.name != "power_maps_complete"
        else (c.name, False, detail) for c in good.items]


def test_roundtrip():
    tables = [parse_ctb(text) for text in (C2_TEXT, S3_TEXT)]
    tables.append(character_table_dixon(group_from_spec("PSL(2,7)")))
    tables.append(build_family("GL2", 5).table)
    for t in tables:
        back = parse_ctb(emit_ctb(t))
        assert back == t and hash(back) == hash(t)
        with pytest.raises(AttributeError):  # tables are immutable
            t.name = "other"


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
    assert list(rep.machine_block()) == ["sizes = FAIL: sum 7", "order = pass"]
    assert str(rep) == "%-24s FAIL: sum 7\n%-24s pass" % ("sizes", "order")
    assert CheckReport("empty", ()).ok
    with pytest.raises(AttributeError):
        bad.ok = True


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
    return all(table.classes[j].power_map[p] == j for p in gens)


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
    renamed = gen._replace(name="other")
    assert same_character_data(renamed, gen) and renamed != gen
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
    return build_table_mapped(table.name, table.order, table.exponent, infos,
                              *_flat_ids(rows))[0]


def _flat_ids(rows):
    """Ids and values with one value per entry, so equal values repeat."""
    k = len(rows[0])
    return [list(range(r * k, (r + 1) * k)) for r in range(len(rows))], \
        [v for row in rows for v in row]


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
            build_table_mapped("C2", 2, 2, infos, *_flat_ids(rows))


# ---------------------------------------------------------------------------
# the memory a table build holds


def test_table_builds_leave_nothing_for_the_cycle_collector():
    # the id matrix, its columns and the layout search's leaves are freed by
    # reference counting as each build returns
    gc.collect()
    gc.disable()
    try:
        build_family("GL2", 7)
        assert gc.collect() == 0
        character_table_dixon(group_from_spec("GL(2,3)"))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_table_build_holds_few_k_by_k_matrices():
    # one id matrix, the layout's id columns and the table's rows are k x k
    # pointer matrices; the traced peak of the build of GL2(19) (k = 360)
    # stays under 4.5 of them
    k = 360
    gc.collect()
    tracemalloc.start()
    try:
        build_family("GL2", 19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * k * k * 8, peak / (k * k * 8)


# ---------------------------------------------------------------------------
# orthogonality by split primes against the exact pairwise check

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


def _check_orthogonality(name: str, vectors, weights, norms, labels,
                         what: str) -> CheckResult:
    """The oracle: the exact weighted Gram check, sum_j weights[j] u[j]
    conj(v[j]) must be norms[a] for u = v = vectors[a] and 0 for distinct
    vectors, pair by pair in exact arithmetic; names the first failing pair."""
    ms = [lcm(*(v.conductor for v in vec)) for vec in vectors]
    embeds = {}

    def embedded(a: int, m: int) -> list:
        key = (a, m)
        got = embeds.get(key)
        if got is None:
            got = [raw_embed(v, m) for v in vectors[a]]
            embeds[key] = got
        return got

    for a in range(len(vectors)):
        for b in range(a, len(vectors)):
            m = lcm(ms[a], ms[b])
            u, v = embedded(a, m), embedded(b, m)
            acc: dict = {}
            for j, w in enumerate(weights):
                y = raw_conjugate(v[j], m)
                for e, c in raw_mul(u[j], y, m).items():
                    acc[e] = acc.get(e, 0) + w * c
            if not raw_equals_rational(m, acc, norms[a] if a == b else 0):
                return CheckResult(name, False, "fails for %s %s and %s"
                                   % (what, labels[a], labels[b]))
    return CheckResult(name, True)


def exact_orthogonality(table):
    """The exact pairwise checks of the rows and of the columns."""
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


def orientations(table):
    """(weights, norms, transpose) of the row and of the column check."""
    nr, k = len(table.rows), table.n_classes
    return (([c.size for c in table.classes], [table.order] * nr, False),
            ([1] * nr, [table.centralizer_order(j) for j in range(k)], True))


def modular_verdicts(table, units=(1,)):
    """(rows, columns): the least failing pair over the roots zeta_e ->
    omega^k, k in `units`, at each prime of the split, or None."""
    split = _split_prime(table)
    return tuple(
        min(filter(None, (_gram_failure((ell, split.dd, *_residues(split, ell, omega, k)),
                                        weights, norms, transpose)
                          for ell, omega in split.primes for k in units)), default=None)
        for weights, norms, transpose in orientations(table))


def every_unit(table):
    e = _split_prime(table).e
    return [k for k in range(e) if gcd(k, e) == 1]


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
    assert _split_prime(table).stable
    assert all(c.ok for c in exact) and modular_verdicts(table) == (None, None)
    assert validated_orthogonality(table) == exact


@pytest.mark.parametrize("kind,key", SOURCES, ids=[str(k) for _, k in SOURCES])
def test_split_prime_is_one_mod_e_and_above_the_bound(kind, key):
    # every prime is 1 mod e and their product exceeds B; below half the
    # primality test's bound that is one prime, the least above B
    table = source_table(kind, key)
    split = _split_prime(table)
    e = lcm(*(v.conductor for row in table.rows for v in row))
    bound = gram_bound(table)
    assert split.e == e and bound < PRIME_TEST_BOUND // 2
    (ell, omega), = split.primes
    assert isprime(ell) and (ell - 1) % e == 0 and ell > bound
    assert not any(isprime(x) for x in range(ell - e, int(bound), -e))
    assert pow(omega, e, ell) == 1 and all(pow(omega, e // q, ell) != 1
                                            for q in prime_factors(e))


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


def least_failure_by_loop(root, weights, norms, transpose):
    """`_gram_failure` as one modular dot product per Gram entry."""
    ell, dd, at, inv = root
    if transpose:
        at, inv = list(zip(*at)), list(zip(*inv))
    return min(((a, b) for a, x in enumerate(at) for b, z in enumerate(inv)
                if sum(u * w * y for u, w, y in zip(x, weights, z)) % ell
                != (dd * norms[a] % ell if a == b else 0)), default=None)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_gram_rows_agree_with_the_loop(data):
    # a matching root from the characters of Z/m: at[a][j] = c_a w_j^-1
    # omega^(a j) and inv[b][j] = omega^(-b j) have weighted Gram entries
    # c_a m delta_ab; then one entry perturbed, or the whole matrix random
    ell, m = data.draw(st.sampled_from([(7, 3), (13, 4), (31, 6), (101, 5), (337, 7),
                                        (65537, 8), (1000000007, 2)]))
    omega = element_of_order(m, ell)
    weights = data.draw(st.lists(st.integers(1, ell - 1), min_size=m, max_size=m))
    # D^2 and the norm scales are units mod l: a multiple of l would zero a
    # whole row of `at` and hide a perturbed entry
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
    root = (ell, dd, at, inv)
    got = _gram_failure(root, weights, norms, transpose)
    assert got == least_failure_by_loop(root, weights, norms, transpose)
    if how in ("match", "at", "inv"):
        assert (got is None) == (how == "match")


def rational_rows(table):
    return [r for r, row in enumerate(table.rows)
            if r > 0 and all(v.is_rational() for v in row)]


def test_stable_perturbation_is_caught_by_the_residues():
    # a rational row stays Galois-fixed, so the table stays stable and the
    # residues at k = 1 reject it; every root then names the same pair as
    # the exact check. Flipping the sign of one value keeps every Gram
    # diagonal entry, so only the off-diagonal residues see it.
    for kind, key in (("fixture", "s3.ctb"), ("fixture", "psl2_7.ctb"),
                      ("generic", ("GL2", 5))):
        table = source_table(kind, key)
        r = rational_rows(table)[-1]
        j = next(j for j in range(1, table.n_classes) if not table.rows[r][j].is_zero())
        for bad in (_tweak_value(table, r, 1, cyc(1)),
                    _tweak_value(table, r, j, -2 * table.rows[r][j])):
            assert _split_prime(bad).stable
            assert None not in modular_verdicts(bad)
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
    assert _split_prime(mixed).dd == 25
    assert modular_verdicts(mixed) == (None, None)
    assert validated_orthogonality(mixed) == exact_orthogonality(mixed)
    assert all(c.ok for c in exact_orthogonality(mixed))


def test_unstable_or_repeated_rows_are_checked_at_every_root():
    psl = source_table("fixture", "psl2_7.ctb")
    r = next(r for r, row in enumerate(psl.rows) if not row[-1].is_rational())
    unstable = _tweak_value(psl, r, psl.n_classes - 1, cyc(1))
    s3 = source_table("fixture", "s3.ctb")
    broken = _tweak_value(s3, 2, 1, zeta(3))
    repeated = with_rows(s3, s3.rows + (s3.rows[1],))
    # a rational row times zeta_3 keeps both orthogonality relations, but
    # zeta_3 -> zeta_3^2 maps it off the table
    twisted = []
    for table in (psl, source_table("generic", ("GL2", 5))):
        rows = [list(row) for row in table.rows]
        r = rational_rows(table)[-1]
        rows[r] = [v * zeta(3) for v in rows[r]]
        twisted.append(with_rows(table, rows))
    for table, ok in ((unstable, False), (broken, False), (repeated, False),
                      (twisted[0], True), (twisted[1], True)):
        split = _split_prime(table)
        assert not split.stable
        # the pairs found at every root are the verdicts
        pairs = modular_verdicts(table, every_unit(table))
        assert tuple(pair is None for pair in pairs) == tuple(
            _orthogonality_failure(split, w, n, t) is None
            for w, n, t in orientations(table))
        got = validated_orthogonality(table)
        assert got == exact_orthogonality(table)
        assert all(c.ok for c in got) == ok


def test_unstable_rows_are_checked_past_the_first_root():
    # rows u = 1 and v = (1, 1, 1, 1, z, z^4), z = zeta_5, over six classes
    # of size 1: <u, v> = 4 + z + z^4 is not 0, but it vanishes modulo
    # (11, z - 3) and its complex conjugate (11, z - 4). With the split
    # primes replaced by l = 11, omega = 3, the root k = 1 sees no failure,
    # or with a third row w = 2u only (0, 2); the least failing pair (0, 1)
    # shows at k = 2
    z, one = zeta(5), cyc(1)
    u = (one,) * 6
    v = (one,) * 4 + (z, z ** 4)
    weights = [1] * 6
    for rows, at_one in (((u, v), None), ((u, v, tuple(2 * x for x in u)), (0, 2))):
        table = CharacterTable(
            name="T", order=6, exponent=5, rows=rows,
            classes=tuple(chartable.ClassRecord("1" + c, 1, 1, ()) for c in "ABCDEF"))
        norms = [6] * len(rows)
        split = _split_prime(table)
        assert not split.stable and split.dd == 1 and split.e == 5
        small = split._replace(primes=((11, 3),))
        assert _units(small, False) == [1, 2, 3, 4]
        root = (11, 1, *_residues(small, 11, 3, 1))
        assert _gram_failure(root, weights, norms, False) == at_one
        assert _orthogonality_failure(small, weights, norms, False) == (0, 1)
        got = validated_orthogonality(table)
        assert got == exact_orthogonality(table)
        assert got[0].detail == "fails for rows 0 and 1"


def test_stable_tables_take_one_root_per_check(monkeypatch):
    calls = []
    gram_failure = chartable._gram_failure

    def counted(*args):
        calls.append(args)
        return gram_failure(*args)
    monkeypatch.setattr(chartable, "_gram_failure", counted)
    for kind, key in (("fixture", "psl2_7.ctb"), ("generic", ("GL2", 13))):
        calls.clear()
        assert validate(source_table(kind, key)).ok
        # square: the rows' Gram product proves the columns (validate's docstring)
        assert [transpose for *_, transpose in calls] == [False]


def test_a_table_with_fewer_rows_than_classes_runs_both_checks(monkeypatch):
    calls = []
    gram_failure = chartable._gram_failure

    def counted(*args):
        calls.append(args)
        return gram_failure(*args)
    monkeypatch.setattr(chartable, "_gram_failure", counted)
    psl = source_table("fixture", "psl2_7.ctb")
    # the rows left are still orthonormal; the columns lose a row's terms
    short = with_rows(psl, psl.rows[:-1])
    rows, cols = validated_orthogonality(short)
    assert rows.ok and not cols.ok
    assert {transpose for *_, transpose in calls} == {False, True}
    assert (rows, cols) == exact_orthogonality(short)


def test_units_cover_every_prime_of_the_deviations_ring():
    # the column Gram of a row twisted by zeta_3 lives in a smaller field:
    # the twist cancels, and one unit per unit mod e/d is checked
    s3 = source_table("fixture", "s3.ctb")
    twisted = with_rows(s3, [s3.rows[0], s3.rows[1], [v * zeta(3) for v in s3.rows[2]]])
    split = _split_prime(twisted)
    assert split.e == 3
    assert _units(split, False) == [1, 2] and _units(split, True) == [1]
    assert _units(_split_prime(s3), False) == [0]  # e = 1: zeta_1 -> omega^0 = 1
    # a single root of unity at a huge order leaves one unit mod its radical
    one = CharacterTable(name="T", order=1, exponent=10 ** 8,
                         classes=(chartable.ClassRecord("1A", 1, 1, ()),),
                         rows=((zeta(10 ** 8, -1),),))
    big = _split_prime(one)
    assert big.e == 10 ** 8 and not big.stable
    assert len(_units(big, False)) == len(_units(big, True)) == 4
    assert validated_orthogonality(one) == exact_orthogonality(one)


def test_bound_past_the_prime_test_takes_several_primes():
    # S3's two non-trivial rows mixed by the rational rotation
    # (a, b; b, -a)/c, a = m^2 - n^2, b = 2mn, c = m^2 + n^2, keep both
    # orthogonality relations with D = c, so D^2 |G| passes the prime test
    m, n = 3000001, 10 ** 6
    a, b, c = m * m - n * n, 2 * m * n, m * m + n * n
    s3 = source_table("fixture", "s3.ctb")
    x, y = s3.rows[1], s3.rows[2]
    mixed = with_rows(s3, [s3.rows[0],
                           [(a * u + b * v) / c for u, v in zip(x, y)],
                           [(b * u - a * v) / c for u, v in zip(x, y)]])
    bound = gram_bound(mixed)
    assert c * c * mixed.order > PRIME_TEST_BOUND
    split = _split_prime(mixed)
    primes = [ell for ell, _omega in split.primes]
    assert len(primes) >= 2 and split.dd == c * c
    assert all(isprime(ell) and (ell - 1) % split.e == 0 and ell < PRIME_TEST_BOUND
               for ell in primes)
    assert prod(primes) > bound and primes == sorted(set(primes))
    assert all(check.ok for check in validated_orthogonality(mixed))
    bad = _tweak_value(mixed, 1, 2, cyc(1) / c)
    got = validated_orthogonality(bad)
    assert got == exact_orthogonality(bad)
    assert not any(check.ok for check in got)


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
    assert _split_prime(bad).stable == (len(set(bad.rows)) == len(bad.rows))


# ---------------------------------------------------------------------------
# the canonical layout does not depend on the presentation

LAYOUT_SOURCES = ([("fixture", name) for name in FIXTURES]
                  + [("generic", ("GL2", q)) for q in (3, 4, 5, 7, 8, 9)]
                  + [("generic", (fam, q)) for fam in ("SL2", "PGL2")
                     for q in (3, 5, 7, 11, 13)]
                  + [("dixon", spec) for spec in DIXON_SPECS + ("GL(2,5)", "SO(4,3)")])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_layout_ignores_class_and_row_order(data):
    table = source_table(*data.draw(st.sampled_from(LAYOUT_SOURCES)))
    class_order = data.draw(st.permutations(range(table.n_classes)))
    row_order = data.draw(st.permutations(range(len(table.rows))))
    assert emit_ctb(_rebuild(table, class_order, row_order)) == emit_ctb(table)


def test_gl2_layout_ignores_the_construction_order(monkeypatch):
    class_list = dl_rank1._gl2_class_list
    for q, seeds in ((7, 4), (8, 4), (13, 2), (17, 2)):
        expected = emit_ctb(build_family("GL2", q).table)
        for seed in range(seeds):
            def shuffled(q, seed=seed):
                classes = list(zip(*class_list(q)))
                random.Random(seed).shuffle(classes)
                return tuple(map(list, zip(*classes)))
            with monkeypatch.context() as m:
                m.setattr(dl_rank1, "_gl2_class_list", shuffled)
                assert emit_ctb(build_family("GL2", q).table) == expected, (q, seed)


def _dense_ranks(keys):
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def round_refine(c_col, r_col, ids, power_maps):
    """The oracle: refinement in full rounds. A round re-signs each member
    of a tied cell, a class by its power classes' colors and its column's
    (row color, value) multiset, a row by its (class color, value) multiset,
    each pair as color * nv + id, until a round changes nothing."""
    nv = 1 + max(map(max, ids))
    cols = [[row[i] for row in ids] for i in range(len(c_col))]
    c_col, r_col = _dense_ranks(c_col), _dense_ranks(r_col)
    while True:
        c_size, r_size = Counter(c_col), Counter(r_col)
        c_base = [c * nv for c in c_col]
        r_base = [c * nv for c in r_col]
        new_c = _dense_ranks([
            (c,) if c_size[c] == 1 else
            (c, tuple((p, c_col[j]) for p, j in power_maps[i]),
             tuple(sorted(map(add, r_base, cols[i]))))
            for i, c in enumerate(c_col)])
        new_r = _dense_ranks([
            (c,) if r_size[c] == 1 else (c, tuple(sorted(map(add, c_base, ids[r]))))
            for r, c in enumerate(r_col)])
        if new_c == c_col and new_r == r_col:
            return c_col, r_col
        c_col, r_col = new_c, new_r


def set_partition(colors):
    cells = {}
    for x, c in enumerate(colors):
        cells.setdefault(c, set()).add(x)
    return {frozenset(cell) for cell in cells.values()}


@pytest.mark.parametrize("kind,key", LAYOUT_SOURCES + [("generic", ("GL2", 11)),
                                                        ("generic", ("GL2", 13))],
                         ids=str)
def test_queue_refinement_finds_the_round_partitions(monkeypatch, kind, key):
    # at every search node, the root and each individualization, the
    # splitter queue ends at the same class and row cells as full rounds
    # started from the same partition
    table = source_table(kind, key)
    real_layout, real_refine = chartable.canonical_layout, chartable._refine
    arguments, nodes = [], []

    def layout(*args):
        arguments.append(args)
        return real_layout(*args)

    def refine(classes, rows, queue, *data):
        _class_keys, _row_keys, ids, power_maps = arguments[-1]
        c_col, r_col = round_refine(classes.color, rows.color, ids, power_maps)
        real_refine(classes, rows, queue, *data)
        assert set_partition(classes.color) == set_partition(c_col)
        assert set_partition(rows.color) == set_partition(r_col)
        nodes.append(len(queue))
    monkeypatch.setattr(chartable, "canonical_layout", layout)
    monkeypatch.setattr(chartable, "_refine", refine)
    assert emit_ctb(_rebuild(table, range(table.n_classes))) == emit_ctb(table)
    assert nodes and all(n == 1 for n in nodes[1:])


def test_queue_refinement_finds_the_round_partitions_of_random_matrices():
    # small random id matrices, keys and power maps, refined at the root and
    # after each individualization down to a leaf; a seeded loop, as a
    # wrong queue rule shows in about one input of a hundred
    rng = random.Random(1)
    for _ in range(3000):
        k, nr = rng.randint(1, 7), rng.randint(1, 6)
        ids = [[rng.randint(0, 3) for _ in range(k)] for _ in range(nr)]
        power_maps = [tuple((p, rng.randrange(k))
                            for p in sorted(rng.sample((2, 3), rng.randint(0, 2))))
                      for _ in range(k)]
        cols, preimages = list(zip(*ids)), [[] for _ in range(k)]
        for i, pm in enumerate(power_maps):
            for p, j in pm:
                preimages[j].append((p, i))
        classes = chartable._Cells([rng.randint(0, 1) for _ in range(k)])
        rows = chartable._Cells([rng.randint(0, 1) for _ in range(nr)])
        queue = [(0, s) for s in sorted(classes.end)] + [(1, s) for s in sorted(rows.end)]
        while True:
            c_col, r_col = round_refine(classes.color, rows.color, ids, power_maps)
            chartable._refine(classes, rows, queue, ids, cols, preimages)
            assert set_partition(classes.color) == set_partition(c_col), (ids, power_maps)
            assert set_partition(rows.color) == set_partition(r_col), (ids, power_maps)
            if not classes.tied:
                break
            s = rng.choice(sorted(classes.tied))
            v = rng.choice(classes.points[s:classes.end[s]])
            classes.split(s, [x != v for x in classes.points[s:classes.end[s]]])
            queue = [(0, s)]


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


def _layout_arguments(monkeypatch, kind, key):
    """The arguments of the `canonical_layout` call of one fresh table build."""
    if kind == "ties":  # the table of test_layout_of_ties_refinement_cannot_split
        power = [0, 4, 5, 4, 6, 1, 5]
        return [(1, 1)] + [(2, 1)] * 6, [(0, 1)], [[0] * 7], [((2, y),) for y in power]
    calls, real_layout = [], chartable.canonical_layout

    def layout(*args):
        calls.append(args)
        return real_layout(*args)
    with monkeypatch.context() as m:
        m.setattr(chartable, "canonical_layout", layout)
        source_table.__wrapped__(kind, key)
    (arguments,) = calls
    return arguments


def _is_automorphism(g, ids, power_maps):
    """Whether the class map g permutes the rows of the id matrix and
    commutes with the power maps."""
    k = len(power_maps)
    return (sorted(g) == sorted(g.values()) == list(range(k))
            and Counter(tuple(row[g[i]] for i in range(k)) for row in ids)
            == Counter(map(tuple, ids))
            and all(power_maps[g[i]] == tuple((p, g[j]) for p, j in power_maps[i])
                    for i in range(k)))


@pytest.mark.parametrize("kind,key", [("generic", ("GL2", q)) for q in (3, 4, 5, 7, 8, 9, 11, 13)]
                         + [("generic", ("SL2", 13)), ("generic", ("PGL2", 13)),
                            ("dixon", "GL(2,5)"), ("ties", None)], ids=str)
def test_layout_search_records_only_table_automorphisms(monkeypatch, kind, key):
    # the search driven as canonical_layout drives it: each map it records
    # from a leaf equal to the least one permutes the rows and commutes
    # with the power maps, and a transposition of the first and last
    # classes of the layout, which is none, is rejected by the same check
    class_keys, row_keys, ids, power_maps = _layout_arguments(monkeypatch, kind, key)
    search = chartable._Search(ids, power_maps)
    classes, rows = chartable._Cells(class_keys), chartable._Cells(row_keys)
    search.node(classes, rows, [(0, s) for s in sorted(classes.end)]
                + [(1, s) for s in sorted(rows.end)], [])
    assert search.best == canonical_layout(class_keys, row_keys, ids, power_maps)
    assert search.automorphisms
    for g in search.automorphisms:
        assert _is_automorphism(g, ids, power_maps)
    first, last = search.best[0][0], search.best[0][-1]
    swap = {i: i for i in range(len(power_maps))}
    swap[first], swap[last] = last, first
    assert not _is_automorphism(swap, ids, power_maps)


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
