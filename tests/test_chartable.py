from fractions import Fraction

import pytest

from rigikit.chartable import (
    CTBSyntaxError,
    CharacterTable,
    CheckReport,
    CheckResult,
    build_table_mapped,
    class_is_rational,
    class_rational_by_galois,
    class_rational_by_power_maps,
    emit_ctb,
    parse_ctb,
    same_character_data,
    validate,
)
from rigikit.cyclo import cyc, zeta
from rigikit.dixon import character_table_dixon
from rigikit.dl_rank1 import build_family
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
    assert [t.degree_int(r) for r in range(3)] == [1, 1, 2]
    assert same_character_data(t, s3_dixon())


def test_parse_accepts_bytes():
    t = parse_ctb(S3_TEXT.encode("ascii"))
    assert t.order == 6


def test_malformed_char_line_names_line():
    bad = S3_TEXT.replace("char X3 2 ; 0 ; -1", "char X3 2 ; zz ; -1")
    with pytest.raises(CTBSyntaxError) as err:
        parse_ctb(bad)
    assert "X3" in str(err.value) and "line" in str(err.value)


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


def _rebuild(table, class_order):
    """build_table_mapped on a table's data, classes listed in class_order."""
    new_of = {old: new for new, old in enumerate(class_order)}
    infos = []
    for old in class_order:
        c = table.classes[old]
        infos.append((c.size, c.order, {p: new_of[i] for p, i in c.power_maps}))
    rows = [[row[old] for old in class_order] for row in table.rows]
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
