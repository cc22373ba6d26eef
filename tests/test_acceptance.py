"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run under pytest (`pytest tests/test_acceptance.py -v -s` shows the lines)
or standalone (`python tests/test_acceptance.py`), which prints exactly one
PASS/FAIL line per criterion and exits nonzero on any failure.
"""

import random
import sys
import time
from fractions import Fraction
from importlib import resources

import pytest

from rigikit.chartable import parse_ctb, same_character_data, validate
from rigikit.cyclo import cyc, format_value, from_terms, parse_value
from rigikit.dixon import character_table_dixon, character_table_dixon_mapped
from rigikit.dl_rank1 import (
    build_family,
    coset_values_report,
    dual_symmetry_report,
    theta_independence,
    unipotent_values_report,
    vanishing_sum_report,
)
from rigikit.regunip import (
    EXCEPTIONAL_TYPES,
    load_pool,
    regular_unipotent_order,
    reproduction_report,
    survivors,
    sweep_primes,
)
from rigikit.rigidity import ClassTriple, frobenius_count, nontrivial_sum, rigidity_verdict
from rigikit.smallgrp import (
    conjugacy_classes,
    direct_triple_count,
    group_from_spec,
    lemma_sl_triple_count,
    lemma_so_triple_count,
)

GL2_QS = (3, 4, 5, 7, 9, 11)
SL2_QS = (5, 7, 11)


def announce(no, title, started):
    line = "ACCEPTANCE %d (%s): PASS (%.1fs)" % (no, title, time.time() - started)
    print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def families():
    fams = {}
    for q in GL2_QS:
        fams[("GL2", q)] = build_family("GL2", q)
    for q in SL2_QS:
        fams[("SL2", q)] = build_family("SL2", q)
        fams[("PGL2", q)] = build_family("PGL2", q)
    return fams


def fixture_table(name):
    return parse_ctb(resources.files("rigikit.data").joinpath(name).read_text())


def test_criterion_1_oracle_triangle(families):
    t0 = time.time()
    for spec, key, fixture in (("GL(2,3)", ("GL2", 3), "gl2_3.ctb"),
                               ("SL(2,5)", ("SL2", 5), "sl2_5.ctb")):
        dixon_table = character_table_dixon(group_from_spec(spec))
        generic_table = families[key].table
        shipped = fixture_table(fixture)
        assert same_character_data(dixon_table, generic_table)
        assert same_character_data(dixon_table, shipped)
        assert same_character_data(generic_table, shipped)
    announce(1, "oracle triangle GL2(3), SL2(5)", t0)


def test_criterion_2_psl27_rigidity():
    t0 = time.time()
    group = group_from_spec("PSL(2,7)")
    table, class_map = character_table_dixon_mapped(group)
    tri = ClassTriple(table.class_index("2A"), table.class_index("3A"),
                      table.class_index("7A"))
    n = frobenius_count(table, tri)
    assert n == 168 == table.order
    orbit = [group.keys[i] for i in class_map[tri.c1].indices]
    c2_inverse = {group.elements[i].inverse().key for i in class_map[tri.c2].indices}
    direct = direct_triple_count(
        orbit, lambda m: m.key in c2_inverse,
        class_map[tri.c3].rep, class_map[tri.c3].size)
    assert direct == n
    assert nontrivial_sum(table, tri).is_zero()
    report = rigidity_verdict(table, tri, center_order=1, generation_assumed=True)
    assert report.verdict == "rigid-candidate"
    assert report.rationality_flags == (True, True, False)
    assert not report.rationally_rigid
    announce(2, "PSL2(7) rigidity cross-check", t0)


def test_criterion_3_dual_symmetry_suite(families):
    t0 = time.time()
    for q in GL2_QS:
        fam = families[("GL2", q)]
        assert dual_symmetry_report(fam, fam).ok, q
        assert dual_symmetry_report(fam, fam, regular=True).ok, q
    for q in SL2_QS:
        sl, pgl = families[("SL2", q)], families[("PGL2", q)]
        assert dual_symmetry_report(sl, pgl).ok, q
        assert dual_symmetry_report(sl, pgl, regular=True).ok, q
        assert dual_symmetry_report(pgl, sl).ok, q
        assert dual_symmetry_report(pgl, sl, regular=True).ok, q
    announce(3, "dual symmetry, all semisimple pairs", t0)


def test_criterion_4_rank1_identity_suite(families):
    t0 = time.time()
    pairs = [(families[("GL2", q)], families[("GL2", q)]) for q in GL2_QS]
    for q in SL2_QS:
        pairs.append((families[("SL2", q)], families[("PGL2", q)]))
        pairs.append((families[("PGL2", q)], families[("SL2", q)]))
    for fam, dual in pairs:
        report, greens = theta_independence(fam)
        assert report.ok, fam.table.name
        by_torus = {g.torus: g.values for g in greens}
        assert by_torus["split"]["regular"] == 1
        assert by_torus["nonsplit"]["regular"] == 1
        assert vanishing_sum_report(fam).ok, fam.table.name
        assert unipotent_values_report(fam, dual).ok, fam.table.name
        assert coset_values_report(fam, dual).ok, fam.table.name
    announce(4, "rank-1 identity suite (theta independence, vanishing "
                "sums, unipotent values, double cosets)", t0)


def test_criterion_5_nonexistence_brute_force():
    t0 = time.time()
    assert lemma_sl_triple_count(3, 3)["total"] == 0
    assert lemma_sl_triple_count(3, 5)["total"] == 0
    assert lemma_sl_triple_count(4, 3)["total"] == 0
    assert lemma_so_triple_count(2, 3)["total"] == 0
    assert lemma_so_triple_count(2, 5)["total"] == 0
    announce(5, "nonexistence counts SL3(3), SL3(5), SL4(3), SO4(3), SO4(5)", t0)


def test_criterion_6_regular_unipotent_orders():
    t0 = time.time()
    expected = {
        "G2": {2: 8, 3: 9, 5: 25},
        "F4": {2: 16, 3: 27, 5: 25},
        "E6": {2: 16, 3: 27, 5: 25},
        "E7": {2: 32, 3: 27, 5: 25},
        "E8": {2: 32, 3: 81, 5: 125},
    }
    checked = 0
    for name, cols in expected.items():
        for p, value in cols.items():
            assert regular_unipotent_order(name, p) == value
            checked += 1
        h = EXCEPTIONAL_TYPES[name].coxeter_number
        mid = [p for p in sweep_primes(113) if 5 < p < h]
        assert mid == [] or all(
            regular_unipotent_order(name, p) == p * p for p in mid)
        if mid:
            checked += 1
        high = [p for p in sweep_primes(113) if p >= h]
        assert all(regular_unipotent_order(name, p) == p for p in high)
        checked += 1
    assert checked == 20 + 4  # 15 concrete + per-row symbolic columns
    announce(6, "regular-unipotent order table, all 20 entries", t0)


def test_criterion_7_overgroup_filter_reproduction():
    t0 = time.time()
    ok, mismatches = reproduction_report()
    assert ok, mismatches
    pool = load_pool()
    # the cyclic-Sylow re-check: above p = 5 only the p = 7 rank-4 pair
    # needs no second unipotent class
    for p in (7, 31, 37, 113):
        got = survivors("E8", p, pool, require_two_unipotent_classes=True)
        assert got == ({"S8(7)", "O9(7)"} if p == 7 else set())
    announce(7, "overgroup filter reproduces the survivor lists", t0)


# --- criterion 8: property suites ------------------------------------------

CONDUCTOR_POOL = [1, 3, 4, 5, 8, 9, 12, 15, 16, 20, 24]


def _random_value(rng):
    n = rng.choice(CONDUCTOR_POOL)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.randrange(n)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return from_terms(n, terms)


def test_criterion_8_property_suites(families):
    t0 = time.time()
    # randomized exact field laws, at least 10^4 cases
    rng = random.Random(20240609)
    cases = 0
    for _ in range(2100):
        a, b, c = (_random_value(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        cases += 5
    assert cases >= 10_000

    # parse/emit round-trips for the value grammar
    for _ in range(400):
        v = _random_value(rng)
        assert parse_value(format_value(v)) == v

    # orthogonality on every shipped and constructed table
    tables = [fixture_table(n) for n in
              ("c2.ctb", "s3.ctb", "gl2_3.ctb", "sl2_5.ctb", "psl2_7.ctb")]
    tables += [fam.table for fam in families.values()]
    tables += [character_table_dixon(group_from_spec(s))
               for s in ("GL(2,3)", "SL(2,5)", "PSL(2,7)")]
    for table in tables:
        assert validate(table).ok, table.name

    # triple-count symmetries on real tables
    psl = character_table_dixon(group_from_spec("PSL(2,7)"))
    sl25 = families[("SL2", 5)].table
    for table in (psl, sl25):
        k = table.n_classes
        for _ in range(25):
            a, b, c = (rng.randrange(k) for _ in range(3))
            n = frobenius_count(table, ClassTriple(a, b, c))
            assert n == frobenius_count(table, ClassTriple(b, c, a))
            ai, bi, ci = (table.inverse_class(j) for j in (a, b, c))
            assert n == frobenius_count(table, ClassTriple(ci, bi, ai))
    announce(8, "property suites (cyclotomic laws, orthogonality, "
                "symmetries, round-trips)", t0)


# ---------------------------------------------------------------------------
# standalone runner

_CRITERIA = (
    (1, "oracle triangle GL2(3), SL2(5)", test_criterion_1_oracle_triangle, True),
    (2, "PSL2(7) rigidity cross-check", test_criterion_2_psl27_rigidity, False),
    (3, "dual symmetry, all semisimple pairs", test_criterion_3_dual_symmetry_suite, True),
    (4, "rank-1 identity suite", test_criterion_4_rank1_identity_suite, True),
    (5, "nonexistence brute force", test_criterion_5_nonexistence_brute_force, False),
    (6, "regular-unipotent order table", test_criterion_6_regular_unipotent_orders, False),
    (7, "overgroup filter reproduction", test_criterion_7_overgroup_filter_reproduction, False),
    (8, "property suites", test_criterion_8_property_suites, True),
)


def _standalone():
    fams = families.__wrapped__()
    failures = 0
    for no, title, fn, needs_families in _CRITERIA:
        t0 = time.time()
        try:
            fn(fams) if needs_families else fn()
        except Exception as exc:  # the criterion's own line already printed on pass
            failures += 1
            print("ACCEPTANCE %d (%s): FAIL (%.1fs) %s"
                  % (no, title, time.time() - t0, exc), file=sys.__stdout__)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(_standalone())
