import gc
import tracemalloc
from math import gcd

import pytest

from rigikit.chartable import same_character_data, validate
from rigikit.cyclo import cyc, zeta
from rigikit.dixon import character_table_dixon
from rigikit.dl_rank1 import (
    IdentityViolation,
    _gl2_class_list,
    _gl2_row_labels,
    _gl2_value,
    _key_value,
    build_family,
    coset_values_report,
    dl_character,
    dl_value_via_cosets,
    dual_data,
    dual_symmetry_report,
    gauss_sum,
    semisimple_value_on_unipotent,
    theta_independence,
    torus_character_sums,
    torus_element_class,
    torus_elements,
    unipotent_values_report,
    vanishing_sum_report,
    weyl_on_torus,
)
from rigikit.modp import prime_factors
from rigikit.smallgrp import group_from_spec


def dl_inner_product(a, b) -> int:
    """<R_a, R_b> from two decompositions into irreducible rows."""
    return sum(c * b.decomposition.get(r, 0) for r, c in a.decomposition.items())


def theta_is_regular(fam, torus, theta) -> bool:
    """theta, reduced as torus_elements lists it, is not fixed by the
    Weyl element."""
    return weyl_on_torus(fam, torus, theta) != theta


def test_class_counts_and_orders():
    for q in (3, 4, 5, 7, 9):
        fam = build_family("GL2", q)
        assert fam.table.n_classes == q * q - 1
        assert fam.table.order == q * (q - 1) * (q * q - 1)
    for q in (5, 7, 11):
        fam = build_family("SL2", q)
        assert fam.table.n_classes == q + 4
        assert fam.table.order == q * (q * q - 1)
        fam = build_family("PGL2", q)
        assert fam.table.n_classes == q + 2
        assert fam.table.order == q * (q * q - 1)


def test_families_validate_exactly():
    for name, q in (("GL2", 3), ("GL2", 4), ("GL2", 5),
                    ("SL2", 5), ("SL2", 7), ("PGL2", 5), ("PGL2", 7)):
        assert validate(build_family(name, q).table).ok


def test_unsupported_parameters():
    for name, q in (("SL2", 9), ("SL2", 2), ("PGL2", 9), ("GL2", 2), ("GL2", 6)):
        with pytest.raises(ValueError):
            build_family(name, q)
    with pytest.raises(ValueError):
        build_family("SP4", 3)


def test_unipotent_values_are_rational_integers():
    # GL2/PGL2 tables are integral on unipotent classes; for SL2 the
    # half-degree rows carry Gauss sums there, so the integrality statement
    # is about the Deligne-Lusztig virtual characters (the Green functions),
    # which is checked for every family and torus.
    for name, q in (("GL2", 5), ("PGL2", 7)):
        fam = build_family(name, q)
        for j, _alg in fam.unipotent_class_indices():
            for row in fam.table.rows:
                assert row[j].is_integer()
    for name, q in (("GL2", 5), ("SL2", 7), ("PGL2", 7)):
        fam = build_family(name, q)
        for torus in ("split", "nonsplit"):
            for theta in torus_elements(fam, torus):
                dl = dl_character(fam, torus, theta)
                for j, _alg in fam.unipotent_class_indices():
                    assert fam.dl_value(dl, j).is_integer()


def test_gauss_sum_squares():
    for p in (3, 5, 7, 11, 13):
        g = gauss_sum(p)
        eps = 1 if p % 4 == 1 else -1
        assert (g * g).to_rational() == eps * p


def test_sl2_half_characters_carry_gauss_values():
    fam = build_family("SL2", 5)
    xi0 = fam.table.rows[fam.label_to_row[("xi", 0)]]
    c = fam.label_to_class[("unipotent", "c")]
    assert xi0[c].conductor == 5
    # the pair sums to an integer on unipotent classes
    xi1 = fam.table.rows[fam.label_to_row[("xi", 1)]]
    assert (xi0[c] + xi1[c]) == cyc(1)


def test_dl_degrees_and_inner_products():
    for name, q in (("GL2", 5), ("SL2", 7), ("PGL2", 7)):
        fam = build_family(name, q)
        for torus in ("split", "nonsplit"):
            eps = 1 if torus == "split" else -1
            expected_deg = eps * fam.order_pprime() // fam.torus_order(torus)
            for theta in torus_elements(fam, torus):
                dl = dl_character(fam, torus, theta)
                deg = fam.dl_value(dl, 0)
                assert deg.to_integer() == expected_deg
                norm = dl_inner_product(dl, dl)
                regular = theta_is_regular(fam, torus, theta)
                assert norm == (1 if regular else 2)


def test_dl_orthogonality_nonconjugate_pairs():
    fam = build_family("SL2", 7)
    chars = {}
    for torus in ("split", "nonsplit"):
        for theta in torus_elements(fam, torus):
            chars[(torus, theta)] = dl_character(fam, torus, theta)
    keys = sorted(chars)
    for a in keys:
        for b in keys:
            ip = dl_inner_product(chars[a], chars[b])
            conjugate = a[0] == b[0] and (
                a[1] == b[1] or weyl_on_torus(fam, a[0], a[1]) == b[1])
            if conjugate:
                assert ip in (1, 2)
            elif a[0] == b[0]:
                assert ip == 0
            else:
                # different torus types: 0 unless geometrically conjugate
                # (nonregular theta attached to the same central element)
                assert ip in (-1, 0, 1)


def test_theta_independence_and_green_values():
    for name, q in (("GL2", 3), ("GL2", 4), ("GL2", 5),
                    ("SL2", 5), ("SL2", 7), ("PGL2", 5), ("PGL2", 7)):
        fam = build_family(name, q)
        report, greens = theta_independence(fam)
        assert report.ok
        by_torus = {g.torus: g.values for g in greens}
        assert by_torus["split"]["regular"] == 1
        assert by_torus["nonsplit"]["regular"] == 1
        assert by_torus["split"]["one"] == q + 1
        assert by_torus["nonsplit"]["one"] == 1 - q


def _with_value(fam, r, j, value):
    """The family with one table value replaced."""
    rows = [list(row) for row in fam.table.rows]
    rows[r][j] = value
    table = fam.table._replace(rows=tuple(map(tuple, rows)))
    return fam._replace(table=table)


def test_theta_independence_names_distinct_values():
    fam = build_family("GL2", 5)
    ((j, _),) = [u for u in fam.unipotent_class_indices() if u[1] == "regular"]
    r = fam.label_to_row[("prin", (0, 1))]
    assert fam.table.rows[r][j] == cyc(1)
    report, _ = theta_independence(_with_value(fam, r, j, cyc(2)))
    assert [(c.name, c.detail) for c in report.failures()] == [
        ("valuni_split_regular_5A", "distinct values ['1', '2']")]


def test_vanishing_sums_full_group():
    for name, q in (("GL2", 3), ("GL2", 5), ("SL2", 7), ("PGL2", 7)):
        fam = build_family(name, q)
        assert vanishing_sum_report(fam).ok


def test_vanishing_sum_trivial_subgroup_documents_precondition():
    fam = build_family("GL2", 5)
    # H = {trivial}: the hypothesis fails and the sum is R_{T,1}(s) != 0
    [(total, qualified)] = torus_character_sums(fam, "split", [(0, 0)], [(1, 0)])
    assert not qualified
    assert not total.is_zero()


def test_vanishing_sum_failures_name_the_element_and_the_sum():
    fam = build_family("GL2", 5)
    rows = [list(row) for row in fam.table.rows]
    # conjugate one irrational value on a split class and one of
    # conductor 24 on a nonsplit class
    for row, cls in ((("lin", 1), ("split", (0, 3))), (("cusp", 7), ("nonsplit", 7))):
        r, j = fam.label_to_row[row], fam.label_to_class[cls]
        rows[r][j] = rows[r][j].conjugate()
    table = fam.table._replace(rows=tuple(map(tuple, rows)))
    report = vanishing_sum_report(fam._replace(table=table))
    assert not report.ok and len(report.items) == 38
    assert [(c.name, c.detail) for c in report.failures()] == [
        ("sum_split_s(0, 3)", "sum 2*E(4,1)"),
        ("sum_split_s(3, 0)", "sum 2*E(4,1)"),
        ("sum_nonsplit_s7", "sum -2*E(24,1) + 2*E(24,3) - 2*E(24,5) - 4*E(24,7)"),
        ("sum_nonsplit_s11", "sum -2*E(24,1) + 2*E(24,3) - 2*E(24,5) - 4*E(24,7)"),
    ]


def test_semisimple_values_on_unipotent():
    gl5 = build_family("GL2", 5)
    assert unipotent_values_report(gl5, gl5).ok
    sl7 = build_family("SL2", 7)
    pgl7 = build_family("PGL2", 7)
    assert unipotent_values_report(sl7, pgl7).ok
    assert unipotent_values_report(pgl7, sl7).ok
    # spec values: regular split t at u = 1 has degree q + 1 = 6
    data = {d.dual_label: d for d in dual_data(gl5, gl5)}
    one = gl5.label_to_class[("central", 0)]
    reg_split = data[("split", (0, 1))]
    assert semisimple_value_on_unipotent(gl5, reg_split, one) == cyc(6)
    seen = set()
    for d in dual_data(gl5, gl5):
        if d.dual_label[0] == "nonsplit":
            assert semisimple_value_on_unipotent(gl5, d, one) == cyc(4)
            seen.add(d.dual_label)
    assert seen


def test_semisimple_value_mismatch_raises():
    fam = build_family("GL2", 3)
    datum = dual_data(fam, fam)[0]
    bad = type(datum)(
        dual_label=datum.dual_label, dual_class_index=datum.dual_class_index,
        weyl_order=1, twist="nonsplit",  # wrong Weyl data on purpose
        centralizer_pprime=datum.centralizer_pprime,
        ss_rows=datum.ss_rows, reg_rows=datum.reg_rows,
        theta_split=datum.theta_split, theta_nonsplit=datum.theta_nonsplit)
    one = fam.label_to_class[("central", 0)]
    with pytest.raises(IdentityViolation):
        semisimple_value_on_unipotent(fam, bad, one)


def test_coset_value_formula():
    gl5 = build_family("GL2", 5)
    assert coset_values_report(gl5, gl5).ok
    # s = diag(2,1) split regular: value alpha(2)beta(1) + alpha(1)beta(2)
    data = {d.dual_label: d for d in dual_data(gl5, gl5)}
    s_class = gl5.label_to_class[("split", (0, 1))]  # exponents of (1, 2)
    d = data[("split", (0, 1))]
    v = dl_value_via_cosets(gl5, s_class, d, "split")
    from rigikit.cyclo import zeta

    # alpha(2)beta(1) + alpha(1)beta(2) with alpha = chi^1, beta = chi^0
    assert v == zeta(4, 1) + cyc(1)
    # s split regular is not met by the nonsplit torus: formula gives 0
    d_ns = data[("nonsplit", 1)]
    assert dl_value_via_cosets(gl5, s_class, d_ns, "nonsplit").is_zero()
    sl7 = build_family("SL2", 7)
    pgl7 = build_family("PGL2", 7)
    assert coset_values_report(sl7, pgl7).ok
    assert coset_values_report(pgl7, sl7).ok


def test_dual_symmetry_both_variants():
    for q in (3, 4, 5):
        fam = build_family("GL2", q)
        assert dual_symmetry_report(fam, fam).ok
        assert dual_symmetry_report(fam, fam, regular=True).ok
    for q in (5, 7):
        sl = build_family("SL2", q)
        pgl = build_family("PGL2", q)
        assert dual_symmetry_report(sl, pgl).ok
        assert dual_symmetry_report(sl, pgl, regular=True).ok


def test_dual_symmetry_names_constituents_that_differ():
    sl, pgl = build_family("SL2", 5), build_family("PGL2", 5)
    (datum,) = [d for d in dual_data(sl, pgl) if len(d.ss_rows) == 2
                and d.dual_label[0] == "split"]
    j = sl.semisimple_class_indices()[-1]
    r = datum.ss_rows[1]
    assert sl.table.classes[j].name == "6A" and sl.table.rows[r][j] == cyc(0)
    report = dual_symmetry_report(_with_value(sl, r, j, sl.table.rows[r][j] + cyc(1)), pgl)
    assert [(c.name, c.detail) for c in report.failures()] == [
        ("constituents_('split', 2)", "constituents differ on class 6A: 0 and 1")]


def test_dual_symmetry_pairing_failure_names_the_class():
    # a unipotent class whose table order is made prime to p counts as
    # semisimple, and no dual datum matches it
    fam = build_family("GL2", 5)
    j = fam.label_to_class[("unipotent", 0)]
    classes = list(fam.table.classes)
    assert classes[j].name == "5A"
    classes[j] = classes[j]._replace(order=4)
    bad = fam._replace(table=fam.table._replace(classes=tuple(classes)))
    report = dual_symmetry_report(bad, bad)
    assert len(report.items) == 20 * 20 + 1
    assert [(c.name, c.detail) for c in report.failures()] == [
        ("pairing_s5A", "no dual datum matches class 5A")]


def test_rank1_reports_keep_only_failures():
    # every identity is counted, but only failures are stored: each report
    # keeps a few tens of KB, not an object and a name per identity
    fam = build_family("GL2", 13)
    for report_of, count in ((coset_values_report, 26208), (dual_symmetry_report, 24336)):
        gc.collect()
        tracemalloc.start()
        try:
            report = report_of(fam, fam)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert report.ok and len(report.items) == count
        assert retained < 256 * 1024, (report_of.__name__, retained)


def _coset_items_oracle(fam, famGstar):
    """coset_values_report's items built one by one."""
    items = []
    for datum in dual_data(fam, famGstar):
        for torus in ("split", "nonsplit"):
            if datum.theta_for(torus) is None:
                continue
            for j in fam.semisimple_class_indices():
                name = "valRT_%s_%s_%s" % (datum.dual_label, torus, fam.table.classes[j].name)
                try:
                    dl_value_via_cosets(fam, j, datum, torus)
                    items.append((name, True, ""))
                except IdentityViolation as exc:
                    items.append((name, False, str(exc)))
    return items


def _dual_symmetry_items_oracle(famG, famGstar, regular):
    """dual_symmetry_report's items built one by one, for a pair whose
    constituents agree and whose semisimple classes all pair."""
    by_class_s = {d.dual_class_index: d for d in dual_data(famGstar, famG)}

    def row_of(fam, d):
        return fam.table.rows[(d.reg_rows if regular else d.ss_rows)[0]]

    def eps(family, label):
        rank = (label[0] != "nonsplit") + (family == "GL2")
        return -1 if regular and rank % 2 else 1

    items = []
    for s in famG.semisimple_class_indices():
        ds = by_class_s[s]
        c_s = eps(famG.family, famG.class_labels[s]) * famG.centralizer_pprime(s)
        for dt in dual_data(famG, famGstar):
            c_t = eps(famGstar.family, dt.dual_label) * dt.centralizer_pprime
            lhs = cyc(c_t) * row_of(famG, dt)[s]
            rhs = cyc(c_s) * row_of(famGstar, ds)[dt.dual_class_index]
            name = "sym%s_s=%s_t=%s" % ("_reg" if regular else "",
                                        famG.table.classes[s].name, dt.dual_label)
            items.append((name, lhs == rhs, "" if lhs == rhs else "lhs %s, rhs %s" % (lhs, rhs)))
    return items


def test_rank1_report_items_match_the_item_by_item_oracle():
    fam = build_family("GL2", 5)
    r = fam.label_to_row[("prin", (0, 1))]
    j = fam.label_to_class[("split", (0, 1))]
    bad = _with_value(fam, r, j, fam.table.rows[r][j] + cyc(1))
    for report, oracle in (
            (coset_values_report(bad, fam), _coset_items_oracle(bad, fam)),
            (dual_symmetry_report(bad, fam), _dual_symmetry_items_oracle(bad, fam, False)),
            (dual_symmetry_report(bad, fam, regular=True),
             _dual_symmetry_items_oracle(bad, fam, True))):
        items = report.items
        assert [(c.name, c.ok, c.detail) for c in items] == oracle
        assert not report.ok and [tuple(c) for c in report.failures()] == [
            c for c in oracle if not c[1]]
        lines = list(report.machine_block())
        assert len(lines) == len(items) == len(oracle)
        for line, c in zip(lines, items):
            assert line == "%s = %s" % (c.name, "pass" if c.ok else "FAIL: " + c.detail)


def test_dual_data_counts_match():
    # data for (G, G*) bijects with the semisimple classes of G*
    for q in (5, 7):
        sl = build_family("SL2", q)
        pgl = build_family("PGL2", q)
        assert len(dual_data(sl, pgl)) == len(pgl.semisimple_class_indices()) == q + 1
        assert len(dual_data(pgl, sl)) == len(sl.semisimple_class_indices()) == q
    gl = build_family("GL2", 5)
    assert len(dual_data(gl, gl)) == len(gl.semisimple_class_indices()) == 5 * 4


def _dual_data_by_row_label(famG, famGstar):
    row_label = {r: lab for lab, r in famG.label_to_row.items()}
    return [(d.dual_label, d.weyl_order, d.twist,
             [row_label[r] for r in d.ss_rows], [row_label[r] for r in d.reg_rows],
             d.theta_split, d.theta_nonsplit)
            for d in dual_data(famG, famGstar)]


def test_dual_data_pinned_by_row_label():
    # the Lusztig series of each semisimple class of the dual group, written
    # out by hand at small q for the three dual pairs, in the builders' order
    sl5, pgl5 = build_family("SL2", 5), build_family("PGL2", 5)
    assert _dual_data_by_row_label(sl5, pgl5) == [
        (("central", 0), 2, None, [("triv",)], [("st",)], 0, 0),
        (("split", 1), 1, "split", [("prin", 1)], [("prin", 1)], 1, None),
        (("split", 2), 1, "split", [("xi", 0), ("xi", 1)],
         [("xi", 0), ("xi", 1)], 2, None),
        (("nonsplit", 1), 1, "nonsplit", [("disc", 1)], [("disc", 1)], None, 1),
        (("nonsplit", 2), 1, "nonsplit", [("disc", 2)], [("disc", 2)], None, 2),
        (("nonsplit", 3), 1, "nonsplit", [("eta", 0), ("eta", 1)],
         [("eta", 0), ("eta", 1)], None, 3),
    ]
    assert _dual_data_by_row_label(pgl5, sl5) == [
        (("central", 0), 2, None, [("triv",)], [("st",)], 0, 0),
        (("central", 1), 2, None, [("sgn",)], [("sgnst",)], 2, 3),
        (("split", 1), 1, "split", [("prin", 1)], [("prin", 1)], 1, None),
        (("nonsplit", 1), 1, "nonsplit", [("cusp", 1)], [("cusp", 1)], None, 1),
        (("nonsplit", 2), 1, "nonsplit", [("cusp", 2)], [("cusp", 2)], None, 2),
    ]
    gl3 = build_family("GL2", 3)
    assert _dual_data_by_row_label(gl3, gl3) == [
        (("central", 0), 2, None, [("lin", 0)], [("stlin", 0)], (0, 0), 0),
        (("central", 1), 2, None, [("lin", 1)], [("stlin", 1)], (1, 1), 4),
        (("split", (0, 1)), 1, "split", [("prin", (0, 1))], [("prin", (0, 1))],
         (0, 1), None),
    ] + [(("nonsplit", r), 1, "nonsplit", [("cusp", r)], [("cusp", r)], None, r)
         for r in (1, 2, 5)]


def _rank1_families():
    for q in (3, 4, 5, 7, 8, 9, 11, 13):
        yield build_family("GL2", q)
    for q in (3, 5, 7, 11, 13):
        yield build_family("SL2", q)
        yield build_family("PGL2", q)


def test_class_kinds_match_label_kinds():
    # oracle: the kind of each builder label; the identity is ("central", 0)
    # and the unipotent labels without a central part are GL2's a = 0, SL2's
    # c and d, and PGL2's single class
    pure_unipotent = {("unipotent", 0), ("unipotent", "c"), ("unipotent", "d"),
                      ("unipotent",)}
    for fam in _rank1_families():
        labels = [fam.class_labels[j] for j in range(fam.table.n_classes)]
        assert fam.semisimple_class_indices() == [
            j for j, lab in enumerate(labels) if lab[0] != "unipotent"]
        assert fam.unipotent_class_indices() == sorted(
            [(fam.label_to_class[("central", 0)], "one")]
            + [(j, "regular") for j, lab in enumerate(labels)
               if lab in pure_unipotent]), (fam.family, fam.q)


def test_torus_element_classes_fold_the_parameter():
    # oracle for SL2 and PGL2: t and -t are conjugate; 0 is the identity and,
    # in SL2, n/2 is the central element -1
    for fam in _rank1_families():
        if fam.family == "GL2":
            continue
        for torus in ("split", "nonsplit"):
            n = fam.q - 1 if torus == "split" else fam.q + 1
            for t in torus_elements(fam, torus):
                e = min(t % n, -t % n)
                if e == 0:
                    lab = ("central", 0)
                elif fam.family == "SL2" and e == n // 2:
                    lab = ("central", 1)
                else:
                    lab = (torus, e)
                assert torus_element_class(fam, torus, t) == fam.label_to_class[lab]


def test_power_label_matches_orders_and_power_maps():
    # oracle: x^r has order o / gcd(o, r), and when every prime of r divides
    # the exponent, the class of x^r is reached by the table's prime power
    # maps one prime at a time; r runs to twice the exponent, so through
    # multiples of p that are not p itself
    for name, qs in (("GL2", (4, 5, 9)), ("SL2", (3, 5, 7)), ("PGL2", (3, 5, 7))):
        for q in qs:
            fam = build_family(name, q)
            classes = fam.table.classes
            maps = [c.power_map for c in classes]
            primes = prime_factors(fam.table.exponent)
            for lab in fam.labels:
                j = fam.label_to_class[lab]
                o = classes[j].order
                for r in range(1, 2 * fam.table.exponent + 1):
                    got = fam.label_to_class[fam.power_label(lab, r)]
                    assert classes[got].order == o // gcd(o, r), (name, q, lab, r)
                    walk, rest = j, r
                    for ell in primes:
                        while rest % ell == 0:
                            walk, rest = maps[walk][ell], rest // ell
                    if rest == 1:
                        assert got == walk, (name, q, lab, r)


def test_generic_tables_match_dixon_oracle():
    for spec, name, q in (("GL(2,3)", "GL2", 3), ("SL(2,3)", "SL2", 3),
                          ("SL(2,5)", "SL2", 5), ("PGL(2,5)", "PGL2", 5),
                          ("SL(2,7)", "SL2", 7), ("PGL(2,7)", "PGL2", 7),
                          ("SL(2,13)", "SL2", 13), ("PGL(2,13)", "PGL2", 13)):
        dix = character_table_dixon(group_from_spec(spec))
        gen = build_family(name, q).table
        assert same_character_data(dix, gen), spec


# The hand-written PGL2 class data, SL2/PGL2 R_{T,theta} tables and GL2
# values (one formula per row kind and class kind) that the builders once
# carried, kept here as the oracle for the versions read off GL2's classes,
# GL2's R_{T,theta} and GL2's structure.


def _pgl2_reference_classes(q):
    """Labels, sizes, orders and power map of PGL2(q), written by hand."""
    n1, n2 = q - 1, q + 1
    labels, sizes, orders = [("central", 0), ("unipotent",)], [1, q * q - 1], [1, q]
    for d in range(1, (q - 1) // 2 + 1):
        labels.append(("split", d))
        sizes.append(q * (q + 1) // (2 if d == n1 // 2 else 1))
        orders.append(n1 // gcd(d, n1))
    for m in range(1, (q + 1) // 2 + 1):
        labels.append(("nonsplit", m))
        sizes.append(q * (q - 1) // (2 if m == n2 // 2 else 1))
        orders.append(n2 // gcd(m, n2))

    def power_label(label, r):
        kind = label[0]
        if kind == "central":
            return label
        if kind == "unipotent":
            return ("central", 0) if r % q == 0 else label
        n = n1 if kind == "split" else n2
        e = min(label[1] * r % n, -label[1] * r % n)
        return ("central", 0) if e == 0 else (kind, e)

    return labels, sizes, orders, power_label


# (family, torus) -> (row kind of the regular thetas, constituents with
# coefficients at the theta of order 2); the sign of R_{T,theta} is +1 on
# the split torus and -1 on the nonsplit one
_REFERENCE_DL_ROWS = {
    ("SL2", "split"): ("prin", ((("xi", 0), 1), (("xi", 1), 1))),
    ("SL2", "nonsplit"): ("disc", ((("eta", 0), -1), (("eta", 1), -1))),
    ("PGL2", "split"): ("prin", ((("sgn",), 1), (("sgnst",), 1))),
    ("PGL2", "nonsplit"): ("cusp", ((("sgn",), 1), (("sgnst",), -1))),
}


def _reference_dl(family, q, torus, theta):
    """R_{T,theta} as (row label, coefficient) pairs, in the order listed."""
    regular_kind, order_two = _REFERENCE_DL_ROWS[family, torus]
    sign = 1 if torus == "split" else -1
    n = q - 1 if torus == "split" else q + 1
    i = min(theta % n, -theta % n)
    if i == 0:
        return [(("triv",), 1), (("st",), sign)]
    if i == n // 2:
        return list(order_two)
    return [((regular_kind, i), sign)]


ODD_PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@pytest.mark.parametrize("q", ODD_PRIMES_TO_31)
def test_pgl2_classes_read_off_gl2_match_the_hand_written_ones(q):
    fam = build_family("PGL2", q)
    labels, sizes, orders, power_label = _pgl2_reference_classes(q)
    assert fam.labels == labels
    classes = [fam.table.classes[fam.label_to_class[lab]] for lab in labels]
    assert [c.size for c in classes] == sizes
    assert [c.order for c in classes] == orders
    for lab in labels:
        for r in range(2 * fam.table.exponent + 1):
            assert fam.power_label(lab, r) == power_label(lab, r), (lab, r)
    for torus in ("split", "nonsplit"):
        n = q - 1 if torus == "split" else q + 1
        for t in range(-n, 2 * n):  # unreduced parameters too
            assert torus_element_class(fam, torus, t) == \
                fam.label_to_class[power_label((torus, t), 1)], (torus, t)


@pytest.mark.parametrize("q", ODD_PRIMES_TO_31)
@pytest.mark.parametrize("family", ("SL2", "PGL2"))
def test_dl_read_off_gl2_matches_the_hand_written_rows(family, q):
    fam = build_family(family, q)
    row_label = {r: lab for lab, r in fam.label_to_row.items()}
    for torus in ("split", "nonsplit"):
        n = q - 1 if torus == "split" else q + 1
        for theta in range(-n, 2 * n):  # every theta, unreduced ones too
            dl = dl_character(fam, torus, theta)
            assert [(row_label[r], c) for r, c in dl.decomposition.items()] \
                == _reference_dl(family, q, torus, theta), (torus, theta)


def _gl2_reference_value(row, cls, q):
    """The GL2 value written out for each (row kind, class kind) pair."""
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
        return zeta(n1, k * cls[1])
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
            return zeta(n1, i * a + j * b) + zeta(n1, j * a + i * b)
        return cyc(0)
    e0 = row[1]
    if kind == "central":
        return cyc(q - 1) * zeta(n1, e0 * cls[1])
    if kind == "unipotent":
        return -zeta(n1, e0 * cls[1])
    if kind == "split":
        return cyc(0)
    e = cls[1]
    return -(zeta(n2, e0 * e) + zeta(n2, e0 * e * q))


@pytest.mark.parametrize("q", (3, 4, 5, 7, 8, 9, 11, 13, 16))
def test_gl2_values_match_the_case_by_case_table(q):
    classes = _gl2_class_list(q)[0]
    for row in _gl2_row_labels(q):
        for cls in classes:
            assert _key_value(_gl2_value(row, cls, q)) \
                == _gl2_reference_value(row, cls, q), (row, cls)
