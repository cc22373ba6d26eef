"""Per-layer metrics derived from the span files that tracer.py writes.

Times are self times: a span's duration minus the spans it encloses, so
each traced second is counted once, in the innermost wrapped call. The
measured cost of the hot-span wrapper is taken out again: `parent_s` per
hot call from its caller's self time and `inside_s` from the hot span's
own time.
"""

from __future__ import annotations

from collections import defaultdict


def _totals(docs):
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    counters = defaultdict(int)
    for doc in docs:
        parent_s, inside_s = doc["overhead"]["parent_s"], doc["overhead"]["inside_s"]
        for _id, name, start, end, _parent, own, hot_children in doc["spans"]:
            self_s[name] += own - hot_children * parent_s
            total_s[name] += end - start
            calls[name] += 1
        for name, _parent, n, total, own, hot_children in doc["hot"]:
            self_s[name] += own - n * inside_s - hot_children * parent_s
            total_s[name] += total - n * inside_s
            calls[name] += n
        for name, value in doc["counters"].items():
            counters[name] += value
    return self_s, total_s, calls, counters


def layer_metrics(docs) -> dict:
    """name -> (value, unit), summed over every traced job."""
    self_s, total_s, calls, counters = _totals(docs)

    def s(*names):
        return (sum(self_s[n] for n in names), "s")

    def n(*names):
        return (sum(calls[x] for x in names), "count")

    mul = calls["smallgrp.GroupElement.__mul__"]
    elements = counters["smallgrp.elements"]
    from_terms = ("cyclo.from_terms", "cyclo.from_terms@dixon")
    return {
        "smallgrp.closure_s": s("smallgrp.closure"),
        "smallgrp.classes_s": s("smallgrp.conjugacy_classes"),
        "smallgrp.orbit_s": s("smallgrp.class_orbit"),
        "smallgrp.triple_count_s": s("smallgrp.direct_triple_count"),
        "smallgrp.unipotent_test_s": s("smallgrp.is_quadratic_unipotent",
                                       "smallgrp.jordan_type"),
        "smallgrp.elem_mul_s": s("smallgrp.GroupElement.__mul__"),
        "smallgrp.elem_inverse_s": s("smallgrp.GroupElement.inverse"),
        "smallgrp.elem_mul_calls": (mul, "count"),
        "smallgrp.elem_inverse_calls": n("smallgrp.GroupElement.inverse"),
        "smallgrp.elements": (elements, "count"),
        "smallgrp.mul_per_element": (mul / elements if elements else 0.0, "1"),
        "dixon.table_self_s": s("dixon.character_table_dixon_mapped"),
        "dixon.lift_canon_s": (total_s["cyclo.from_terms@dixon"], "s"),
        "dixon.lift_values": n("cyclo.from_terms@dixon"),
        "dixon.lift_conductor_sum": (counters["dixon.lift_conductor_sum"], "count"),
        "chartable.layout_s": s("chartable.canonical_layout"),
        "chartable.build_s": s("chartable.build_table_mapped"),
        "chartable.emit_s": s("chartable.emit_ctb"),
        "chartable.parse_s": s("chartable.parse_ctb"),
        "chartable.validate_s": s("chartable.validate"),
        "cyclo.parse_value_s": s("cyclo.parse_value"),
        "cyclo.parse_value_calls": n("cyclo.parse_value"),
        "cyclo.format_value_s": s("cyclo.format_value"),
        "cyclo.from_terms_s": s(*from_terms),
        "cyclo.from_terms_calls": n(*from_terms),
        "cyclo.raw_mul_s": s("cyclo.raw_mul"),
        "cyclo.raw_mul_calls": n("cyclo.raw_mul"),
        "cyclo.raw_aux_s": s("cyclo.raw_embed", "cyclo.raw_conjugate",
                             "cyclo.raw_equals_rational"),
        "cyclo.cyc_mul_s": s("cyclo.Cyclotomic.__mul__"),
        "cyclo.cyc_mul_calls": n("cyclo.Cyclotomic.__mul__"),
        "cyclo.cyc_add_s": s("cyclo.Cyclotomic.__add__"),
        "cyclo.cyc_add_calls": n("cyclo.Cyclotomic.__add__"),
        "rigidity.count_s": s("rigidity.frobenius_count", "rigidity.nontrivial_sum",
                              "rigidity.rigidity_verdict"),
        "dl_rank1.build_s": s("dl_rank1.build_family"),
        "dl_rank1.checks_s": s("dl_rank1.theta_independence", "dl_rank1.vanishing_sum_report",
                               "dl_rank1.unipotent_values_report",
                               "dl_rank1.coset_values_report"),
        "dl_rank1.dualsym_s": s("dl_rank1.dual_symmetry_report"),
        "dl_rank1.identities": (counters["dl_rank1.identities"], "count"),
        "cli.self_s": s("cli.main"),
    }
