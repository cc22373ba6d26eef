"""Traced CLI job: wrap the module attributes that rigikit's callers look up,
run `rigikit.cli.main`, and write the spans when the job ends.

    python perfbench/tracer.py SPANS.json JOB_ID -- ARGS...

runs `rigikit ARGS...` with the same stdout and exit status as
`python -m rigikit ARGS...`. Every wrapped call is a span: name, start, end,
parent span and job id, with its self time (duration minus the spans it
encloses) computed as it closes. Coarse spans are kept one by one. Hot
spans (the per-element and per-value kernels, called up to millions of
times per job) are kept as one aggregate per (name, parent name): calls,
total time and self time. Counters are recorded at the same boundaries.
The per-call cost of a hot span is measured on an empty function before
the job starts and stored with the spans, so that layers.py can take it
back out of the self times.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, attribute path, span name, hot); a function imported into several
# modules is wrapped where each caller looks it up
WRAPPED = [
    ("rigikit.cli", "main", "cli.main", False),
    # smallgrp
    ("rigikit.smallgrp", "closure", "smallgrp.closure", False),
    ("rigikit.smallgrp", "parse_generator_file", "smallgrp.parse_generator_file", False),
    ("rigikit.smallgrp", "conjugacy_classes", "smallgrp.conjugacy_classes", False),
    ("rigikit.dixon", "conjugacy_classes", "smallgrp.conjugacy_classes", False),
    ("rigikit.smallgrp", "class_orbit", "smallgrp.class_orbit", False),
    ("rigikit.smallgrp", "direct_triple_count", "smallgrp.direct_triple_count", False),
    ("rigikit.smallgrp", "jordan_type", "smallgrp.jordan_type", False),
    ("rigikit.smallgrp", "is_quadratic_unipotent", "smallgrp.is_quadratic_unipotent", True),
    ("rigikit.smallgrp", "lemma_sl_triple_count", "smallgrp.lemma_sl_triple_count", False),
    ("rigikit.smallgrp", "lemma_so_triple_count", "smallgrp.lemma_so_triple_count", False),
    ("rigikit.smallgrp", "GroupElement.__mul__", "smallgrp.GroupElement.__mul__", True),
    ("rigikit.smallgrp", "GroupElement.inverse", "smallgrp.GroupElement.inverse", True),
    # dixon
    ("rigikit.dixon", "character_table_dixon", "dixon.character_table_dixon", False),
    ("rigikit.dixon", "character_table_dixon_mapped",
     "dixon.character_table_dixon_mapped", False),
    ("rigikit.dixon", "from_terms", "cyclo.from_terms@dixon", True),
    ("rigikit.dixon", "build_table_mapped", "chartable.build_table_mapped", False),
    # chartable
    ("rigikit.chartable", "parse_ctb", "chartable.parse_ctb", False),
    ("rigikit.chartable", "emit_ctb", "chartable.emit_ctb", False),
    ("rigikit.chartable", "validate", "chartable.validate", False),
    ("rigikit.chartable", "canonical_layout", "chartable.canonical_layout", False),
    ("rigikit.chartable", "build_table_mapped", "chartable.build_table_mapped", False),
    ("rigikit.chartable", "parse_value", "cyclo.parse_value", True),
    ("rigikit.chartable", "format_value", "cyclo.format_value", True),
    ("rigikit.chartable", "raw_mul", "cyclo.raw_mul", True),
    ("rigikit.chartable", "raw_embed", "cyclo.raw_embed", True),
    ("rigikit.chartable", "raw_conjugate", "cyclo.raw_conjugate", True),
    ("rigikit.chartable", "raw_equals_rational", "cyclo.raw_equals_rational", True),
    # cyclo
    ("rigikit.cyclo", "from_terms", "cyclo.from_terms", True),
    ("rigikit.cyclo", "format_value", "cyclo.format_value", True),
    ("rigikit.cyclo", "Cyclotomic.__mul__", "cyclo.Cyclotomic.__mul__", True),
    ("rigikit.cyclo", "Cyclotomic.__rmul__", "cyclo.Cyclotomic.__mul__", True),
    ("rigikit.cyclo", "Cyclotomic.__add__", "cyclo.Cyclotomic.__add__", True),
    ("rigikit.cyclo", "Cyclotomic.__radd__", "cyclo.Cyclotomic.__add__", True),
    # rigidity
    ("rigikit.rigidity", "frobenius_count", "rigidity.frobenius_count", False),
    ("rigikit.rigidity", "nontrivial_sum", "rigidity.nontrivial_sum", False),
    ("rigikit.rigidity", "rigidity_verdict", "rigidity.rigidity_verdict", False),
    ("rigikit.rigidity", "format_value", "cyclo.format_value", True),
    # dl_rank1
    ("rigikit.dl_rank1", "build_family", "dl_rank1.build_family", False),
    ("rigikit.dl_rank1", "from_terms", "cyclo.from_terms", True),
    ("rigikit.dl_rank1", "build_table_mapped", "chartable.build_table_mapped", False),
    ("rigikit.dl_rank1", "theta_independence", "dl_rank1.theta_independence", False),
    ("rigikit.dl_rank1", "vanishing_sum_report", "dl_rank1.vanishing_sum_report", False),
    ("rigikit.dl_rank1", "unipotent_values_report", "dl_rank1.unipotent_values_report", False),
    ("rigikit.dl_rank1", "coset_values_report", "dl_rank1.coset_values_report", False),
    ("rigikit.dl_rank1", "dual_symmetry_report", "dl_rank1.dual_symmetry_report", False),
]


def _report_items(rep) -> int:
    return len(rep[0].items if isinstance(rep, tuple) else rep.items)


# counters recorded when a span closes: span name -> (counter, f(args, result))
COUNTERS = {
    "smallgrp.closure": ("smallgrp.elements", lambda args, res: len(res.elements)),
    "smallgrp.class_orbit": ("smallgrp.elements", lambda args, res: len(res)),
    "cyclo.from_terms@dixon": ("dixon.lift_conductor_sum", lambda args, res: args[0]),
    "dl_rank1.theta_independence": ("dl_rank1.identities", lambda a, r: _report_items(r)),
    "dl_rank1.vanishing_sum_report": ("dl_rank1.identities", lambda a, r: _report_items(r)),
    "dl_rank1.unipotent_values_report": ("dl_rank1.identities", lambda a, r: _report_items(r)),
    "dl_rank1.coset_values_report": ("dl_rank1.identities", lambda a, r: _report_items(r)),
    "dl_rank1.dual_symmetry_report": ("dl_rank1.identities", lambda a, r: _report_items(r)),
}


class Tracer:
    """Span recorder for one job; all state lives on the instance."""

    def __init__(self, job: str):
        self.job = job
        # open spans: [child time, name, span id or None, hot child calls]
        self.stack = [[0.0, None, None, 0]]
        # [id, name, start, end, parent id, self time, hot child calls]
        self.spans = []
        # (name, parent name) -> [calls, total time, self time, hot child calls]
        self.hot = {}
        self.counters = {}
        self.overhead = {}

    def wrap(self, fn, name: str, hot: bool):
        stack = self.stack
        counter = COUNTERS.get(name)
        counters = self.counters
        if hot:
            table = self.hot

            def hot_span(*args, **kwargs):
                parent = stack[-1]
                frame = [0.0, name, None, 0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    parent[0] += dur
                    parent[3] += 1
                    key = (name, parent[1])
                    agg = table.get(key)
                    if agg is None:
                        agg = table[key] = [0, 0.0, 0.0, 0]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[0]
                    agg[3] += frame[3]
                if counter is not None:
                    counters[counter[0]] = counters.get(counter[0], 0) + counter[1](args, result)
                return result
            return hot_span

        spans = self.spans

        def span(*args, **kwargs):
            parent = stack[-1]
            record = [len(spans), name, 0.0, 0.0, parent[2], 0.0, 0]
            spans.append(record)
            frame = [0.0, name, record[0], 0]
            stack.append(frame)
            record[2] = t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = t1 = perf_counter()
                stack.pop()
                parent[0] += t1 - t0
                record[5] = t1 - t0 - frame[0]
                record[6] = frame[3]
            if counter is not None:
                counters[counter[0]] = counters.get(counter[0], 0) + counter[1](args, result)
            return result
        return span

    def calibrate(self, calls: int = 4000, rounds: int = 7) -> None:
        """Per-call cost of a hot span, measured on an empty function:
        `parent_s` lands in the caller's self time, `inside_s` in the
        span's own duration. layers.py subtracts both."""
        def noop():
            return None
        traced = self.wrap(noop, "calibration", True)
        parent, inside = [], []
        for _ in range(rounds):
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            bare = (perf_counter() - t0) / calls
            t0 = perf_counter()
            for _ in range(calls):
                traced()
            wrapped = (perf_counter() - t0) / calls
            recorded = self.hot.pop(("calibration", None))[1] / calls
            parent.append(wrapped - recorded)
            inside.append(recorded - bare)
        self.stack[0][:] = [0.0, None, None, 0]
        self.overhead = {"parent_s": sorted(parent)[rounds // 2],
                         "inside_s": sorted(inside)[rounds // 2]}

    def install(self) -> None:
        for module, path, name, hot in WRAPPED:
            *owners, attr = path.split(".")
            owner = importlib.import_module(module)
            for part in owners:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, hot))

    def dump(self, path: str) -> None:
        doc = {
            "job": self.job,
            "overhead": self.overhead,
            "spans": self.spans,
            "hot": [[n, p, *agg] for (n, p), agg in sorted(
                self.hot.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))],
            "counters": self.counters,
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def main(argv) -> int:
    spans_path, job = argv[0], argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: tracer.py SPANS.json JOB_ID -- ARGS...")
    tracer = Tracer(job)
    tracer.calibrate()
    tracer.install()
    import rigikit.cli
    try:
        return rigikit.cli.main(argv[3:])
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
