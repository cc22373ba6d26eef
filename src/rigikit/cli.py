"""Command-line front end.

Exit status: 0 on success, 1 when a requested check fails (any violated
identity or a nonzero nonexistence count), 2 on usage or input errors.
Reports are deterministic for fixed inputs; `--machine` switches to the
key-value block format.

Each `cmd_*` imports the modules its verb runs, so that a job compiles no
other; `build_parser` loads none, and its literal `--cap` defaults and
`--type` choices are pinned to `smallgrp`, `dl_rank1` and `regunip` by the
tests.
Input files are read as bytes, which `modp.read_lines` checks are ASCII.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rigikit",
        description="Exact character-table computations: validation, "
                    "structure constants, rigidity verdicts, Dixon tables, "
                    "rank-1 Deligne-Lusztig checks, and regular-unipotent "
                    "order filters.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the table invariant suite on a CTB file")
    p.add_argument("table", help="CTB v1 file")
    p.add_argument("--no-orthogonality", action="store_true",
                   help="structural checks only")

    p = sub.add_parser("structconst",
                       help="product-1 triple count and nontrivial character sum")
    p.add_argument("table")
    p.add_argument("classes", nargs=3, metavar="CLASS",
                   help="three class names, e.g. 2A 3A 7A")
    p.add_argument("--machine", action="store_true")

    p = sub.add_parser("rigid", help="rigidity verdict for a class triple")
    p.add_argument("table")
    p.add_argument("classes", nargs=3, metavar="CLASS")
    p.add_argument("--center", type=int, default=1, metavar="Z",
                   help="order of the center (default 1)")
    p.add_argument("--assume-generation", action="store_true",
                   help="treat generation by every triple as established")
    p.add_argument("--machine", action="store_true")

    p = sub.add_parser("dixon",
                       help="enumerate a matrix group and emit its exact "
                            "character table as CTB")
    p.add_argument("group", help="group spec: SL(n,p) GL(n,p) SO(2m,p) "
                                 "PSL(n,p) PGL(n,p), or @file of generators")
    p.add_argument("--cap", type=int, default=2_000_000,
                   help="refuse a group of more than CAP elements (a spec's by its "
                        "order, before any work)")
    p.add_argument("--projective", action="store_true",
                   help="with @file generators: take the group modulo scalars")

    p = sub.add_parser("dl",
                       help="build a generic rank-1 table (GL2/SL2/PGL2 at q) "
                            "and run identity checks or emit CTB")
    p.add_argument("--family", required=True, choices=["GL2", "SL2", "PGL2"])
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--emit", action="store_true", help="print the CTB table")
    p.add_argument("--check", choices=["valuni", "sums", "ssvals", "cosets", "all"],
                   help="run the named identity suite")
    p.add_argument("--cap", type=int, default=8_000_000,
                   help="refuse a table of more than CAP entries (k^2 for k classes)")
    p.add_argument("--machine", action="store_true")

    p = sub.add_parser("dualsym",
                       help="dual-group symmetry of semisimple character values")
    p.add_argument("--pair", required=True, choices=["GL2", "SL2PGL2"],
                   help="GL2 self-dual, or the SL2/PGL2 dual pair")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--regular", action="store_true",
                   help="check the regular-character variant instead")
    p.add_argument("--cap", type=int, default=8_000_000,
                   help="refuse a table of more than CAP entries (k^2 for k classes)")
    p.add_argument("--machine", action="store_true")

    p = sub.add_parser("regunip",
                       help="regular-unipotent element orders and the "
                            "overgroup pruning filter")
    p.add_argument("--type", required=True, dest="gtype",
                   choices=["E6", "E7", "E8", "F4", "G2"])
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--filter", action="store_true",
                   help="filter the candidate pool at (type, p)")
    p.add_argument("--pool", metavar="FILE",
                   help="candidate pool file (default: the shipped fixture)")
    p.add_argument("--two-classes", action="store_true",
                   help="also exclude candidates with cyclic Sylow p-subgroup")

    p = sub.add_parser("lemma",
                       help="brute-force nonexistence counts for "
                            "(involution, quadratic unipotent, regular "
                            "unipotent) triples")
    lemma_sub = p.add_subparsers(dest="lemma_kind", required=True)
    psl = lemma_sub.add_parser("sl", help="special linear groups")
    psl.add_argument("--n", required=True, type=int)
    psl.add_argument("--q", required=True, type=int)
    psl.add_argument("--cap", type=int, default=1_000_000,
                     help="refuse an involution class of more than CAP elements before any work")
    pso = lemma_sub.add_parser("so", help="even orthogonal groups SO_{2m}")
    pso.add_argument("--m", required=True, type=int)
    pso.add_argument("--q", required=True, type=int)
    pso.add_argument("--cap", type=int, default=2_000_000,
                     help="refuse a group of more than CAP elements before any work")

    return top


def _load_table(path: str):
    from . import chartable
    return chartable.parse_ctb(Path(path).read_bytes())


def _resolve_classes(table, names):
    from . import rigidity
    return rigidity.ClassTriple(*(table.class_index(n) for n in names))


def cmd_validate(args) -> int:
    from . import chartable
    table = _load_table(args.table)
    report = chartable.validate(table, orthogonality=not args.no_orthogonality)
    print("table %s: order %d, %d classes" % (table.name, table.order,
                                              table.n_classes))
    print(report)
    return 0 if report.ok else 1


def cmd_structconst(args) -> int:
    from . import rigidity
    table = _load_table(args.table)
    triple = _resolve_classes(table, args.classes)
    report = rigidity.rigidity_verdict(table, triple)  # one character sum
    n, f = report.triple_count, report.f_value
    if args.machine:
        print("N = %d" % n)
        print("f = %s" % f)
    else:
        print("triples (%s, %s, %s) with product 1: N = %d"
              % (args.classes[0], args.classes[1], args.classes[2], n))
        print("nontrivial character sum f = %s" % f)
    return 0


def cmd_rigid(args) -> int:
    from . import rigidity
    table = _load_table(args.table)
    triple = _resolve_classes(table, args.classes)
    report = rigidity.rigidity_verdict(
        table, triple, center_order=args.center,
        generation_assumed=args.assume_generation)
    print(report.machine_block() if args.machine else report.text_report())
    return 0


def cmd_dixon(args) -> int:
    from . import chartable, dixon, smallgrp
    if args.projective and not args.group.startswith("@"):
        raise ValueError("--projective applies only to @file generators, not to %r"
                         % args.group)
    if args.group.startswith("@"):
        gens = smallgrp.parse_generator_file(Path(args.group[1:]).read_bytes(),
                                             projective=args.projective)
        # generators span some subgroup: name only the ambient group
        group = smallgrp.closure(
            gens, cap=args.cap,
            kind="subgroup of %s" % ("PGL" if args.projective else "GL"))
    else:
        group = smallgrp.group_from_spec(args.group, cap=args.cap)
    table = dixon.character_table_dixon(group)
    _write_text(chartable.emit_ctb(table))
    return 0


def _write_text(text: str) -> None:
    """Write text to stdout in 64 KiB slices, so that its encoder never
    holds a copy of the whole of a large table's text."""
    step = 1 << 16
    for start in range(0, len(text), step):
        sys.stdout.write(text[start:start + step])


def _print_report(rep, machine: bool, head: str, noun: str) -> int:
    """Print a check report (a summary line and the failures, or the
    machine block); return the exit status it calls for."""
    if machine:
        sys.stdout.writelines(line + "\n" for line in rep.machine_block())
    else:
        bad = rep.failures()
        print("%s: %d %s, %s" % (head, len(rep.items), noun,
                                 "all pass" if not bad else "%d FAIL" % len(bad)))
        for i in bad:
            print("  FAIL %s: %s" % (i.name, i.detail))
    return 0 if rep.ok else 1


def cmd_dl(args) -> int:
    from . import chartable, dl_rank1
    fam = dl_rank1.build_family(args.family, args.q, cap=args.cap)
    status = 0
    if args.emit or not args.check:
        _write_text(chartable.emit_ctb(fam.table))
    if args.check:
        reports = []
        if args.check in ("valuni", "all"):
            reports.append(dl_rank1.theta_independence(fam)[0])
        if args.check in ("sums", "all"):
            reports.append(dl_rank1.vanishing_sum_report(fam))
        if args.check in ("ssvals", "cosets", "all"):
            dual = fam if fam.family == "GL2" else dl_rank1.build_family(
                "PGL2" if fam.family == "SL2" else "SL2", args.q, cap=args.cap)
            if args.check in ("ssvals", "all"):
                reports.append(dl_rank1.unipotent_values_report(fam, dual))
            if args.check in ("cosets", "all"):
                reports.append(dl_rank1.coset_values_report(fam, dual))
        for rep in reports:
            status = max(status, _print_report(rep, args.machine, rep.title,
                                               "identities"))
    return status


def cmd_dualsym(args) -> int:
    from . import dl_rank1
    if args.pair == "GL2":
        fam = dl_rank1.build_family("GL2", args.q, cap=args.cap)
        dual = fam
    else:
        fam = dl_rank1.build_family("SL2", args.q, cap=args.cap)
        dual = dl_rank1.build_family("PGL2", args.q, cap=args.cap)
    rep = dl_rank1.dual_symmetry_report(fam, dual, regular=args.regular)
    return _print_report(rep, args.machine, "%s at q = %d" % (rep.title, args.q),
                         "pairs")


def cmd_regunip(args) -> int:
    from . import regunip
    # the pool is read, and a flag without --filter refused, before any output
    if args.filter:
        pool = (regunip.parse_pool(Path(args.pool).read_bytes()) if args.pool
                else regunip.load_pool())
    else:
        for flag, given in (("--pool", args.pool), ("--two-classes", args.two_classes)):
            if given:
                raise ValueError("%s applies only with --filter" % flag)
    order = regunip.regular_unipotent_order(args.gtype, args.p)
    print("order = %d" % order)
    if not args.filter:
        return 0
    verdicts = regunip.filter_candidates(
        args.gtype, args.p, pool,
        require_two_unipotent_classes=args.two_classes)
    for v in sorted(verdicts, key=lambda v: (not v.survives, v.label)):
        print(v.line())
    print("survivors = %s"
          % (",".join(sorted(v.label for v in verdicts if v.survives)) or "none"))
    return 0


def cmd_lemma(args) -> int:
    from . import smallgrp
    if args.lemma_kind == "sl":
        counts = smallgrp.lemma_sl_triple_count(args.n, args.q, orbit_cap=args.cap)
        what = "SL%d(%d)" % (args.n, args.q)
    else:
        counts = smallgrp.lemma_so_triple_count(args.m, args.q, cap=args.cap)
        what = "SO%d(%d)" % (2 * args.m, args.q)
    for key in sorted(k for k in counts if k != "total"):
        print("%s = %d" % (key, counts[key]))
    total = counts["total"]
    print("total = %d" % total)
    print("verdict = %s" % ("no-such-triples" if total == 0 else "TRIPLES EXIST"))
    return 0 if total == 0 else 1


_DISPATCH = {
    "validate": cmd_validate,
    "structconst": cmd_structconst,
    "rigid": cmd_rigid,
    "dixon": cmd_dixon,
    "dl": cmd_dl,
    "dualsym": cmd_dualsym,
    "regunip": cmd_regunip,
    "lemma": cmd_lemma,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (OSError, ValueError, KeyError) as exc:  # every domain error is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:  # a refusal before any work carries its reason
        print("error: out of memory: %s" % (str(exc) or "the input is too large"),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
