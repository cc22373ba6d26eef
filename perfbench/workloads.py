"""The benchmark's workloads: seeded inputs, CLI job lists and answer checks.

Each workload is a list of `Job`s. A job is one `rigikit` CLI invocation
and a check of its exit status and stdout against an independent oracle
computed in the harness process (shipped fixtures, the generic rank-1
construction, or the in-memory table a CTB file was written from). The
program sees only the generated files and arguments.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

from rigikit import chartable, dl_rank1, rigidity, smallgrp
from rigikit.cyclo import format_value

# check(stdout, exit status) -> None when the answer is right, else why not
Check = Callable[[bytes, int], Optional[str]]


@dataclass
class Job:
    id: str
    verb: str
    args: List[str]
    check: Check


def _exit_zero_and(inner: Callable[[str], Optional[str]]) -> Check:
    def check(out: bytes, rc: int) -> Optional[str]:
        if rc != 0:
            return "exit status %d" % rc
        return inner(out.decode("ascii", "replace"))
    return check


def _data_dir(root: Path) -> Path:
    return root / "src" / "rigikit" / "data"


# ---------------------------------------------------------------------------
# dixon-oracles

# (kind, n, p, known order); PSL groups are SL generators mod scalars
DIXON_GROUPS = [
    ("PSL", 2, 7, 168),
    ("GL", 2, 3, 48),
    ("SL", 2, 5, 120),
    ("PSL", 2, 11, 660),
    ("GL", 2, 5, 480),
    ("SO", 4, 3, 576),
    ("SL", 3, 3, 5616),
    ("PSL", 2, 13, 1092),
    ("SL", 2, 11, 1320),
]


def _standard_generators(kind: str, n: int, p: int):
    if kind in ("SL", "PSL"):
        return smallgrp.sl_generators(n, p)
    if kind == "GL":
        return smallgrp.gl_generators(n, p)
    return smallgrp.so_generators(n // 2, p)


def _random_invertible(rng: random.Random, n: int, p: int):
    while True:
        a = smallgrp.make_element(
            [[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
        if a.det() != 0:
            return a


def generator_file(kind: str, n: int, p: int, rng: random.Random) -> str:
    """The standard generators conjugated by one seeded invertible matrix."""
    a = _random_invertible(rng, n, p)
    a_inv = a.inverse()
    blocks = []
    for g in _standard_generators(kind, n, p):
        h = a * g * a_inv
        blocks.append("matrix %d %d" % (n, p))
        blocks.extend(" ".join(str(v) for v in row) for row in h.entries)
    return "\n".join(blocks) + "\n"


def _same_table(expected: chartable.CharacterTable) -> Callable[[str], Optional[str]]:
    def inner(out: str) -> Optional[str]:
        got = chartable.parse_ctb(out)
        if not chartable.same_character_data(got, expected):
            return "table differs from the oracle for %s" % expected.name
        return None
    return inner


def _valid_table(order: int) -> Callable[[str], Optional[str]]:
    def inner(out: str) -> Optional[str]:
        got = chartable.parse_ctb(out)
        if got.order != order:
            return "order %d, expected %d" % (got.order, order)
        report = chartable.validate(got)
        if not report.ok:
            return "validate fails: %s" % ", ".join(c.name for c in report.failures())
        return None
    return inner


def dixon_oracles(root: Path, work: Path, rng: random.Random) -> List[Job]:
    data = _data_dir(root)
    fixtures = {
        ("PSL", 2, 7): "psl2_7.ctb",
        ("GL", 2, 3): "gl2_3.ctb",
        ("SL", 2, 5): "sl2_5.ctb",
    }
    generic = {("GL", 2, 5): ("GL2", 5), ("SL", 2, 11): ("SL2", 11)}
    jobs = []
    for kind, n, p, order in DIXON_GROUPS:
        name = "%s%d_%d" % (kind.lower(), n, p)
        gens = work / ("%s.gens" % name)
        gens.write_text(generator_file(kind, n, p, rng))
        if (kind, n, p) in fixtures:
            expected = chartable.parse_ctb((data / fixtures[kind, n, p]).read_text())
            inner = _same_table(expected)
        elif (kind, n, p) in generic:
            inner = _same_table(dl_rank1.build_family(*generic[kind, n, p]).table)
        else:
            inner = _valid_table(order)
        args = ["dixon", "@" + str(gens)] + (["--projective"] if kind == "PSL" else [])
        jobs.append(Job("dixon:" + name, "dixon", args, _exit_zero_and(inner)))
    return jobs


# ---------------------------------------------------------------------------
# lemma-bruteforce

LEMMA_SL = [(3, 3), (3, 5), (3, 7), (3, 11), (4, 3)]
LEMMA_SO = [(2, 3), (2, 5)]


def _no_triples(out: str) -> Optional[str]:
    lines = out.splitlines()
    if "total = 0" not in lines or "verdict = no-such-triples" not in lines:
        return "triples reported: %r" % lines[-2:]
    return None


def lemma_bruteforce(root: Path, work: Path, rng: random.Random) -> List[Job]:
    jobs = [Job("lemma:sl%d_%d" % nq, "lemma",
                ["lemma", "sl", "--n", str(nq[0]), "--q", str(nq[1])],
                _exit_zero_and(_no_triples)) for nq in LEMMA_SL]
    jobs += [Job("lemma:so%d_%d" % (2 * mq[0], mq[1]), "lemma",
                 ["lemma", "so", "--m", str(mq[0]), "--q", str(mq[1])],
                 _exit_zero_and(_no_triples)) for mq in LEMMA_SO]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# table-queries

GENERIC_TABLES = [("GL2", 11), ("GL2", 13), ("SL2", 13), ("PGL2", 13)]
FIXTURES = ["c2.ctb", "s3.ctb", "gl2_3.ctb", "sl2_5.ctb", "psl2_7.ctb"]
# seeded structconst/rigid triples per table; psl2_7 gets the fixed 2A 3A 7A
TRIPLES_PER_TABLE = {"GL2_13": 3, "GL2_11": 2, "SL2_13": 2}
DL_COUNTS = {"GL2": [4, 310, 312, 26208], "SL2": [6, 24, 42, 195]}
DUALSYM_PAIRS = {"GL2": 24336, "SL2PGL2": 182}


def permuted_ctb(table: chartable.CharacterTable, rng: random.Random) -> str:
    """CTB text of `table` with its non-identity classes and non-trivial
    rows in a seeded order. Class names and power maps are kept, so the
    permuted file describes the same table."""
    k = table.n_classes
    cls = [0] + rng.sample(range(1, k), k - 1)
    trivial = table.trivial_row_index()
    others = [r for r in range(len(table.rows)) if r != trivial]
    rows = [trivial] + rng.sample(others, len(others))
    lines = ["CTB 1", "name %s" % table.name, "order %d" % table.order,
             "exponent %d" % table.exponent, "classes %d" % k]
    for j in cls:
        c = table.classes[j]
        pows = "".join(" pow%d=%s" % (p, table.classes[idx].name)
                       for p, idx in c.power_maps)
        lines.append("class %s size=%d order=%d%s" % (c.name, c.size, c.order, pows))
    for i, r in enumerate(rows):
        lines.append("char X%d %s" % (i + 1, " ; ".join(
            format_value(table.rows[r][j]) for j in cls)))
    return "\n".join(lines) + "\n"


def _validate_check(table: chartable.CharacterTable) -> Check:
    head = "table %s: order %d, %d classes" % (table.name, table.order, table.n_classes)

    def inner(out: str) -> Optional[str]:
        lines = out.splitlines()
        if not lines or lines[0] != head:
            return "header %r, expected %r" % (lines[:1], head)
        names = []
        for line in lines[1:]:
            m = re.fullmatch(r"(\S+)\s+pass", line)
            if not m:
                return "check line %r" % line
            names.append(m.group(1))
        if "row_orthogonality" not in names or "column_orthogonality" not in names:
            return "orthogonality checks missing"
        return None
    return _exit_zero_and(inner)


def exact_answer(expected: str) -> Check:
    def inner(out: str) -> Optional[str]:
        if out.strip() != expected:
            return "got %r, expected %r" % (out.strip(), expected)
        return None
    return _exit_zero_and(inner)


def _triple_job(serial: int, path: Path, table, names, verb: str) -> Job:
    triple = rigidity.ClassTriple(*(table.class_index(n) for n in names))
    if verb == "structconst":
        expected = "N = %d\nf = %s" % (rigidity.frobenius_count(table, triple),
                                       format_value(rigidity.nontrivial_sum(table, triple)))
        args = ["structconst", str(path), *names, "--machine"]
    else:
        expected = rigidity.rigidity_verdict(
            table, triple, center_order=1, generation_assumed=True).machine_block()
        args = ["rigid", str(path), *names, "--center", "1",
                "--assume-generation", "--machine"]
    return Job("%s:%d:%s:%s" % (verb, serial, path.stem, "_".join(names)), verb, args,
               exact_answer(expected))


def _report_counts(pattern: str, counts: List[int]) -> Check:
    def inner(out: str) -> Optional[str]:
        got = []
        for line in out.splitlines():
            m = re.fullmatch(pattern, line)
            if not m:
                return "report line %r" % line
            got.append(int(m.group(1)))
        if got != counts:
            return "identity counts %s, expected %s" % (got, counts)
        return None
    return _exit_zero_and(inner)


def table_queries(root: Path, work: Path, rng: random.Random) -> List[Job]:
    data = _data_dir(root)
    tables = {}
    for fam, q in GENERIC_TABLES:
        tables["%s_%d" % (fam, q)] = dl_rank1.build_family(fam, q).table
    for name in FIXTURES:
        tables[Path(name).stem] = chartable.parse_ctb((data / name).read_text())
    paths = {}
    jobs = []
    for name, table in tables.items():
        paths[name] = work / ("%s.ctb" % name)
        paths[name].write_text(permuted_ctb(table, rng))
        jobs.append(Job("validate:" + name, "validate",
                        ["validate", str(paths[name])], _validate_check(table)))

    # PSL(2,7) 2A 3A 7A has the known answer N = |G| = 168, rigid candidate
    rigid_psl = _triple_job(0, paths["psl2_7"], tables["psl2_7"], ["2A", "3A", "7A"], "rigid")
    oracle_check = rigid_psl.check

    def known_answer(out: bytes, rc: int) -> Optional[str]:
        lines = out.decode("ascii", "replace").splitlines()
        if "N = 168" not in lines or "verdict = rigid-candidate" not in lines:
            return "PSL(2,7) 2A 3A 7A is not N = 168, rigid-candidate"
        return oracle_check(out, rc)
    rigid_psl.check = known_answer
    jobs.append(rigid_psl)
    for name, count in TRIPLES_PER_TABLE.items():
        table = tables[name]
        names = [c.name for c in table.classes[1:]]
        for _ in range(count):
            triple = [rng.choice(names) for _ in range(3)]
            verb = rng.choice(["structconst", "rigid"])
            jobs.append(_triple_job(len(jobs), paths[name], table, triple, verb))

    identities = r".*: (\d+) identities, all pass"
    for fam in ("GL2", "SL2"):
        jobs.append(Job("dl:%s_13:check" % fam, "dl",
                        ["dl", "--family", fam, "--q", "13", "--check", "all"],
                        _report_counts(identities, DL_COUNTS[fam])))
    emitted = chartable.emit_ctb(tables["GL2_13"]).encode("ascii")
    jobs.append(Job("dl:GL2_13:emit", "dl", ["dl", "--family", "GL2", "--q", "13", "--emit"],
                    lambda out, rc: None if rc == 0 and out == emitted
                    else "emitted CTB differs (exit status %d)" % rc))
    pairs = r".* at q = 13: (\d+) pairs, all pass"
    jobs.append(Job("dualsym:GL2_13:regular", "dualsym",
                    ["dualsym", "--pair", "GL2", "--q", "13", "--regular"],
                    _report_counts(pairs, [DUALSYM_PAIRS["GL2"]])))
    jobs.append(Job("dualsym:SL2PGL2_13", "dualsym",
                    ["dualsym", "--pair", "SL2PGL2", "--q", "13"],
                    _report_counts(pairs, [DUALSYM_PAIRS["SL2PGL2"]])))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "dixon-oracles": dixon_oracles,
    "lemma-bruteforce": lemma_bruteforce,
    "table-queries": table_queries,
}
