import os
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import rigikit
from rigikit import dl_rank1
from rigikit.chartable import CheckReport, CheckResult
from rigikit.cli import main


def fixture_path(name: str) -> str:
    return str(resources.files("rigikit.data").joinpath(name))


def run(capsys, argv):
    status = main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


def test_validate_good_table(capsys):
    status, out, _ = run(capsys, ["validate", fixture_path("psl2_7.ctb")])
    assert status == 0
    assert "row_orthogonality" in out and "FAIL" not in out


def test_validate_bad_table(tmp_path, capsys):
    text = Path(fixture_path("s3.ctb")).read_text()
    bad = text.replace("char X3 2 ; 0 ; -1", "char X3 2 ; 1 ; -1")
    target = tmp_path / "bad.ctb"
    target.write_text(bad)
    status, out, _ = run(capsys, ["validate", str(target)])
    assert status == 1
    assert "FAIL" in out


def test_validate_syntax_error_exit_2(tmp_path, capsys):
    target = tmp_path / "junk.ctb"
    target.write_text("CTB 9\n")
    status, _, err = run(capsys, ["validate", str(target)])
    assert status == 2
    assert "error" in err


def test_missing_file_exit_2(capsys):
    status, _, err = run(capsys, ["validate", "/nonexistent/table.ctb"])
    assert status == 2


def test_structconst_machine(capsys):
    status, out, _ = run(capsys, [
        "structconst", fixture_path("psl2_7.ctb"), "2A", "3A", "7A", "--machine"])
    assert status == 0
    assert out.splitlines() == ["N = 168", "f = 0"]


def test_structconst_text(capsys):
    status, out, _ = run(capsys, [
        "structconst", fixture_path("psl2_7.ctb"), "2A", "3A", "7A"])
    assert status == 0
    assert out.splitlines() == ["triples (2A, 3A, 7A) with product 1: N = 168",
                                "nontrivial character sum f = 0"]


def test_rigid_machine_block(capsys):
    status, out, _ = run(capsys, [
        "rigid", fixture_path("psl2_7.ctb"), "2A", "3A", "7A",
        "--center", "1", "--assume-generation", "--machine"])
    assert status == 0
    assert out.splitlines() == [
        "N = 168", "f = 0", "orbits = 1",
        "rational_c1 = yes", "rational_c2 = yes", "rational_c3 = no",
        "verdict = rigid-candidate"]


def test_unknown_class_name_exit_2(capsys):
    status, _, err = run(capsys, [
        "structconst", fixture_path("psl2_7.ctb"), "2A", "3A", "9Z"])
    assert status == 2
    assert err == "error: no class named '9Z' in table PSL2(7)\n"


def test_dixon_emits_parseable_deterministic_table(capsys):
    status, out1, _ = run(capsys, ["dixon", "SL(2,2)"])
    assert status == 0
    status, out2, _ = run(capsys, ["dixon", "SL(2,2)"])
    assert out1 == out2
    from rigikit.chartable import parse_ctb, validate

    table = parse_ctb(out1)
    assert validate(table).ok


def test_dixon_generator_file(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("matrix 2 3\n1 1\n0 1\nmatrix 2 3\n0 2\n1 0\n")
    status, out, _ = run(capsys, ["dixon", "@%s" % gens])
    assert status == 0
    # SL(2,3) generators: the table names the ambient group, not the group
    assert out.splitlines()[1:3] == ["name subgroup of GL(2,3)", "order 24"]
    status, out, _ = run(capsys, ["dixon", "@%s" % gens, "--projective"])
    assert status == 0
    assert out.splitlines()[1:3] == ["name subgroup of PGL(2,3)", "order 12"]


def test_dl_emit_and_checks(capsys):
    status, out, _ = run(capsys, ["dl", "--family", "GL2", "--q", "3", "--emit"])
    assert status == 0 and out.startswith("CTB 1")
    status, out, _ = run(capsys, ["dl", "--family", "GL2", "--q", "3",
                                  "--check", "all"])
    assert status == 0
    assert "all pass" in out and "FAIL" not in out


def test_dualsym_cli(capsys):
    status, out, _ = run(capsys, ["dualsym", "--pair", "SL2PGL2", "--q", "5"])
    assert status == 0 and "all pass" in out
    status, out, _ = run(capsys, ["dualsym", "--pair", "GL2", "--q", "4",
                                  "--regular"])
    assert status == 0


def test_failed_report_exit_1_and_names_the_failure(monkeypatch, capsys):
    rep = CheckReport("dual symmetry (semisimple characters)",
                      (CheckResult("sym_x", False, "lhs 1, rhs 2"),
                       CheckResult("sym_y", True)))
    monkeypatch.setattr(dl_rank1, "dual_symmetry_report", lambda *a, **k: rep)
    monkeypatch.setattr(dl_rank1, "theta_independence", lambda fam: (rep, []))
    argv = ["dualsym", "--pair", "GL2", "--q", "3"]
    assert run(capsys, argv)[:2] == (1, (
        "dual symmetry (semisimple characters) at q = 3: 2 pairs, 1 FAIL\n"
        "  FAIL sym_x: lhs 1, rhs 2\n"))
    assert run(capsys, argv + ["--machine"])[:2] == (
        1, "sym_x = FAIL: lhs 1, rhs 2\nsym_y = pass\n")
    assert run(capsys, ["dl", "--family", "GL2", "--q", "3", "--check", "valuni"])[:2] == (
        1, "dual symmetry (semisimple characters): 2 identities, 1 FAIL\n"
           "  FAIL sym_x: lhs 1, rhs 2\n")


def test_regunip_order_and_filter(capsys):
    status, out, _ = run(capsys, ["regunip", "--type", "E8", "--p", "7"])
    assert status == 0
    assert out.strip() == "order = 49"
    status, out, _ = run(capsys, ["regunip", "--type", "G2", "--p", "7",
                                  "--filter"])
    assert status == 0
    assert "survivors = 2^3.L3(2),G2(2),L2(13)" in out
    status, out, _ = run(capsys, ["regunip", "--type", "E8", "--p", "31",
                                  "--filter", "--two-classes"])
    assert status == 0
    assert "survivors = none" in out
    assert "eliminated-cyclic-sylow" in out


def test_regunip_filter_reads_a_pool_file(tmp_path, capsys):
    pool = tmp_path / "pool.txt"
    pool.write_text("candidate J1 type=G2 case=0 p=11 order=table:p=11:11\n")
    status, out, _ = run(capsys, ["regunip", "--type", "G2", "--p", "11",
                                  "--filter", "--pool", str(pool)])
    assert status == 0
    assert out.splitlines() == [
        "order = 11",
        "J1                 survives                 max p-element order 11 >= 11",
        "survivors = J1"]


def test_lemma_cli(capsys):
    status, out, _ = run(capsys, ["lemma", "sl", "--n", "3", "--q", "3"])
    assert status == 0
    assert "total = 0" in out and "no-such-triples" in out
    status, out, _ = run(capsys, ["lemma", "so", "--m", "2", "--q", "3"])
    assert status == 0
    assert out.splitlines()[-2:] == ["total = 0", "verdict = no-such-triples"]


def test_usage_errors_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert main(["dl", "--family", "XX", "--q", "3"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    for sub in ("validate", "structconst", "rigid", "dixon", "dl",
                "dualsym", "regunip", "lemma"):
        assert main([sub, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--" in out  # every subcommand documents its flags
        assert "--threads" not in out


def test_out_of_domain_moduli_exit_2(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("matrix 2 4\n1 1\n0 1\n")
    for argv in (["lemma", "sl", "--n", "3", "--q", "4"],
                 ["lemma", "so", "--m", "2", "--q", "9"],
                 ["regunip", "--type", "E8", "--p", "6"],
                 ["dixon", "@%s" % gens]):
        status, out, err = run(capsys, argv)
        assert status == 2, argv
        assert out == "" and err.startswith("error:"), argv


def test_generators_that_are_not_a_group_exit_2(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    for text in ("matrix 2 3\n1 0\n0 0\n", "matrix 0 3\n", "matrix -1 3\n"):
        gens.write_text(text)
        status, out, err = run(capsys, ["dixon", "@%s" % gens])
        assert status == 2, text
        assert out == "" and err.startswith("error:"), text
    for spec in ("GL(0,3)", "PGL(0,5)"):
        status, out, err = run(capsys, ["dixon", spec])
        assert status == 2, spec
        assert out == "" and err.startswith("error:"), spec


def test_center_below_one_exit_2(capsys):
    for z in ("0", "-1"):
        status, out, err = run(capsys, [
            "rigid", fixture_path("psl2_7.ctb"), "2A", "3A", "7A", "--center", z])
        assert status == 2
        assert out == "" and err.startswith("error:")


def test_inconsistent_table_exit_2(tmp_path, capsys):
    text = Path(fixture_path("s3.ctb")).read_text()
    target = tmp_path / "order7.ctb"
    target.write_text(text.replace("order 6", "order 7"))
    status, out, err = run(capsys, ["structconst", str(target), "2A", "2A", "3A"])
    assert status == 2
    assert out == "" and err.startswith("error:")


def test_table_with_no_trivial_row_exit_2(tmp_path, capsys):
    # the triple count is an integer, but f = (sum over all rows) - 1 needs
    # a trivial row
    text = Path(fixture_path("s3.ctb")).read_text()
    target = tmp_path / "notrivial.ctb"
    target.write_text(text.replace("char X1 1 ; 1 ; 1", "char X1 1 ; -1 ; 1"))
    for verb in ("structconst", "rigid"):
        status, out, err = run(capsys, [verb, str(target), "3A", "3A", "3A"])
        assert (status, out) == (2, ""), verb
        assert err == "error: table S3 has no trivial character row\n", verb


def test_unknown_power_map_target_names_its_class_line(tmp_path, capsys):
    text = Path(fixture_path("s3.ctb")).read_text()
    target = tmp_path / "pow.ctb"
    target.write_text(text.replace("class 2A size=3 order=2 pow2=1A",
                                   "class 2A size=3 order=2 pow2=9Z"))
    status, out, err = run(capsys, ["validate", str(target)])
    assert status == 2 and out == ""
    assert err == "error: unknown class name '9Z' in power map of 2A (line 7)\n"


def test_root_outside_exponent_field_exit_2(tmp_path):
    # run out of process so that a hang at the root's order fails the test
    # instead of stalling the suite
    text = Path(fixture_path("s3.ctb")).read_text()
    env = dict(os.environ, PYTHONPATH=str(Path(rigikit.__file__).parents[1]))
    for root in ("E(100000000,1)", "E(4,1)"):
        target = tmp_path / "root.ctb"
        target.write_text(text.replace("char X3 2 ; 0 ; -1", "char X3 2 ; %s ; -1" % root))
        for argv in (["validate", str(target)],
                     ["validate", str(target), "--no-orthogonality"],
                     ["structconst", str(target), "2A", "2A", "3A"]):
            proc = subprocess.run([sys.executable, "-m", "rigikit", *argv], env=env,
                                  capture_output=True, text=True, timeout=5)
            assert proc.returncode == 2, (root, argv)
            assert proc.stdout == "" and proc.stderr.startswith("error:"), (root, argv)
            assert "line 11" in proc.stderr, (root, argv)


def _memory_and_cpu_caps(address_space, cpu_seconds):
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds))
    return limit


def test_huge_conductors_under_a_memory_cap(tmp_path):
    # out of process, under an address-space cap and a CPU-time cap, so that
    # a table of size n or phi(n) fails the test instead of stalling the
    # suite; the cap is on CPU time, not wall time, so that a busy machine
    # does not fail it, and the long wall timeout only stops a hang.
    # 1 + E(20011,1) is not Galois-stable, so it takes the exact check
    cap = 512 << 20
    env = dict(os.environ, PYTHONPATH=str(Path(rigikit.__file__).parents[1]))
    target = tmp_path / "huge.ctb"
    for exponent, value, status, says in (
            (20011, "1 + E(20011,1)", 1, "FAIL: fails for rows 0 and 0"),
            (10 ** 8, "E(100000000,99999999)", 1, "row_orthogonality        pass"),
            (3000009, "E(3000009,2999999)", 2, "")):
        target.write_text("CTB 1\nname T\norder 1\nexponent %d\nclasses 1\n"
                          "class 1A size=1 order=1\nchar X1 %s\n" % (exponent, value))
        proc = subprocess.run(
            [sys.executable, "-m", "rigikit", "validate", str(target)], env=env,
            capture_output=True, text=True, timeout=300,
            preexec_fn=_memory_and_cpu_caps(cap, 20))
        assert proc.returncode == status, (exponent, proc.stderr)
        assert "Traceback" not in proc.stderr, exponent
        if status == 1:
            assert says in proc.stdout, (exponent, proc.stdout)
        else:
            assert proc.stdout == "" and proc.stderr.startswith("error: out of memory")


def test_order_past_the_prime_test_fails_under_a_cpu_cap(tmp_path):
    # a 4000-digit order (Python parses at most 4300 digits) puts the norm
    # bound of the orthogonality proof far past the exact primality test,
    # so it takes over a hundred split primes; out of process under a CPU
    # cap, so that a hang fails the test instead of stalling the suite
    env = dict(os.environ, PYTHONPATH=str(Path(rigikit.__file__).parents[1]))
    target = tmp_path / "c2.ctb"
    order = 10 ** 3999 + 7
    target.write_text(Path(fixture_path("c2.ctb")).read_text().replace(
        "order 2\n", "order %d\n" % order))
    assert str(order) in target.read_text()
    proc = subprocess.run(
        [sys.executable, "-m", "rigikit", "validate", str(target)], env=env,
        capture_output=True, text=True, timeout=120,
        preexec_fn=_memory_and_cpu_caps(512 << 20, 5))
    assert proc.returncode == 1 and proc.stderr == "", proc.stderr
    lines = proc.stdout.splitlines()
    for name in ("class_sizes_sum", "degree_squares_sum",
                 "row_orthogonality", "column_orthogonality"):
        assert any(line.startswith(name) and " FAIL" in line for line in lines), name
    assert any(line.startswith("row_orthogonality") and line.endswith(
        "fails for rows 0 and 0") for line in lines)


def test_sparse_value_at_a_large_conductor_fails_under_a_cpu_cap(tmp_path):
    # 1 + E(1000003,1) is not Galois-stable; the pairs failing at the first
    # root bound the scan of the other roots to those of the row (or
    # column) before them, here one root, not phi(2000006) of them
    env = dict(os.environ, PYTHONPATH=str(Path(rigikit.__file__).parents[1]))
    target = tmp_path / "sparse.ctb"
    target.write_text("CTB 1\nname T\norder 2\nexponent 2000006\nclasses 2\n"
                      "class 1A size=1 order=1\nclass 2A size=1 order=2\n"
                      "char X1 1 ; 1\nchar X2 1 ; E(1000003,1)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "rigikit", "validate", str(target)], env=env,
        capture_output=True, text=True, timeout=120,
        preexec_fn=_memory_and_cpu_caps(512 << 20, 5))
    assert proc.returncode == 1 and proc.stderr == "", proc.stderr
    assert "row_orthogonality        FAIL: fails for rows 0 and 1" in proc.stdout
    assert "column_orthogonality     FAIL: fails for classes 1A and 2A" in proc.stdout


def test_generator_file_moduli_and_fields(tmp_path):
    # out of process, so that a hang in the primality test fails the test
    env = dict(os.environ, PYTHONPATH=str(Path(rigikit.__file__).parents[1]))
    gens = tmp_path / "gens.txt"
    big = 1000000000000000003  # prime
    too_big = 3317044064679887385961983  # past the exact primality test
    for text, status, says in (
            ("matrix 2 %d\n1 0\n0 1\n" % big, 0, ""),
            ("matrix 2 %d\n1 0\n0 1\n" % too_big, 2, "%d is prime" % too_big),
            ("matrix 2 x\n1 0\n0 1\n", 2, "modulus 'x' is not an integer at line 1"),
            ("matrix 2 5\n1 y\n0 1\n", 2, "entry 2 'y' is not an integer at line 2")):
        gens.write_text(text)
        proc = subprocess.run([sys.executable, "-m", "rigikit", "dixon", "@%s" % gens],
                              env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == status, text
        if status:
            assert proc.stdout == "" and proc.stderr.startswith("error:"), text
            assert says in proc.stderr, text
        else:
            assert proc.stdout.splitlines()[2:] == ["order 1", "exponent 1", "classes 1",
                                                    "class 1A size=1 order=1", "char X1 1"]


def test_huge_squarefree_conductor_exits_2_under_a_large_cap(tmp_path):
    # the reduction table at r = 3,000,009 is refused by its step bound before
    # any work, so the verdict does not depend on where the address-space cap
    # falls; the CPU cap makes "within seconds" part of the verdict
    env = dict(os.environ, PYTHONPATH=str(Path(rigikit.__file__).parents[1]))
    target = tmp_path / "huge.ctb"
    target.write_text("CTB 1\nname T\norder 1\nexponent 3000009\nclasses 1\n"
                      "class 1A size=1 order=1\nchar X1 E(3000009,2999999)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "rigikit", "validate", str(target)], env=env,
        capture_output=True, text=True, timeout=120,
        preexec_fn=_memory_and_cpu_caps(2 << 30, 5))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("error: out of memory")


# ---------------------------------------------------------------------------
# per-verb imports, seen from a fresh interpreter: pytest has already
# imported every module, so only a new process shows what a verb loads

# every verb is a fresh process, so no verb may load these (`dataclasses`
# brings `inspect` and `ast`) unless the bare interpreter already has
COLD_START_HEAVY = ("dataclasses", "inspect")
SHOW_HEAVY = "print(' '.join(m for m in %r if m in sys.modules))\n" % (COLD_START_HEAVY,)
LOADED_MODULES = (
    "import contextlib, io, sys\n"
    "import rigikit.cli\n"
    "if sys.argv[1:]:\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        assert rigikit.cli.main(sys.argv[1:]) == 0\n"
    "print(' '.join(sorted(m for m in sys.modules if m.startswith('rigikit'))))\n"
    + SHOW_HEAVY)

TABLE_VERB = {"chartable", "cyclo", "modp"}


VERB_MODULES = [
    ([], set()),
    (["validate", "s3.ctb"], TABLE_VERB),
    (["structconst", "s3.ctb", "2A", "2A", "3A"], TABLE_VERB | {"rigidity"}),
    (["rigid", "s3.ctb", "2A", "2A", "3A"], TABLE_VERB | {"rigidity"}),
    (["dixon", "SL(2,3)"], TABLE_VERB | {"dixon", "smallgrp"}),
    (["dl", "--family", "SL2", "--q", "3"], TABLE_VERB | {"dl_rank1"}),
    (["dualsym", "--pair", "GL2", "--q", "3"], TABLE_VERB | {"dl_rank1"}),
    (["regunip", "--type", "G2", "--p", "7"], {"modp", "regunip"}),
    (["lemma", "sl", "--n", "2", "--q", "3"], {"modp", "smallgrp"}),
]


@pytest.mark.parametrize("argv,loaded", VERB_MODULES,
                         ids=[a[0] if a else "import" for a, _ in VERB_MODULES])
def test_each_verb_loads_only_its_modules(argv, loaded):
    env = dict(os.environ, PYTHONPATH=str(Path(rigikit.__file__).parents[1]))
    argv = [fixture_path(a) if a.endswith(".ctb") else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    ours, heavy = proc.stdout.split("\n")[:2]
    assert ours.split() == sorted(
        {"rigikit", "rigikit.cli"} | {"rigikit." + m for m in loaded})
    # against `python -c pass`, so a `site` or `.pth` import does not count
    bare = subprocess.run([sys.executable, "-c", "import sys\n" + SHOW_HEAVY], env=env,
                          capture_output=True, text=True, timeout=60)
    assert set(heavy.split()) <= set(bare.stdout.split())


def test_top_level_reexports_resolve_on_use():
    from rigikit import Cyclotomic, cyc, format_value, parse_value, zeta
    assert isinstance(cyc(2), Cyclotomic) and rigikit.Rational(1, 2) * 2 == 1
    assert format_value(parse_value("E(3,1)")) == format_value(zeta(3))
    with pytest.raises(AttributeError):
        rigikit.no_such_name


@pytest.mark.parametrize("argv,out", [
    pytest.param(["dixon", "SL(3,5)", "--cap", "100"], "", id="GroupTooLargeError"),
    pytest.param(["structconst", "order7.ctb", "2A", "2A", "3A"], "",
                 id="InconsistentTableError"),
    pytest.param(["validate", "junk.ctb"], "", id="CTBSyntaxError"),
    pytest.param(["regunip", "--type", "E8", "--p", "5", "--filter", "--pool", "pool.txt"],
                 "order = 125\n", id="DescriptorError"),
])
def test_domain_errors_exit_2_out_of_process(tmp_path, argv, out):
    (tmp_path / "order7.ctb").write_text(
        Path(fixture_path("s3.ctb")).read_text().replace("order 6", "order 7"))
    (tmp_path / "junk.ctb").write_text("CTB 9\n")
    (tmp_path / "pool.txt").write_text("this is not a pool\n")
    env = dict(os.environ, PYTHONPATH=str(Path(rigikit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "rigikit", *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert proc.stdout == out


def test_parser_literals_match_the_modules():
    from rigikit import regunip, smallgrp
    from rigikit.cli import build_parser
    parser = build_parser()
    assert parser.parse_args(["dixon", "SL(2,3)"]).cap == smallgrp.DEFAULT_CLOSURE_CAP
    assert parser.parse_args(["lemma", "sl", "--n", "2", "--q", "3"]).cap \
        == smallgrp.DEFAULT_ORBIT_CAP
    assert parser.parse_args(["lemma", "so", "--m", "2", "--q", "3"]).cap \
        == smallgrp.DEFAULT_CLOSURE_CAP
    verbs = next(a for a in parser._actions if a.dest == "command").choices
    (gtype,) = (a for a in verbs["regunip"]._actions if a.dest == "gtype")
    assert gtype.choices == sorted(regunip.EXCEPTIONAL_TYPES)
