from importlib import resources

import pytest

from rigikit.regunip import (
    EXCEPTIONAL_TYPES,
    CandidateSubgroup,
    DescriptorError,
    exceptional_type,
    expected_survivors,
    filter_candidates,
    load_expected,
    load_pool,
    parse_expected,
    parse_pool,
    regular_unipotent_order,
    reproduction_report,
    survivors,
    sweep_primes,
)

# tabulated orders: rows G2 / F4,E6 / E7 / E8, columns p = 2, 3, 5
TABLE_SMALL_P = {
    ("G2", 2): 8, ("G2", 3): 9, ("G2", 5): 25,
    ("F4", 2): 16, ("F4", 3): 27, ("F4", 5): 25,
    ("E6", 2): 16, ("E6", 3): 27, ("E6", 5): 25,
    ("E7", 2): 32, ("E7", 3): 27, ("E7", 5): 25,
    ("E8", 2): 32, ("E8", 3): 81, ("E8", 5): 125,
}


def test_tabulated_small_prime_entries():
    for (g, p), expected in TABLE_SMALL_P.items():
        assert regular_unipotent_order(g, p) == expected


def test_symbolic_columns():
    for name, t in EXCEPTIONAL_TYPES.items():
        h = t.coxeter_number
        for p in sweep_primes(113):
            if 5 < p < h:
                assert regular_unipotent_order(name, p) == p * p
            elif p >= h:
                assert regular_unipotent_order(name, p) == p


def test_examples():
    assert regular_unipotent_order("G2", 5) == 25
    assert regular_unipotent_order("E8", 7) == 49
    assert regular_unipotent_order("E8", 31) == 31


def test_monotonicity_of_exponent():
    for name, t in EXCEPTIONAL_TYPES.items():
        h = t.coxeter_number
        prev_exp = None
        for p in sweep_primes(113):
            order = regular_unipotent_order(name, p)
            assert order >= h
            exp = 0
            m = order
            while m > 1:
                m //= p
                exp += 1
            if p < h:
                if prev_exp is not None:
                    assert exp <= prev_exp
                prev_exp = exp


def test_unknown_type():
    with pytest.raises(ValueError):
        regular_unipotent_order("B2", 5)
    assert exceptional_type("E8").coxeter_number == 30


def test_descriptor_forms():
    c = CandidateSubgroup("X", "E8", 1, "any", "p^2")
    assert c.max_p_element_order(7) == 49
    c = CandidateSubgroup("X", "E8", 1, "any", "const:12")
    assert c.max_p_element_order(11) == 12
    c = CandidateSubgroup("X", "E8", 1, "any", "table:p=2:8,p=13:13,p=*:1")
    assert c.max_p_element_order(2) == 8
    assert c.max_p_element_order(13) == 13
    assert c.max_p_element_order(17) == 1
    c = CandidateSubgroup("X", "E8", 1, "any", "table:p=2:8")
    with pytest.raises(DescriptorError):
        c.max_p_element_order(3)
    with pytest.raises(DescriptorError):
        CandidateSubgroup("X", "E8", 1, "any", "junk:1").max_p_element_order(3)


def test_pspec_forms():
    c = CandidateSubgroup("X", "E8", 1, "ne:2,13", "p")
    assert c.applicable(7) and not c.applicable(2) and not c.applicable(13)
    c = CandidateSubgroup("X", "E8", 1, "13..43", "p")
    assert c.applicable(13) and c.applicable(43) and not c.applicable(11)
    c = CandidateSubgroup("X", "E8", 1, "..43", "p")
    assert c.applicable(2) and not c.applicable(47)
    c = CandidateSubgroup("X", "E8", 1, "2,13", "p")
    assert c.applicable(13) and not c.applicable(7)


def test_equality_boundary_survives():
    # a candidate whose maximal p-element order equals the regular order
    pool = [CandidateSubgroup("edge", "E8", 3, "any", "p")]
    assert survivors("E8", 31, pool) == {"edge"}
    assert survivors("E8", 29, pool) == set()  # 29 < 29^2


def test_case1_candidate_survives_only_at_31():
    pool = load_pool()
    entry = [c for c in pool if c.label == "2^5+10.SL5(2)"]
    assert len(entry) == 1
    for p in sweep_primes(113):
        if p == 2:
            continue  # not applicable in its own characteristic
        surv = survivors("E8", p, entry)
        assert surv == ({"2^5+10.SL5(2)"} if p == 31 else set())


def test_g2_l2_13_survives_only_at_7():
    pool = [c for c in load_pool() if c.label == "L2(13)" and c.gtype == "G2"]
    for p in sweep_primes(113):
        if p in (2, 13):
            continue
        assert survivors("G2", p, pool) == ({"L2(13)"} if p == 7 else set())


def test_filter_verdict_lines():
    pool = load_pool()
    verdicts = filter_candidates("G2", 7, pool)
    by_label = {v.label: v for v in verdicts}
    assert by_label["L2(13)"].survives
    assert "max p-element order 7 >= 7" in by_label["L2(13)"].line()


def test_citation_rows_are_not_survivors():
    pool = load_pool()
    verdicts = filter_candidates("F4", 5, pool)
    cited = [v for v in verdicts if v.status == "eliminated-by-citation"]
    assert cited  # the Sp6(5)/O7(5) equality-leak rows
    assert not any(v.survives for v in cited)


def test_fixture_reproduction():
    ok, mismatches = reproduction_report()
    assert ok, mismatches


def test_expected_survivor_parsing():
    expected = load_expected()
    assert expected_survivors(expected, "E8", 31) == {
        "2^5+10.SL5(2)", "5^3.SL3(5)", "L2(32)", "L2(61)", "L3(5)", "L2(p)"}
    assert expected_survivors(expected, "E8", 127) == set()
    assert expected_survivors(expected, "F4", 17) == {"L2(p)"}


def test_two_class_flag_reproduces_cyclic_sylow_exclusion():
    pool = load_pool()
    # with two distinct unipotent classes required, only the p = 7 rank-4
    # candidates with noncyclic Sylow subgroups remain anywhere above p = 5
    for p in sweep_primes(113):
        if p <= 5:
            continue
        surv = survivors("E8", p, pool, require_two_unipotent_classes=True)
        assert surv == ({"S8(7)", "O9(7)"} if p == 7 else set())


def test_pool_parse_errors():
    with pytest.raises(ValueError):
        parse_pool("candidate X case=1\n")
    with pytest.raises(ValueError):
        parse_pool("widget X type=G2 case=1 p=2 order=p\n")


@pytest.mark.parametrize("fields,bad", [
    ("p=5..x order=p", "p=5..x"),
    ("p=any order=table:p=2:8,p=3:x", "order=table:p=2:8,p=3:x"),
])
def test_pool_fields_are_read_whole_at_load_time(fields, bad):
    # each bad part lies past where a reader at p = 2 could stop: past the
    # lower bound that 2 misses, or past the table entry for p = 2
    with pytest.raises(ValueError) as err:
        parse_pool("# pool\ncandidate X type=G2 case=0 %s\n" % fields)
    assert str(err.value).startswith("bad %s on pool line 2: " % bad)


@pytest.mark.parametrize("text,message", [
    ("expect type=E8 p=abc L\n",
     "bad p=abc on expectation line 1: invalid literal for int() with base 10: 'abc'"),
    ("# expectations\nexpect type=E9 p=7 L\n",
     "bad type=E9 on expectation line 2: unknown exceptional type 'E9' (want G2/F4/E6/E7/E8)"),
    ("expect type=E8 p=1_1 L\n",
     "bad p=1_1 on expectation line 1: invalid literal for int() with base 10: '1_1'"),
    ("expect type=E8 p=5..x L\n",
     "bad p=5..x on expectation line 1: invalid literal for int() with base 10: 'x'"),
    ("expect type=E8 q=7 L\n", "expectation line 1 lacks p="),
    ("expect p=7 p=11 L\n", "expectation line 1 lacks type="),
    ("expect type=E8 p=7\n", "bad expectation line 1: 'expect type=E8 p=7'"),
    ("expect type=E8 p=7 L\n# \xff\n".encode("latin-1"), "byte 0xff is not ASCII (line 2)"),
])
def test_expectation_errors_name_line_and_field(text, message):
    with pytest.raises(ValueError) as err:
        parse_expected(text)
    assert str(err.value) == message


def test_shipped_files_read_the_same_as_text_and_as_bytes():
    data = resources.files("rigikit.data")
    for name, parse, loaded in (("lieprim_pool.txt", parse_pool, load_pool()),
                                ("lieprim_expected.txt", parse_expected, load_expected())):
        assert parse(data.joinpath(name).read_text()) == loaded
