import random
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest
from sympy import QQ, ZZ, Poly, cyclotomic_poly, symbols

from rigikit import cyclo
from rigikit.cyclo import (
    Cyclotomic,
    ValueSyntaxError,
    cyc,
    cyclotomic_polynomial,
    euler_phi,
    format_value,
    from_terms,
    linear_sum,
    parse_value,
    value_terms,
    zeta,
)
from rigikit.modp import prime_factors


def test_roots_of_unity_basics():
    assert zeta(1, 0) == cyc(1)
    assert zeta(4, 2) == cyc(-1)
    assert zeta(3, 1) + zeta(3, 2) == cyc(-1)
    assert zeta(5) * zeta(5, 4) == cyc(1)
    assert zeta(8) + cyc(0) == zeta(8)


def test_inverse_multiplies_to_one():
    # oracle: multiply out in the power basis by hand
    # (1 + z3) * (z3^-1 ... ) -- just check the defining property exactly
    a = cyc(1) + zeta(3)
    assert a.inverse() * a == cyc(1)
    b = cyc(Fraction(3, 7)) - 2 * zeta(8, 3)
    assert b * b.inverse() == cyc(1)
    with pytest.raises(ZeroDivisionError):
        cyc(0).inverse()


def test_conductor_normalization():
    # zeta_6 lives in Q(zeta_3)
    assert zeta(6).conductor == 3
    # an orbit sum collapses all the way to a rational
    s = sum((zeta(7, k) for k in range(1, 7)), cyc(0))
    assert s.is_rational() and s.to_rational() == -1
    # zeta_12^3 = i has conductor 4
    assert zeta(12, 3) == zeta(4)
    assert (zeta(5) + zeta(5, 4) + zeta(5, 2) + zeta(5, 3)).to_rational() == -1


def test_is_rational_accessors():
    assert (zeta(3) + zeta(3, 2)).is_rational()
    assert not zeta(5).is_rational()
    with pytest.raises(ValueError):
        zeta(5).to_rational()


def test_galois_basics():
    assert zeta(7).galois(2) == zeta(7, 2)
    assert zeta(4).galois(-1) == -zeta(4)
    assert cyc(-1).galois(3) == cyc(-1)
    with pytest.raises(ValueError):
        zeta(6).galois(3)  # conductor is 3; gcd(3,3) != 1


def test_galois_composition():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.choice([5, 7, 8, 9, 12, 15, 16, 20, 24])
        a = from_terms(
            n,
            {rng.randrange(n): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
             for _ in range(3)},
        )
        m = a.conductor
        units = [k for k in range(1, m + 1) if gcd(k, m) == 1]
        k1, k2 = rng.choice(units), rng.choice(units)
        assert a.galois(k1).galois(k2) == a.galois(k1 * k2 % m if m > 1 else 1)


def test_power_of_root_is_identity():
    for n in range(1, 61):
        assert zeta(n) ** n == cyc(1)


# conductors <= 24 from an lcm-closed family, so compositum tables are reused
CONDUCTOR_POOL = [1, 3, 4, 5, 8, 9, 12, 15, 16, 20, 24]


def _random_value(rng):
    n = rng.choice(CONDUCTOR_POOL)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.randrange(n)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return from_terms(n, terms)


def test_field_axioms_randomized():
    rng = random.Random(20240601)
    for _ in range(400):
        a, b, c = (_random_value(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_parse_format_roundtrip_randomized():
    rng = random.Random(99)
    for _ in range(300):
        a = _random_value(rng)
        assert parse_value(format_value(a)) == a


def test_grammar_examples():
    v = parse_value("1/2 + 1/2*E(5,1) - E(5,3)")
    assert v == cyc(Fraction(1, 2)) + cyc(Fraction(1, 2)) * zeta(5) - zeta(5, 3)
    assert parse_value("-1") == cyc(-1)
    assert parse_value("E(7,2)") == zeta(7, 2)
    assert parse_value("0") == cyc(0)


def test_lone_root_parses_without_arithmetic_at_its_order(monkeypatch):
    # adding the term to zero would canonicalize at n = 10^8
    def forbidden(*args):
        raise AssertionError("canonicalized at the root's order")
    monkeypatch.setattr(cyclo, "_shrink_int", forbidden)
    assert str(parse_value("E(100000000,1)")) == "E(100000000,1)"
    assert str(parse_value("-2*E(100000000,3)")) == "-2*E(100000000,3)"


def test_sparse_sum_at_huge_order_skips_the_reduction_table(monkeypatch):
    # exponents below phi(n) need neither the n-row table of zeta_n^e
    # mod Phi_n nor a vector of phi(n) coefficients
    table = cyclo._reduction_table

    def guarded(n):
        if n == 10 ** 8:
            raise AssertionError("reduction table built at the root's order")
        return table(n)
    monkeypatch.setattr(cyclo, "_reduction_table", guarded)
    tracemalloc.start()
    try:
        assert str(parse_value("1 + E(100000000,1)")) == "1 + E(100000000,1)"
        assert str(parse_value("E(100000000,3) - 2")) == "-2 + E(100000000,3)"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_root_at_huge_prime_order_needs_no_power_table():
    # the p || n descent is exact in integers and does no work of size n
    tracemalloc.start()
    try:
        assert str(parse_value("1 + E(1000003,1)")) == "1 + E(1000003,1)"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_descent_at_huge_order_builds_no_reduction_table(monkeypatch):
    # none of these descends at n = 3 * 1000003: the trace of 1 + zeta_n
    # does not divide by p - 1 = 2, the trace of 2 + 2 zeta_n does, and
    # zeta_n^1000000 has its Q(zeta_1000003) part at exponent phi(1000003);
    # a dense check would build the table at n or at n / 3
    table = cyclo._reduction_table

    def guarded(n):
        if n in (3000009, 1000003):
            raise AssertionError("reduction table built at order %d" % n)
        return table(n)
    monkeypatch.setattr(cyclo, "_reduction_table", guarded)
    for text in ("1 + E(3000009,1)", "2 + 2*E(3000009,1)",
                 "1 + E(3000009,1000000)"):
        assert str(parse_value(text)) == text


def test_reduction_reads_tables_only_at_squarefree_orders(monkeypatch):
    # zeta_n^e with e >= phi(n) reduces at the radical r of n, in a table
    # of the r - phi(r) rows of zeta_r^q for q >= phi(r)
    table = cyclo._reduction_table

    def guarded(r):
        if any(r % (p * p) == 0 for p in prime_factors(r)):
            raise AssertionError("reduction table built at order %d" % r)
        rows = table(r)
        assert len(rows) == r - euler_phi(r)
        return rows
    monkeypatch.setattr(cyclo, "_reduction_table", guarded)
    inv = parse_value("E(100000000,99999999)")
    assert str(inv) == ("E(100000000,9999999) - E(100000000,19999999)"
                        " + E(100000000,29999999) - E(100000000,39999999)")
    assert inv * zeta(10 ** 8) == cyc(1)
    value = parse_value("1 + E(20011,20010)")
    assert value.conductor == 20011
    assert value.coeffs == {e: -1 for e in range(1, 20010)}


def test_is_zero_against_the_reduction_mod_phi():
    rng = random.Random(5)
    zeros = 0
    for _ in range(3000):
        n = rng.randint(1, 210)
        raw = {}
        # sums of all p-th roots zeta_n^e * zeta_p^j vanish
        for _ in range(rng.randint(0, 3)):
            p = rng.choice(prime_factors(n) or (1,))
            e, c = rng.randrange(n), rng.randint(-3, 3)
            for j in range(p):
                key = (e + j * n // p) % n
                raw[key] = raw.get(key, 0) + c
        if rng.random() < 0.5:
            key = rng.randrange(n)
            raw[key] = raw.get(key, 0) + rng.choice((-1, 1))
        raw = {e: c for e, c in raw.items() if c}
        expected = not cyclo._reduce_int(n, raw)
        zeros += expected
        assert cyclo._is_zero(n, raw) == expected, (n, raw)
    assert 500 < zeros < 2500


def test_zeta_matches_the_full_canonicalization():
    # zeta builds a primitive root at its known conductor with no descent;
    # the oracle reduces zeta_n^k mod Phi_n at n itself and descends
    for n in range(1, 401):
        for k in range(n):
            num = cyclo._reduce_int(n, {k: 1})
            full = cyclo.Cyclotomic(*cyclo._normalize_content(*cyclo._shrink_int(n, num, 1)))
            assert zeta(n, k) == full == from_terms(n, {k: 1}), (n, k)


def test_trace_divisible_value_does_not_descend():
    # at p = 3 the trace of -2 zeta_15^7 divides by p - 1 = 2, but its parts
    # over zeta_3 differ, so the value stays at conductor 15
    assert cyclo._descend_coprime(15, {7: -2}, 3) is None
    assert cyclo._descend_coprime(15, {3: 1}, 3) == {1: 1}
    value = from_terms(15, {7: -2})
    assert value.conductor == 15
    assert str(value) == "-2*E(15,7)"


def test_grammar_errors():
    for bad in ["", "E(5)", "E(x,1)", "1 + + 2", "E(5,1", "2**E(5,1)", "1/0"]:
        with pytest.raises(ValueSyntaxError):
            parse_value(bad)


def test_digit_separators_are_refused():
    assert int("1_0") == 10  # which the value grammar does not allow
    for bad in ["1_0", "-1_0/1_0", "1/1_0", "E(1_0,1)", "E(5,1_0)", "2_0*E(5,1)"]:
        with pytest.raises(ValueSyntaxError):
            parse_value(bad)


def test_value_terms_come_before_any_arithmetic(monkeypatch):
    def forbidden(*args):
        raise AssertionError("arithmetic while reading terms")
    monkeypatch.setattr(cyclo, "zeta", forbidden)
    monkeypatch.setattr(cyclo, "linear_sum", forbidden)
    assert value_terms(" 2 - E(3,1) + 1/2*E(100000000, 7) - 3/4") == [
        (2, 1, 0), (-1, 3, 1), (Fraction(1, 2), 100000000, 7), (Fraction(-3, 4), 1, 0)]
    assert value_terms("-E(4,3)") == [(-1, 4, 3)]


def test_sort_key_total_order():
    vals = [zeta(5), zeta(5, 2), cyc(3), cyc(-1), zeta(8, 3), zeta(3) + 1]
    keys = [v.sort_key() for v in vals]
    assert len(set(keys)) == len(vals)
    # equal values share keys
    assert (zeta(3) + zeta(3, 2)).sort_key() == cyc(-1).sort_key()


def test_hash_consistency():
    assert hash(zeta(6)) == hash(cyc(1) + zeta(3))
    d = {zeta(5): "a"}
    d[zeta(10, 2)] = "b"  # zeta_10^2 = zeta_5
    assert d[zeta(5)] == "b" and len(d) == 1


def test_phi():
    assert [euler_phi(n) for n in [1, 2, 3, 4, 12, 60]] == [1, 1, 2, 2, 4, 16]


# sympy is used below only as an independent oracle

X = symbols("x")


def _zz_poly(terms, scale):
    coeffs = {}
    for e, c in terms.items():
        scaled = Fraction(c) * scale
        assert scaled.denominator == 1
        coeffs[(e,)] = int(scaled)
    return Poly(coeffs or {(0,): 0}, X, domain=ZZ)


def test_cyclotomic_polynomial_against_sympy():
    for n in range(1, 300):
        expected = cyclotomic_poly(n, X, polys=True).all_coeffs()[::-1]
        assert list(cyclotomic_polynomial(n)) == expected


def test_reduce_int_against_sympy_rem():
    rng = random.Random(10)
    for n in [*range(1, 301), 360]:
        phi_n = cyclotomic_poly(n, X, polys=True)
        trials = 12 if n in (8, 9, 16, 18, 24, 27, 72, 168, 180, 360) else 2
        for _ in range(trials):
            raw = {rng.randrange(n): rng.randint(-5, 5) for _ in range(rng.randint(1, 8))}
            rem = _zz_poly(raw, 1).rem(phi_n)
            expected = {e: int(c) for (e,), c in rem.terms() if c}
            assert cyclo._reduce_int(n, raw) == expected, (n, raw)


def _check_against_fixed_field(value, n, terms):
    """The conductor of `value` must be the least m | n whose Galois
    subgroup {k = 1 (mod m)} fixes sum c_e zeta_n^e mod Phi_n, the value
    must be in the power basis of its conductor, and re-embedded at n it
    must equal that sum mod Phi_n."""
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    units = [k for k in range(1, n + 1) if gcd(k, n) == 1]
    scale = lcm(*(Fraction(c).denominator for c in terms.values()))
    phi_n = cyclotomic_poly(n, X, polys=True)
    poly = _zz_poly(terms, scale)
    fixed = {}

    def fixes(k):
        if k not in fixed:
            image = _zz_poly({e * k % n: c for e, c in terms.items()}, scale)
            fixed[k] = (image - poly).rem(phi_n).is_zero
        return fixed[k]

    f = next(m for m in divisors
             if all(fixes(k) for k in units if (k - 1) % m == 0))
    if f % 4 == 2:
        f //= 2
    assert value.conductor == f, (n, terms, str(value))
    assert all(e < euler_phi(f) for e in value.coeffs), (n, terms, str(value))
    step = n // f
    embedded = _zz_poly({e * step: c for e, c in value.coeffs.items()}, scale)
    assert (embedded - poly).rem(phi_n).is_zero, (n, terms, str(value))


def test_minimal_conductor_against_fixed_field_oracle():
    """Orbit sums over {k = 1 (mod d)} land in Q(zeta_d)."""
    rng = random.Random(2026)
    conductors = [m for m in range(1, 121) if m % 4 != 2]
    for _ in range(120):
        n = rng.choice(conductors)
        divisors = [m for m in range(1, n + 1) if n % m == 0]
        d = rng.choice(divisors)
        units = [k for k in range(1, n + 1) if gcd(k, n) == 1]
        base = {rng.randrange(n): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))}
        terms = {}
        for k in units:
            if (k - 1) % d == 0:
                for e, c in base.items():
                    terms[e * k % n] = terms.get(e * k % n, 0) + c
        _check_against_fixed_field(from_terms(n, terms), n, terms)


def _sum_terms(pairs, n):
    """sum c * v as an exponent map at n, with no cyclo arithmetic."""
    terms = {}
    for c, v in pairs:
        step = n // v.conductor
        for e, x in v.coeffs.items():
            terms[e * step] = terms.get(e * step, 0) + Fraction(c) * x
    return terms


def test_linear_sum_against_fixed_field_oracle():
    rng = random.Random(8)
    conductors = [m for m in range(1, 121) if m % 4 != 2]

    def rat(num, den):
        return Fraction(rng.randint(-num, num), rng.randint(1, den))

    def value(m):
        return from_terms(m, {rng.randrange(m): rat(3, 4) for _ in range(rng.randint(1, 3))})

    cases = []
    for _ in range(60):
        n = rng.choice(conductors)
        ms = [rng.choice([m for m in conductors if n % m == 0])
              for _ in range(rng.randint(1, 4))]
        cases.append([(rat(5, 6), value(m)) for m in ms])
    v, w = value(60), value(8)
    cases += [
        [],
        [(0, v), (Fraction(2, 3), cyc(0))],
        [(Fraction(-3, 2), v)],  # single term
        [(Fraction(1, 3), v), (2, w), (Fraction(-1, 3), v), (-2, w)],  # cancels
        [(1, zeta(7, k)) for k in range(7)],  # rational total
        [(3, v), (1, w.conjugate()), (Fraction(1, 2), v.conjugate()), (2, w)],
    ]
    for pairs in cases:
        n = lcm(1, *(v.conductor for _, v in pairs))
        total = linear_sum(pairs)
        _check_against_fixed_field(total, n, _sum_terms(pairs, n))
        assert total == sum((cyc(c) * v for c, v in pairs), cyc(0))
    assert linear_sum([]) == cyc(0)
    assert linear_sum([(1, zeta(7, k)) for k in range(7)]) == cyc(0)
    assert linear_sum([(1, zeta(3)), (1, zeta(3, 2))]) == cyc(-1)


def _qq_poly_at(value, n):
    """A value whose conductor divides n, as a polynomial in zeta_n."""
    step = n // value.conductor
    return Poly({(e * step,): c for e, c in value.coeffs.items()} or {(0,): 0},
                X, domain=QQ)


def test_inverse_and_division_against_sympy():
    """a^-1 equals sympy's inverse of a modulo Phi_n, a * a^-1 == 1 and
    (a / b) * b == a, at conductors n <= 60."""
    rng = random.Random(1960)
    conductors = [m for m in range(1, 61) if m % 4 != 2]
    checked = 0
    for _ in range(80):
        n = rng.choice(conductors)
        a, b = (from_terms(n, {rng.randrange(n): Fraction(rng.randint(-4, 4),
                                                          rng.randint(1, 3))
                               for _ in range(rng.randint(1, 4))})
                for _ in range(2))
        if a.is_zero() or b.is_zero():
            continue
        inv = a.inverse()
        assert a * inv == cyc(1), (n, str(a))
        assert (a / b) * b == a, (n, str(a), str(b))
        phi_n = cyclotomic_poly(n, X, polys=True).set_domain(QQ)
        expected = _qq_poly_at(a, n).invert(phi_n)
        assert (_qq_poly_at(inv, n) - expected).rem(phi_n).is_zero, (n, str(a))
        checked += 1
    assert checked >= 70
