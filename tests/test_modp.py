"""The shared prime-field layer against sympy, used here only as an oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, isprime, prevprime, primefactors, totient
from sympy.polys.matrices import DomainMatrix

from rigikit.modp import (
    PRIME_TEST_BOUND,
    InputSyntaxError,
    element_of_order,
    euler_phi,
    gauss_jordan,
    is_prime,
    mat_det,
    mat_add_scalar,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_rank,
    mat_rows,
    nullspace,
    prime_factors,
    prime_one_mod,
    read_int,
    read_lines,
)
from rigikit.smallgrp import make_element

PRIMES = [2, 3, 5, 7, 11, 13]
WIDE_PRIMES = [2, 7, 13, 61, 337, 65537, 1000003]  # fields up to 10^6


def to_sympy(rows, p):
    K = GF(p)
    shape = (len(rows), len(rows[0]))
    return DomainMatrix([[K(v) for v in row] for row in rows], shape, K)


def from_sympy(m, p):
    return [[int(v) % p for v in row] for row in m.to_list()]


@st.composite
def matrices(draw, square=False, singular=False, primes=PRIMES):
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, 6))
    m = n if square else draw(st.integers(1, 6))
    rows = [[draw(st.integers(0, p - 1)) for _ in range(m)] for _ in range(n)]
    if singular:
        # the last row becomes a combination of the others (zero when n = 1)
        coeffs = [draw(st.integers(0, p - 1)) for _ in range(n - 1)]
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) % p
                    for j in range(m)]
    return p, rows


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_square_inverse_and_det(case):
    p, rows = case
    oracle = to_sympy(rows, p)
    det = int(oracle.det()) % p
    assert mat_det(rows, p) == det
    if det:
        assert [list(r) for r in mat_inv(rows, p)] == from_sympy(oracle.inv(), p)
    else:
        with pytest.raises(ZeroDivisionError):
            mat_inv(rows, p)


@settings(max_examples=100, deadline=None)
@given(matrices(square=True, singular=True))
def test_singular_square(case):
    p, rows = case
    assert mat_det(rows, p) == 0
    assert mat_rank(rows, p) == to_sympy(rows, p).rank() < len(rows)
    with pytest.raises(ZeroDivisionError):
        mat_inv(rows, p)
    with pytest.raises(ZeroDivisionError):
        make_element(rows, p).inverse()


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(), matrices(singular=True)))
def test_rank_nullspace_and_reduced_form(case):
    p, rows = case
    oracle = to_sympy(rows, p)
    rank = oracle.rank()
    assert mat_rank(rows, p) == rank
    basis = nullspace(rows, p)
    assert len(basis) == len(rows[0]) - rank
    for v in basis:
        assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows)
    reduced = [list(r) for r in rows]
    pivots, _ = gauss_jordan(reduced, p, len(rows[0]))
    rref, oracle_pivots = oracle.rref()
    assert reduced == from_sympy(rref, p)
    assert tuple(pivots) == tuple(oracle_pivots)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_matrix_product_and_scalar_shift(data):
    p, a = data.draw(matrices(primes=WIDE_PRIMES))
    cols = data.draw(st.integers(1, 6))
    b = [[data.draw(st.integers(0, p - 1)) for _ in range(cols)] for _ in a[0]]
    product = from_sympy(to_sympy(a, p) * to_sympy(b, p), p)
    assert [list(r) for r in mat_mul(a, b, p)] == product
    # the same product from unreduced and negative representatives, the left
    # factor a generator of rows and the right one given as the rows of b^T
    lift = st.integers(-3, 3)
    a_lifted = [[v + p * data.draw(lift) for v in row] for row in a]
    bt_lifted = [[v + p * data.draw(lift) for v in col] for col in zip(*b)]
    assert [list(r) for r in mat_rows((row for row in a_lifted), bt_lifted, p)] == product
    # a row times a column and a column times a row at the widest prime,
    # entries far outside [0, q): the fields are widest there
    q = max(WIDE_PRIMES)
    n = data.draw(st.integers(1, 6))
    u, v = (data.draw(st.lists(st.integers(-q * q, q * q), min_size=n, max_size=n))
            for _ in range(2))
    for left, right in (([u], [[x] for x in v]), ([[x] for x in u], [v])):
        want = from_sympy(to_sympy(left, q) * to_sympy(right, q), q)
        assert [list(r) for r in mat_mul(left, right, q)] == want
        assert [list(r) for r in mat_rows(iter(left), list(zip(*right)), q)] == want
    _, square = data.draw(matrices(square=True, primes=[p]))
    s = data.draw(st.integers(-2 * p, 2 * p))
    eye = DomainMatrix.eye(len(square), GF(p))
    assert [list(r) for r in mat_add_scalar(square, s, p)] == from_sympy(
        to_sympy(square, p) + eye * GF(p)(s), p)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matrix_power(data):
    p, a = data.draw(matrices(square=True, primes=WIDE_PRIMES))
    e = data.draw(st.sampled_from([1, 2, max(1, (p - 1) // 2)]))
    assert [list(r) for r in mat_pow(a, e, p)] == from_sympy(to_sympy(a, p) ** e, p)


def test_integer_functions_against_sympy():
    for n in range(1, 3000):
        assert is_prime(n) == isprime(n)
        assert prime_factors(n) == tuple(primefactors(n))
        assert euler_phi(n) == totient(n)
    assert not is_prime(0) and not is_prime(-7)


# strong pseudoprimes to every prime base up to 5, 7, 11, 13, 23 and 37
STRONG_PSEUDOPRIMES = (25326001, 3215031751, 2152302898747, 3474749660383,
                       3825123056546413051, 318665857834031151167461)


def test_miller_rabin_against_sympy():
    for start in (10 ** 6, 2 ** 32 - 500, 10 ** 12, 10 ** 18, PRIME_TEST_BOUND - 1000):
        for n in range(start, start + 1000):
            assert is_prime(n) == isprime(n), n
    for n in STRONG_PSEUDOPRIMES:
        assert not isprime(n) and not is_prime(n), n
    assert is_prime(prevprime(PRIME_TEST_BOUND))
    for n in (PRIME_TEST_BOUND, PRIME_TEST_BOUND + 1, 10 ** 30):
        with pytest.raises(ValueError, match="exact only below"):
            is_prime(n)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10 ** 6), st.integers(2, 10 ** 12))
def test_miller_rabin_on_products_and_primes(a, b):
    for n in (a, b, a * b, a * b + 1):
        assert is_prime(n) == isprime(n), n


def test_prime_one_mod_and_element_order():
    for n in range(1, 200):
        for floor in (0, 50, 1 << 20):
            ell = prime_one_mod(n, floor)
            assert isprime(ell) and (ell - 1) % n == 0 and ell > max(floor, n)
            assert not any(isprime(c) for c in range(ell - n, max(floor, n), -n))
            w = element_of_order(n, ell)
            powers = [pow(w, e, ell) for e in range(1, n + 1)]
            assert powers.index(1) == n - 1


def test_read_lines_numbers_the_content_lines_and_counts_all():
    text = "# head\n\n  a b  \r\n\tc\n#\n"
    for data in (text, text.encode("ascii")):
        content, n_lines = read_lines(data)
        assert (list(content), n_lines) == ([(3, "a b"), (4, "c")], 5)
    # the whole input is checked when it is handed over, before any line is read
    with pytest.raises(InputSyntaxError) as err:
        read_lines(b"a\n\nb \xe9\n")
    assert (str(err.value), err.value.line) == ("byte 0xe9 is not ASCII (line 3)", 3)


def test_read_int_takes_plain_digits_only():
    assert [read_int(t) for t in ("0", "-12", "+7", " 5 ")] == [0, -12, 7, 5]
    for bad in ("1_0", "\u0661", "x", ""):
        with pytest.raises(ValueError, match="invalid literal for int"):
            read_int(bad)
