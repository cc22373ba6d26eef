"""Integer and prime-field arithmetic shared by the package.

Deterministic Miller-Rabin primality, trial-division factoring (the
integers factored here are group orders, exponents, element orders and
conductors), the Euler phi function built on the factoring (both
memoized: the same conductors are factored on every canonicalization),
primes l = 1 (mod n) with an element of order n in GF(l), one packed
matrix product over GF(p), `mat_rows` (a*bt^T by rows; under `mat_mul`,
`mat_pow`, Dixon's split and `validate`'s Gram rows), the scalar shift
a + s*I, and one Gauss-Jordan elimination over GF(p) under the matrix
inverse, determinant, rank and nullspace.
Every input file is read here: `read_lines` gives its content lines and
`read_int` its integers, plain ASCII digits.
"""

from __future__ import annotations

from functools import cache
from operator import mul
from typing import Iterator, List, Tuple


# the first 13 primes; as Miller-Rabin bases they decide primality exactly
# for every n below PRIME_TEST_BOUND (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the bases 2, 3, ..., 41; exact for
    n < PRIME_TEST_BOUND = 3,317,044,064,679,887,385,961,981, ValueError
    at or above it."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError("cannot decide whether %d is prime: the test is "
                         "exact only below %d" % (n, PRIME_TEST_BOUND))
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def prime_factors(n: int) -> Tuple[int, ...]:
    """Distinct prime divisors of n >= 1, ascending."""
    out = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


@cache
def euler_phi(n: int) -> int:
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


def prime_one_mod(n: int, floor: int) -> int:
    """Smallest prime l = 1 (mod n) with l > floor and l > n."""
    ell = max(1, -(-floor // n)) * n + 1
    while not is_prime(ell):
        ell += n
    return ell


def element_of_order(n: int, ell: int) -> int:
    """a^((ell - 1)/n) mod the prime ell for the least a >= 1 that makes it
    an element of multiplicative order n; n must divide ell - 1."""
    factors = prime_factors(n)
    for a in range(1, ell):
        w = pow(a, (ell - 1) // n, ell)
        if all(pow(w, n // q, ell) != 1 for q in factors):
            return w
    raise ValueError("no element of order %d mod %d" % (n, ell))


def primitive_root(p: int) -> int:
    """Least generator of the multiplicative group of GF(p)."""
    return element_of_order(p - 1, p)


# ---------------------------------------------------------------------------
# linear algebra over GF(p); matrices are sequences of rows of integers


def mat_add_scalar(a, s: int, p: int) -> Tuple[Tuple[int, ...], ...]:
    """a + s*I mod p, for a square matrix a."""
    return tuple(tuple((v + s if i == j else v) % p for j, v in enumerate(row))
                 for i, row in enumerate(a))


def mat_rows(a, bt, p: int) -> Iterator[Tuple[int, ...]]:
    """The rows of a*bt^T mod p, one at a time, for a any iterable of rows,
    bt a sequence of rows and entries any integers. Coordinate j of every
    row of bt, reduced mod p, is packed into one integer Y_j, b-th byte
    field first, so sum_j (x_j mod p) * Y_j holds entry (x, b) in field b:
    a field holds the largest entry, m (p - 1)^2 for rows of length m, and
    never carries into the next. No transposed copy of bt is held."""
    width = (len(bt[0]) * (p - 1) ** 2).bit_length() // 8 + 1
    packed = [int.from_bytes(b"".join([(v % p).to_bytes(width, "little") for v in coord]),
                             "little") for coord in zip(*bt)]
    size = width * len(bt)
    starts = range(0, size, width)
    for x in a:
        fields = sum(map(mul, map(p.__rmod__, x), packed)).to_bytes(size, "little")
        yield tuple(int.from_bytes(fields[s:s + width], "little") % p for s in starts)


def mat_mul(a, b, p: int) -> Tuple[Tuple[int, ...], ...]:
    """The product a*b mod p."""
    return tuple(mat_rows(a, tuple(zip(*b)), p))


def mat_pow(a, e: int, p: int) -> Tuple[Tuple[int, ...], ...]:
    """a^e mod p for a square matrix a and e >= 1, by repeated squaring."""
    if e == 1:
        return tuple(tuple(v % p for v in row) for row in a)
    half = mat_pow(a, e // 2, p)
    square = mat_mul(half, half, p)
    return mat_mul(square, a, p) if e & 1 else square


def gauss_jordan(rows: List[List[int]], p: int, ncols: int) -> Tuple[List[int], int]:
    """Reduce `rows` in place to reduced row echelon form mod p, taking
    pivots in the first `ncols` columns only, so that an augmented
    [A | B] reduces A and carries B along.

    Returns the pivot columns and the determinant of the pivot block, which
    is det(A) when A is square and every column has a pivot.
    """
    pivots: List[int] = []
    det = 1
    nrows = len(rows)
    r = 0
    for c in range(ncols):
        for sel in range(r, nrows):
            if rows[sel][c]:
                break
        else:
            continue
        if sel != r:
            rows[r], rows[sel] = rows[sel], rows[r]
            det = -det
        prow = rows[r]
        piv = prow[c]
        if piv != 1:
            det = det * piv % p
            inv = pow(piv, -1, p)
            prow = rows[r] = [v * inv % p for v in prow]
        for s in range(nrows):
            f = rows[s][c]
            if f and s != r:
                rows[s] = [(x - f * y) % p for x, y in zip(rows[s], prow)]
        pivots.append(c)
        r += 1
    return pivots, det % p


def mat_inv(a, p: int) -> Tuple[Tuple[int, ...], ...]:
    """Inverse of the square matrix a mod p; ZeroDivisionError if singular."""
    n = len(a)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    if len(gauss_jordan(rows, p, n)[0]) < n:
        raise ZeroDivisionError("matrix is singular mod %d" % p)
    return tuple(tuple(row[n:]) for row in rows)


def mat_det(a, p: int) -> int:
    n = len(a)
    pivots, det = gauss_jordan([list(row) for row in a], p, n)
    return det if len(pivots) == n else 0


def mat_rank(a, p: int) -> int:
    return len(gauss_jordan([list(row) for row in a], p, len(a[0]) if a else 0)[0])


def nullspace(a, p: int) -> List[List[int]]:
    """Basis of {v : a v = 0} mod p, one vector per non-pivot column."""
    ncols = len(a[0])
    rows = [list(row) for row in a]
    pivots = gauss_jordan(rows, p, ncols)[0]
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc] % p
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# input files


class InputSyntaxError(ValueError):
    """Input parse failure; carries the 1-based line."""

    def __init__(self, message: str, line: int):
        super().__init__("%s (line %d)" % (message, line))
        self.line = line


def read_lines(data) -> Tuple[Iterator[Tuple[int, str]], int]:
    """(line number, stripped line) for each line of `data` (str, or bytes
    that must be ASCII) that is neither blank nor a `#` comment, and the
    number of lines, for errors at the end of the input."""
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise InputSyntaxError("byte 0x%02x is not ASCII" % data[exc.start],
                                   data.count(b"\n", 0, exc.start) + 1) from None
    lines = data.splitlines()
    return ((ln, s) for ln, s in enumerate(map(str.strip, lines), 1)
            if s and not s.startswith("#")), len(lines)


def read_int(text: str) -> int:
    """`int(text)`, refusing what `int` accepts beyond ASCII digits and a
    sign: `_` separators and other scripts' digits."""
    if "_" in text or not text.isascii():
        raise ValueError("invalid literal for int() with base 10: %r" % text)
    return int(text)

