"""Exact arithmetic in cyclotomic fields.

Values are elements of Q(zeta_n) stored in the power basis
{zeta_n^0, ..., zeta_n^(phi(n)-1)} reduced modulo the n-th cyclotomic
polynomial, with the conductor n always shrunk to the minimal one
(and never congruent to 2 mod 4, so rationals have conductor 1).
Two values are equal iff their (conductor, coefficient map) pairs agree.

The minimal conductor is reached by exact descent from Q(zeta_n) to
Q(zeta_{n/p}), one prime p | n at a time, in integer arithmetic:

- p^2 | n: Phi_n(x) = Phi_{n/p}(x^p), so the power basis of Q(zeta_n) is
  {zeta_n^r * zeta_{n/p}^i : r < p} and the value lies in Q(zeta_{n/p})
  iff every exponent with a nonzero coefficient is divisible by p; it is
  then e -> e/p (folded once more when n/p = 2 mod 4).
- p || n, d = n/p: by CRT zeta_n^e = zeta_d^a * zeta_p^b with
  a = e/p mod d and b = e/d mod p, so the value is sum_b X_b zeta_p^b with
  X_b in Q(zeta_d), and {zeta_p^b : 0 < b < p} is a basis of Q(zeta_n)
  over Q(zeta_d). The value lies in Q(zeta_d) iff X_1 = ... = X_{p-1},
  and it is then X_0 - X_1.

`_is_zero` decides X_b = X_{b+1} by these two splittings, recursively on
the sparse exponent dict with no reduction mod Phi, so rejecting a value
costs time in its number of terms, whatever the conductor.

A primitive root of unity needs no descent: zeta_n^k with gcd(k, n) = 1
has conductor n, or n/2 when n = 2 (mod 4), so `zeta` (memoized) only
folds and reduces it.

Internally a value keeps integer numerators and one common denominator,
so the frequent basis reductions run in pure integer arithmetic; the
public coefficient view is in `fractions.Fraction`.

Every sum of values (`Cyclotomic.__add__`, `parse_value`, `from_terms`,
rational multiples, `dl_rank1`'s value keys, the character sums of
`dl_rank1` and `rigidity`) is one `linear_sum`: the terms are embedded at
the lcm conductor over one denominator, added in integers and
canonicalized once. The one other route, a product of irrational values,
canonicalizes at the lcm of two conductors, which is never 2 mod 4. The
reduction mod Phi_n works at the radical r of n:
Phi_n(x) = Phi_r(x^s) with s = n/r (Washington, "Introduction to
Cyclotomic Fields", GTM 83, section 2), so zeta_n^e for e = q*s + t, t < s,
is zeta_n^t * zeta_r^q: a basis element when q < phi(r), else row q of the
table of zeta_r^q mod Phi_r (phi(r) <= q < r) spread over the exponents
i*s + t. Only a huge squarefree part of n needs a large table: building
it takes (r - phi(r)) * phi(r) list steps, and past TABLE_STEP_BOUND steps
`_reduction_table` raises `MemoryError` before any work. Every r <= 5000
and every prime r <= 10^7 is within the bound (the largest r <= 5000,
4982, takes 6,195,280 steps, about 0.6 s); r = 3,000,009 = 3 * 1,000,003
would take 2 * 10^12.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm, prod
from typing import Dict, Iterable, List, Tuple, Union

from .modp import euler_phi, prime_factors, read_int

Rational = Fraction
Coeff = Union[int, Fraction]

TABLE_STEP_BOUND = 10 ** 7  # list steps of the largest reduction table built

# ---------------------------------------------------------------------------
# per-conductor data, memoized: each is a pure function of its argument


@cache
def _radical(n: int) -> Tuple[int, int, int]:
    """(r, s, phi(r)) for r the radical of n and s = n/r."""
    r = prod(prime_factors(n))
    return r, n // r, euler_phi(r)


@cache
def cyclotomic_polynomial(n: int) -> Tuple[int, ...]:
    """Coefficients of Phi_n, constant term first: Phi_n(x) = Phi_r(x^s),
    and Phi_r is the product of (x^(r/d) - 1)^mu(d) over d | r, taken one
    binomial at a time with every multiplication before the exact
    divisions, so that each step stays a polynomial."""
    r, s, phi = _radical(n)
    primes = prime_factors(r)
    poly = [1]
    for odd in (0, 1):
        for k in range(odd, len(primes) + 1, 2):
            for ps in combinations(primes, k):
                m = r // prod(ps)
                if odd:  # p = q * (x^m - 1): q_i = q_(i-m) - p_i
                    q = [0] * m
                    for c in poly[:-m]:
                        q.append(q[-m] - c)
                    poly = q[m:]
                else:
                    poly = [a - b for a, b in zip([0] * m + poly, poly + [0] * m)]
    out = [0] * (phi * s + 1)
    out[::s] = poly
    return tuple(out)


@cache
def _reduction_table(r: int) -> Tuple[Tuple[int, ...], ...]:
    """Row q - phi(r) = the nonzero (index, coefficient) pairs of zeta_r^q
    in the power basis mod Phi_r, for phi(r) <= q < r; r is squarefree."""
    phi = euler_phi(r)
    if (r - phi) * phi > TABLE_STEP_BOUND:
        raise MemoryError("reducing mod Phi_%d takes a table of %d rows of %d"
                          % (r, r - phi, phi))
    low = cyclotomic_polynomial(r)[:phi]
    support = [(i, c) for i, c in enumerate(low) if c]
    cur = [-c for c in low]  # x^phi
    rows = []
    for _ in range(phi, r):
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i, c in support:
                cur[i] -= top * c
    return tuple(rows)


# ---------------------------------------------------------------------------
# integer-kernel canonicalization helpers


def _reduce_int(n: int, raw: Dict[int, Coeff]) -> Dict[int, Coeff]:
    """Reduce an exponent dict (mod n) to its nonzero power-basis
    coefficients (integers in the canonicalization, any rationals in
    `raw_*`), at the radical of n as the module docstring says."""
    r, s, phi = _radical(n)
    acc: Dict[int, Coeff] = {}
    for e, c in raw.items():
        if not c:
            continue
        e %= n
        if e < phi * s:
            acc[e] = acc.get(e, 0) + c
        else:
            q, t = divmod(e, s)
            for i, x in _reduction_table(r)[q - phi]:
                e = i * s + t
                acc[e] = acc.get(e, 0) + c * x
    return {e: c for e, c in acc.items() if c}


def _is_zero(n: int, terms: Dict[int, int]) -> bool:
    """Whether sum c * zeta_n^e over terms (exponents in [0, n)) is zero.
    Fewer terms than the least prime p | n never vanish, by induction over
    the splittings below."""
    if not terms:
        return True
    if n == 1:
        return False
    p = prime_factors(n)[0]
    if len(terms) < p:
        return False
    d = n // p
    if d % p == 0:
        # zeta_n^e = zeta_n^(e mod p) * zeta_d^(e // p); basis zeta_n^r, r < p
        parts: Dict[int, Dict[int, int]] = {}
        for e, c in terms.items():
            parts.setdefault(e % p, {})[e // p] = c
        return all(_is_zero(d, x) for x in parts.values())
    return _parts_agree(d, _crt_parts(n, p, terms), 0, p)


def _crt_parts(n: int, p: int, terms: Dict[int, int]) -> Dict[int, Dict[int, int]]:
    """The terms as X_b over b, for p prime to d = n/p: zeta_n^e is
    zeta_d^a * zeta_p^b with a = e/p mod d and b = e/d mod p."""
    d = n // p
    p_inv, d_inv = pow(p, -1, d), pow(d, -1, p)
    parts: Dict[int, Dict[int, int]] = {}
    for e, c in terms.items():
        parts.setdefault(e * d_inv % p, {})[e * p_inv % d] = c
    return parts


def _parts_agree(d: int, parts: Dict[int, Dict[int, int]], lo: int, hi: int) -> bool:
    """Whether the values parts[b] of Q(zeta_d) (missing = 0) are equal for
    lo <= b < hi; parts has no other keys."""
    if len(parts) < hi - lo:
        return all(_is_zero(d, x) for x in parts.values())
    return all(parts[b] == parts[b + 1] or _is_zero(d, _minus(parts[b], parts[b + 1]))
               for b in range(lo, hi - 1))


def _minus(x: Dict[int, int], y: Dict[int, int]) -> Dict[int, int]:
    return {e: c for e in x.keys() | y.keys() if (c := x.get(e, 0) - y.get(e, 0))}


def _descend_coprime(n: int, num: Dict[int, int], p: int):
    """Reduced exponents of the value in Q(zeta_{n/p}) for a prime p prime
    to n/p, or None when it does not lie there."""
    parts = _crt_parts(n, p, num)
    x0 = parts.pop(0, {})
    if not _parts_agree(n // p, parts, 1, p):
        return None
    return _reduce_int(n // p, _minus(x0, parts.get(1, {})))


def _shrink_int(n: int, num: Dict[int, int], den: int):
    """Minimal-conductor form of reduced integer coefficients over den
    (zero comes out at conductor 1; `_normalize_content` clears its den)."""
    while n > 1 and num and not (len(num) == 1 and 0 in num):
        for p in prime_factors(n):
            d = n // p
            if d % p == 0:
                if any(e % p for e in num):
                    continue
                num = {e // p: c for e, c in num.items()}
                if d % 4 == 2:
                    d, raw = _fold_even_conductor(d, num)
                    num = _reduce_int(d, raw)
            else:
                sub = _descend_coprime(n, num, p)
                if sub is None:
                    continue
                num = sub
            n = d
            break
        else:
            return n, num, den
    return 1, num, den


def _normalize_content(n: int, num: Dict[int, int], den: int):
    if not num:
        return 1, {}, 1
    g = den
    for c in num.values():
        g = gcd(g, c)
        if g == 1:
            break
    if g > 1:
        num = {e: c // g for e, c in num.items()}
        den //= g
    return n, num, den


def _fold_even_conductor(n: int, raw: Dict[int, int]) -> Tuple[int, Dict[int, int]]:
    """Rewrite exponents at n = 2 (mod 4) in terms of zeta_{n/2}."""
    while n % 4 == 2:
        m = n // 2
        half = (m + 1) // 2
        folded: Dict[int, int] = {}
        for e, c in raw.items():
            e %= n
            key = (half * e) % m
            folded[key] = folded.get(key, 0) + (-c if e % 2 else c)
        n, raw = m, folded
    return n, raw


# ---------------------------------------------------------------------------
# the value type


class Cyclotomic:
    """An element of some Q(zeta_n), canonical and immutable."""

    __slots__ = ("_n", "_num", "_den", "_hash")

    def __init__(self, n: int, num: Dict[int, int], den: int):
        # private: callers go through the module constructors
        self._n = n
        self._num = num
        self._den = den
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(x: Union[int, Fraction]) -> "Cyclotomic":
        if isinstance(x, int):
            return Cyclotomic(1, {0: x} if x else {}, 1)
        f = Fraction(x)
        if not f:
            return Cyclotomic(1, {}, 1)
        return Cyclotomic(1, {0: f.numerator}, f.denominator)

    # -- accessors ---------------------------------------------------------

    @property
    def conductor(self) -> int:
        return self._n

    @property
    def coeffs(self) -> Dict[int, Fraction]:
        return {e: Fraction(c, self._den) for e, c in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def is_rational(self) -> bool:
        return self._n == 1

    def to_rational(self) -> Fraction:
        if self._n != 1:
            raise ValueError("value is not rational: %s" % self)
        return Fraction(self._num.get(0, 0), self._den)

    def is_integer(self) -> bool:
        return self._n == 1 and self._den == 1

    def to_integer(self) -> int:
        r = self.to_rational()
        if r.denominator != 1:
            raise ValueError("value is not an integer: %s" % self)
        return r.numerator

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return linear_sum(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self._n, {e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other._n == 1:
            return linear_sum(((other.to_rational(), self),))
        if self._n == 1:
            return other * self
        m = lcm(self._n, other._n)
        sa, sb = m // self._n, m // other._n
        raw: Dict[int, int] = {}
        for e1, c1 in self._num.items():
            e1s = e1 * sa
            for e2, c2 in other._num.items():
                e = (e1s + e2 * sb) % m
                raw[e] = raw.get(e, 0) + c1 * c2
        num = _reduce_int(m, raw)  # m is not 2 mod 4: no fold
        return Cyclotomic(*_normalize_content(*_shrink_int(m, num, self._den * other._den)))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse through the Galois norm: the product c of
        the conjugates sigma_k(a), k != 1, makes N(a) = a c rational, so
        a^-1 = c / N(a). Raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero cyclotomic value")
        n = self._n
        rest = ONE
        for k in range(2, n):
            if gcd(k, n) == 1:
                rest = rest * self.galois(k)
        return rest * Cyclotomic.from_rational(1 / (self * rest).to_rational())

    def __truediv__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, k: int) -> "Cyclotomic":
        if k < 0:
            return self.inverse() ** (-k)
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- Galois action -----------------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """Apply zeta_n -> zeta_n^k; k must be coprime to the conductor."""
        n = self._n
        k %= n
        if gcd(k, n) != 1:
            raise ValueError("galois exponent %d not coprime to conductor %d" % (k, n))
        if n == 1 or k == 1:
            return self
        num = _reduce_int(n, {(e * k) % n: c for e, c in self._num.items()})
        # a Galois image has the same minimal conductor, so no shrink
        return Cyclotomic(*_normalize_content(n, num, self._den))

    def conjugate(self) -> "Cyclotomic":
        return self.galois(-1)

    # -- comparisons / misc --------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self._n == other._n and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._n, self._den, frozenset(self._num.items())))
        return self._hash

    def sort_key(self) -> tuple:
        """Total-order key usable for deterministic table layouts."""
        phi = euler_phi(self._n) if self._n > 1 else 1
        return (self._n, tuple(self._num.get(i, 0) for i in range(phi)), self._den)

    def __repr__(self):
        return "Cyclotomic(%r)" % format_value(self)

    def __str__(self):
        return format_value(self)


def _coerce(x) -> "Cyclotomic":
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic.from_rational(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# public constructors


@cache
def zeta(n: int, k: int = 1) -> Cyclotomic:
    """The root of unity zeta_n^k in canonical form."""
    if n < 1:
        raise ValueError("order of a root of unity must be positive")
    k %= n
    g = gcd(k, n)
    n, k = n // g, k // g
    if n == 1:
        return ONE
    # a primitive n-th root has conductor n, or n/2 when n = 2 (mod 4)
    n, raw = _fold_even_conductor(n, {k: 1})
    return Cyclotomic(n, _reduce_int(n, raw), 1)


def cyc(x: Union[int, Fraction, Cyclotomic]) -> Cyclotomic:
    """Coerce a rational or cyclotomic to Cyclotomic."""
    c = _coerce(x)
    if c is NotImplemented:
        raise TypeError("cannot interpret %r as a cyclotomic value" % (x,))
    return c


def from_terms(n: int, terms: Dict[int, Coeff]) -> Cyclotomic:
    """Sum of c_e * zeta_n^e over the given exponent map, canonicalized."""
    return linear_sum((c, zeta(n, e)) for e, c in terms.items())


def linear_sum(pairs: Iterable[Tuple[Coeff, Cyclotomic]]) -> Cyclotomic:
    """Sum of c * v over (rational c, Cyclotomic v) pairs, canonicalized
    once. A lone term is only scaled; when every term has the lcm conductor
    m its exponents are already reduced mod Phi_m, so the reduction is
    skipped."""
    terms = []
    m = den = 1
    for c, v in pairs:
        if c and v._num:
            d = c.denominator * v._den
            terms.append((c.numerator, d, v))
            m = lcm(m, v._n)
            den = lcm(den, d)
    if not terms:
        return ZERO
    if len(terms) == 1:
        c, d, v = terms[0]
        return Cyclotomic(*_normalize_content(
            v._n, {e: x * c for e, x in v._num.items()}, d))
    raw: Dict[int, int] = {}
    reduced = True
    for c, d, v in terms:
        step = m // v._n
        reduced = reduced and step == 1
        c *= den // d
        for e, x in v._num.items():
            e *= step
            raw[e] = raw.get(e, 0) + x * c
    num = {e: x for e, x in raw.items() if x} if reduced else _reduce_int(m, raw)
    return Cyclotomic(*_normalize_content(*_shrink_int(m, num, den)))


# ---------------------------------------------------------------------------
# raw helpers for hot loops (group-algebra representation, reduce once)


def raw_embed(a: Cyclotomic, m: int) -> Dict[int, Coeff]:
    """Exponent dict of `a` viewed in Q(zeta_m); conductor must divide m."""
    step, rem = divmod(m, a._n)
    if rem:
        raise ValueError("conductor %d does not divide %d" % (a._n, m))
    if a._den == 1:
        return {e * step: c for e, c in a._num.items()}
    d = a._den
    return {e * step: Fraction(c, d) for e, c in a._num.items()}


def raw_mul(d1: Dict[int, Coeff], d2: Dict[int, Coeff], m: int) -> Dict[int, Coeff]:
    out: Dict[int, Coeff] = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            e = (e1 + e2) % m
            out[e] = out.get(e, 0) + c1 * c2
    return out


def raw_conjugate(d: Dict[int, Coeff], m: int) -> Dict[int, Coeff]:
    out: Dict[int, Coeff] = {}
    for e, c in d.items():
        k = (-e) % m
        out[k] = out.get(k, 0) + c
    return out


def raw_equals_rational(m: int, raw: Dict[int, Coeff], value: Coeff) -> bool:
    return _reduce_int(m, raw) == ({0: value} if value else {})


# ---------------------------------------------------------------------------
# external value grammar:  sums of  c | c*E(n,k) | E(n,k)


def format_value(a: Cyclotomic) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for e in sorted(a._num):
        c = Fraction(a._num[e], a._den)
        neg = c < 0
        mag = -c if neg else c
        if e == 0 or a._n == 1:
            body = _format_rat(mag)
        elif mag == 1:
            body = "E(%d,%d)" % (a._n, e)
        else:
            body = "%s*E(%d,%d)" % (_format_rat(mag), a._n, e)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def _format_rat(c: Coeff) -> str:
    f = Fraction(c)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


class ValueSyntaxError(ValueError):
    pass


def parse_value(text: str) -> Cyclotomic:
    """Parse the external value grammar back into a canonical Cyclotomic."""
    return linear_sum((c, zeta(n, k)) for c, n, k in value_terms(text))


def value_terms(text: str) -> List[Tuple[Coeff, int, int]]:
    """The terms of a value in the external grammar as (c, n, k) for
    c*E(n,k), a rational term c as (c, 1, 0), read before any arithmetic."""
    s = text.replace(" ", "").replace("\t", "")
    if not s:
        raise ValueSyntaxError("empty value")
    terms = []
    depth = 0
    cur = ""
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueSyntaxError("unbalanced parenthesis in %r" % text)
        if ch in "+-" and depth == 0 and i > 0 and s[i - 1] not in "+-(*/,":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    if depth != 0:
        raise ValueSyntaxError("unbalanced parenthesis in %r" % text)
    terms.append(cur)
    return [_parse_term(term, text) for term in terms]


def _parse_term(term: str, context: str) -> Tuple[Coeff, int, int]:
    t = term
    sign = 1
    if t and t[0] in "+-":
        if t[0] == "-":
            sign = -1
        t = t[1:]
    if not t or t[0] in "+-":
        raise ValueSyntaxError("dangling sign in %r" % context)
    if "*" in t:
        coeff_text, _, t = t.partition("*")
        sign *= _parse_rat(coeff_text, context)
    elif not t.startswith("E"):
        return sign * _parse_rat(t, context), 1, 0
    return (sign, *_parse_root(t, context))


def _parse_rat(t: str, context: str) -> Fraction:
    try:
        if "/" in t:
            num, _, den = t.partition("/")
            return Fraction(read_int(num), read_int(den))
        return Fraction(read_int(t))
    except (ValueError, ZeroDivisionError):
        raise ValueSyntaxError("bad rational %r in %r" % (t, context)) from None


def _parse_root(t: str, context: str) -> Tuple[int, int]:
    if not (t.startswith("E(") and t.endswith(")")):
        raise ValueSyntaxError("bad root-of-unity term %r in %r" % (t, context))
    inner = t[2:-1]
    parts = inner.split(",")
    if len(parts) != 2:
        raise ValueSyntaxError("E(n,k) needs two arguments in %r" % context)
    try:
        n, k = read_int(parts[0]), read_int(parts[1])
    except ValueError:
        raise ValueSyntaxError("non-integer arguments in %r" % context) from None
    if n < 1:
        raise ValueSyntaxError("E(n,k) needs n >= 1 in %r" % context)
    return n, k


ZERO = Cyclotomic(1, {}, 1)
ONE = Cyclotomic(1, {0: 1}, 1)
