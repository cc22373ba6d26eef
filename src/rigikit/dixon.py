"""Dixon-Schneider computation of exact character tables.

Works entirely from a fully enumerated group. Class multiplication
constants are counted with index permutations: left multiplication by each
class representative z_k, read off the closure's breadth-first tree
(`smallgrp.FiniteGroup.left`), is a permutation u -> z_k*u of element
positions, and a[i][j][k] counts the u in C_i^-1 with z_k*u in C_j.
Inverse classes and power maps are the classes of the positions of the
representatives' powers (`smallgrp.ConjugacyClass.powers`), so `dixon`
multiplies and inverts no group element. Common eigenspaces of the class
matrices are split over a prime l = 1 (mod exponent) chosen larger than
twice the square root of the group order.
As l = 1 (mod exponent), l does not divide |G|, and the class matrices are
diagonalizable over GF(l) with every eigenvalue in GF(l). So a subspace
splits under one of them by matrix powers alone: for a shift s,
(M + s)^((l - 1)/2) is 0, +1 or -1 on each eigenspace, and the three kernels
part the subspace (the equal-degree split of Cantor and Zassenhaus, Math.
Comp. 36, 1981, applied to matrices). `dixon` does no polynomial arithmetic.
Subspace bases are kept in reduced echelon form, so a vector's coordinates
are its entries at the pivots: a class matrix restricts to a subspace
through its pivot rows (their product with the transposed basis, by
`modp.mat_rows`, the one product under the split's matrix powers too),
with no solve, and each eigenvector comes out scaled to 1 at the identity
class. Pieces stay invariant because the class algebra is commutative;
the split does not recheck it.

Each value lifts to an exact cyclotomic at its own class order m: the
multiplicities of the m-th roots of unity in chi(x) are the product of the
tuple (chi(x^t) mod l, t < m) with one inverse-DFT matrix mod l per order
m, and each distinct tuple is lifted once. Output is in canonical table
layout (`chartable.canonical_layout`).
"""

from __future__ import annotations

from math import isqrt, lcm
from operator import mul
from typing import List, Tuple

from .chartable import CharacterTable, build_table_mapped
from .cyclo import from_terms
from .modp import (
    element_of_order, gauss_jordan, mat_add_scalar, mat_mul, mat_pow, mat_rows,
    nullspace, prime_factors, prime_one_mod)
from .smallgrp import FiniteGroup, conjugacy_classes

PRIME_SEARCH_BOUND = 1_000_000


class DixonError(ValueError):
    pass


def dixon_parameters(order: int, exponent: int) -> Tuple[int, int]:
    """Smallest prime l = 1 (mod exponent), l > 2*ceil(sqrt(order)), and an
    element of multiplicative order = exponent mod l."""
    floor_bound = 2 * isqrt(order - 1) + 2 if order > 1 else 3
    ell = prime_one_mod(exponent, floor_bound)
    if ell > PRIME_SEARCH_BOUND:
        raise DixonError(
            "no prime l = 1 mod %d below %d" % (exponent, PRIME_SEARCH_BOUND))
    return ell, element_of_order(exponent, ell)


def _ordered_classes(group: FiniteGroup):
    """Conjugacy classes in table order (identity first) and the number of
    the class of each element position in that order. Ties of order and
    size go by the representative's integer key, which orders as the tuple
    of its row codes, so the order is that of row-code tuples."""
    classes = conjugacy_classes(group)
    order = sorted(range(len(classes)),
                   key=lambda i: (classes[i].order != 1, classes[i].order,
                                  classes[i].size, classes[i].rep.key))
    classes = [classes[i] for i in order]
    class_of = [0] * len(group.elements)
    for cno, c in enumerate(classes):
        for pos in c.indices:
            class_of[pos] = cno
    return classes, class_of


def _class_constants(group: FiniteGroup, classes, class_of):
    """(a, inverse class map) for classes in the given order; see
    `class_constants`."""
    k = len(classes)
    inverse_class = [class_of[c.powers[-1]] for c in classes]
    # b[i][j][k] = #{u in C_i : z_k u in C_j}, one pass over u per k
    b = [[[0] * k for _ in range(k)] for _ in range(k)]
    for kk, c in enumerate(classes):
        perm = group.left(c.indices[0])  # u -> z_k u; z_k is the least member
        for i, v in zip(class_of, perm):
            b[i][class_of[v]][kk] += 1
    # x in C_i with x^-1 z_k in C_j  <=>  u = x^-1 in C_i^-1 with z_k u in C_j
    # (z_k u = u^-1 (u z_k) u is conjugate to u z_k)
    return [b[inv] for inv in inverse_class], inverse_class


def class_constants(group: FiniteGroup) -> List[List[List[int]]]:
    """a[i][j][k] = #{(x, y) in C_i x C_j : x*y = z_k} for fixed reps z_k,
    classes in table order."""
    return _class_constants(group, *_ordered_classes(group))[0]


def _split(a, ell: int):
    """Coordinate bases of pieces that split the space under the square
    matrix a over GF(l), or None when a is scalar.

    a must be diagonalizable with every eigenvalue in GF(l). For a shift s,
    h = (a + s)^((l - 1)/2) is 0, +1 or -1 on each eigenspace of a, so the
    kernels of a + s, h - 1 and h + 1 add up to the whole space; the least s
    that makes two of them nonzero splits it (s = -lambda does, for any
    eigenvalue lambda). A kernel sum short of the dimension means a is not
    diagonalizable over GF(l). The pieces are coordinate bases, which the
    caller maps back to its space and echelonizes."""
    d = len(a)
    if not any((a[r][c] - (a[0][0] if r == c else 0)) % ell
               for r in range(d) for c in range(d)):
        return None
    for s in range(ell):
        shifted = mat_add_scalar(a, s, ell)
        h = mat_pow(shifted, (ell - 1) // 2, ell)
        pieces = [b for b in (nullspace(shifted, ell),
                              nullspace(mat_add_scalar(h, -1, ell), ell),
                              nullspace(mat_add_scalar(h, 1, ell), ell)) if b]
        if sum(map(len, pieces)) != d:
            raise DixonError("class matrix is not semisimple mod %d" % ell)
        if len(pieces) > 1:
            return pieces
    # not reached: a is not scalar, and s = -lambda splits it
    raise DixonError("class matrices failed to split eigenspaces")


def character_table_dixon(group: FiniteGroup) -> CharacterTable:
    """Exact character table of a fully enumerated group."""
    return character_table_dixon_mapped(group)[0]


def character_table_dixon_mapped(group: FiniteGroup):
    """(table, class map): class map sends each table class index to the
    corresponding enumerated conjugacy class of the group."""
    classes, class_of = _ordered_classes(group)
    k = len(classes)
    order = group.order
    exponent = lcm(*(c.order for c in classes))
    ell, omega = dixon_parameters(order, exponent)

    # class matrices acting on central-character vectors u (u_j = omega(C_j)):
    # sum_t a[i,j,t] u_t = omega_i * u_j, so (M_i)[j][t] = a[i, j, t]
    mats, inverse_class = _class_constants(group, classes, class_of)

    # split common eigenspaces, walking class matrices in class order: each
    # subspace is split under M_i until M_i is scalar on every piece. On an
    # echelon basis b with pivot columns P, M_i b_j = sum_t A[t][j] b_t has
    # A[t][j] = (M_i b_j)[P_t], so only the pivot rows of M_i are read
    subspaces = [([[int(i == j) for j in range(k)] for i in range(k)], list(range(k)))]
    for mat in mats[1:]:
        if len(subspaces) == k:
            break
        done, work = [], subspaces
        while work:
            basis, pivots = work.pop()
            if len(basis) > 1:
                pieces = _split(tuple(mat_rows((mat[p] for p in pivots), basis, ell)), ell)
                if pieces:
                    for piece in pieces:
                        rows = list(mat_mul(piece, basis, ell))
                        piece_pivots = gauss_jordan(rows, ell, k)[0]
                        if len(piece_pivots) != len(piece):
                            raise DixonError("basis is dependent")
                        work.append((rows, piece_pivots))
                    continue
            done.append((basis, pivots))
        subspaces = done
    if len(subspaces) != k:
        raise DixonError("class matrices failed to split eigenspaces")

    # the degree is the divisor d <= sqrt|G| of |G| with d^2 = |G|/t (mod ell),
    # unique since ell > 2 sqrt|G|: for two such divisors the prime ell divides
    # (d1 - d2)(d1 + d2), whose factors are below ell in size, so d1 = d2
    size_inv = [pow(c.size, -1, ell) for c in classes]
    small_divisors = [d for d in range(1, isqrt(order) + 1) if order % d == 0]

    # chi(x) for x of order m is a sum of m-th roots of unity, and
    # omega^(exponent/m) has order m mod ell: the multiplicity of zeta_m^s is
    # m^-1 sum_{t<m} chi(x^t) omega^(-(exponent/m) t s) mod ell, row s of dft[m]
    dft = {}
    for m in {c.order for c in classes}:
        w, inv_m = pow(omega, -(exponent // m), ell), pow(m, -1, ell)
        dft[m] = [[inv_m * pow(w, t * s, ell) % ell for t in range(m)] for s in range(m)]

    # the tuple (chi(x^t) for t < m) fixes chi(x), and its t = 0 entry is the
    # degree, so each distinct tuple is lifted once for every row sharing it
    value_of = {}
    values, ids = [], []
    for (v,), pivots in subspaces:
        # v is 1 at its pivot: the identity class (index 0) unless v is 0 there
        if pivots != [0]:
            raise DixonError("eigenvector vanishes at the identity class")
        t = sum(v[j] * v[inverse_class[j]] % ell * size_inv[j] for j in range(k)) % ell
        if t == 0:
            raise DixonError("degenerate norm in degree recovery")
        dsq = order % ell * pow(t, -1, ell) % ell
        deg = next((d for d in small_divisors if d * d % ell == dsq), None)
        if deg is None:
            raise DixonError("no divisor d of %d below its square root has "
                             "d^2 = %d mod %d" % (order, dsq, ell))
        val_mod = [v[j] * deg % ell * size_inv[j] % ell for j in range(k)]
        row = []
        for c in classes:
            chi = tuple(val_mod[class_of[u]] for u in c.powers)
            if chi not in value_of:
                mults = [sum(map(mul, chi, f)) % ell for f in dft[c.order]]
                over = [mult for mult in mults if mult > deg]
                if over:
                    raise DixonError("multiplicity %d exceeds degree %d" % (over[0], deg))
                value_of[chi] = len(values)
                values.append(from_terms(c.order, {s: n for s, n in enumerate(mults) if n}))
            row.append(value_of[chi])
        ids.append(row)

    exp_primes = prime_factors(exponent)
    class_infos = [(c.size, c.order, {p: class_of[c.powers[p % c.order]] for p in exp_primes})
                   for c in classes]

    table, class_order, _row_order = build_table_mapped(
        name=_group_label(group),
        order=order,
        exponent=exponent,
        class_infos=class_infos,
        ids=ids,
        values=values,
    )
    class_map = {new: classes[old] for new, old in enumerate(class_order)}
    return table, class_map


def _group_label(group: FiniteGroup) -> str:
    return "%s(%d,%d)" % (group.kind, group.n, group.p)
