"""A fixed reference workload that gauges the machine's speed, not rigikit's.

    python3 perfbench/reference.py

run.py runs it in a fresh interpreter, like a job, before each job and
after the last one; its wall time says how fast the machine runs
pure-Python code of rigikit's kind at that moment. It imports nothing
from rigikit, so no change to the program moves it. Its work is the two
interpreter-bound patterns rigikit's jobs spend their time in: a
breadth-first closure of a matrix group over tuple keys in a dict (as in
`smallgrp`) and sparse polynomial products reduced modulo x^n - 1 over
dicts of ints (as in the cyclotomic kernels). It prints a checksum, which
run.py checks.
"""

from __future__ import annotations


def closure(a, b, p):
    """Size of the group generated by two 2x2 matrices mod p."""

    def mul(x, y):
        return ((x[0] * y[0] + x[1] * y[2]) % p, (x[0] * y[1] + x[1] * y[3]) % p,
                (x[2] * y[0] + x[3] * y[2]) % p, (x[2] * y[1] + x[3] * y[3]) % p)

    seen = {a: 0}
    todo = [a]
    while todo:
        x = todo.pop()
        for g in (a, b):
            y = mul(x, g)
            if y not in seen:
                seen[y] = len(seen)
                todo.append(y)
    return len(seen)


def poly_products(n, rounds):
    """Repeated sparse products in Z[x]/(x^n - 1), coefficients reduced
    mod a prime; returns the coefficient sum."""
    acc = {0: 1}
    factors = [{1: 1, 5: -2, 11: 3}, {2: 1, 7: 1}, {0: -1, 3: 2, 13: 1, 17: -1}]
    for r in range(rounds):
        f = factors[r % len(factors)]
        out = {}
        for i, u in acc.items():
            for j, v in f.items():
                k = (i + j) % n
                out[k] = out.get(k, 0) + u * v
        acc = {k: c % 1000003 for k, c in out.items() if c % 1000003}
    return sum(acc.values())


if __name__ == "__main__":
    print(closure((1, 1, 0, 1), (0, 36, 1, 0), 37), poly_products(168, 600))
