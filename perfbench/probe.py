"""Kernel probe: time one `Cyclotomic` mul or add at a fixed conductor.

Operands are seeded values of exact conductor n, as sparse as real
character-table values: a handful of power-basis roots of unity E(n,k),
k < phi(n), with small integer coefficients. (A dense value costs far
more per operation.) The probe runs in the harness process, so the
per-conductor reduction tables are warm, as they are inside a long job.
"""

from __future__ import annotations

import random
import statistics
import time

from rigikit.cyclo import euler_phi, from_terms

CONDUCTORS_MUL = (5, 168, 660)
CONDUCTORS_ADD = (168, 660)


def sparse_value(n: int, rng: random.Random):
    phi = euler_phi(n)
    while True:
        v = from_terms(n, {rng.randrange(phi): rng.choice((-2, -1, 1, 2))
                           for _ in range(rng.randint(2, 4))})
        if v.conductor == n:
            return v


def time_op(op: str, n: int, rng: random.Random, pairs: int = 32,
            round_s: float = 0.002, rounds: int = 3) -> float:
    """Time per operation in microseconds: the median over seeded operand
    pairs of each pair's median round. The median keeps out the rare
    product that falls into a subfield, whose conductor shrink costs
    tens of times a plain multiplication."""
    values = [sparse_value(n, rng) for _ in range(pairs)]
    fn = (lambda a, b: a * b) if op == "mul" else (lambda a, b: a + b)
    per_pair = []
    for i in range(pairs):
        a, b = values[i], values[(i * 7 + 3) % pairs]
        fn(a, b)  # warms the per-conductor tables
        per_round = []
        for _ in range(rounds):
            ops = 0
            t0 = time.perf_counter()
            while True:
                fn(a, b)
                ops += 1
                elapsed = time.perf_counter() - t0
                if elapsed >= round_s:
                    break
            per_round.append(elapsed / ops)
        per_pair.append(statistics.median(per_round) * 1e6)
    return statistics.median(per_pair)


def probe(seed: int) -> dict:
    rng = random.Random(seed)
    out = {}
    for n in CONDUCTORS_MUL:
        out["cyclo.mul_us.c%d" % n] = time_op("mul", n, rng)
    for n in CONDUCTORS_ADD:
        out["cyclo.add_us.c%d" % n] = time_op("add", n, rng)
    return out

