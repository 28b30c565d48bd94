"""Seeded graph generation and checks that use none of the program's code.

Graphs here are tuples of adjacency bitmasks (row v holds N(v)), the same
layout `deckrecon.graphs.Graph` takes. Because primality, inflation and
relabelling are done here rather than by the library, a given seed yields the
same inputs on every commit of the program under test.
"""

from __future__ import annotations

import math
import random

Rows = tuple[int, ...]


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def random_rows(rng: random.Random, n: int, p: float = 0.5) -> Rows:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def complement(rows: Rows) -> Rows:
    full = (1 << len(rows)) - 1
    return tuple(full ^ row ^ (1 << v) for v, row in enumerate(rows))


def is_connected(rows: Rows) -> bool:
    n = len(rows)
    if n <= 1:
        return True
    seen = frontier = 1
    while frontier:
        grow = 0
        for v in bits(frontier):
            grow |= rows[v]
        frontier = grow & ~seen
        seen |= grow
    return seen == (1 << n) - 1


def is_degenerate(rows: Rows) -> bool:
    """Disconnected or co-disconnected."""
    return not is_connected(rows) or not is_connected(complement(rows))


def has_proper_module(rows: Rows) -> bool:
    """True iff some vertex set of size 2..n-1 is a module (n >= 3).

    Every proper module contains a pair {u, v}, and the smallest module
    containing that pair is reached by adding splitters (outside vertices
    that see part of the set) until none is left.
    """
    n = len(rows)
    full = (1 << n) - 1
    for u in range(n):
        for v in range(u + 1, n):
            mod = 1 << u | 1 << v
            grown = True
            while grown and mod != full:
                grown = False
                for x in bits(full & ~mod):
                    hit = rows[x] & mod
                    if hit and hit != mod:
                        mod |= 1 << x
                        grown = True
            if mod != full:
                return True
    return False


def random_prime(rng: random.Random, k: int) -> Rows:
    """A random graph on k >= 5 vertices with no proper module."""
    while True:
        rows = random_rows(rng, k)
        if not has_proper_module(rows):
            return rows


def random_connected(rng: random.Random, n: int) -> Rows:
    while True:
        rows = random_rows(rng, n, 0.6)
        if is_connected(rows):
            return rows


def inflate(skeleton: Rows, parts: list[Rows]) -> Rows:
    """Replace skeleton vertex i by parts[i]; each part becomes a module."""
    offsets, total = [], 0
    for p in parts:
        offsets.append(total)
        total += len(p)
    blocks = [((1 << len(p)) - 1) << off for p, off in zip(parts, offsets)]
    rows = []
    for i, (p, off) in enumerate(zip(parts, offsets)):
        outside = 0
        for j in bits(skeleton[i]):
            outside |= blocks[j]
        rows.extend((row << off) | outside for row in p)
    return tuple(rows)


def disjoint_union(parts: list[Rows]) -> Rows:
    return inflate((0,) * len(parts), parts)


def relabel(rows: Rows, perm: list[int]) -> Rows:
    """Vertex v becomes perm[v]."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        image = 0
        for u in bits(row):
            image |= 1 << perm[u]
        out[perm[v]] = image
    return tuple(out)


def shuffled(rng: random.Random, rows: Rows) -> Rows:
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return relabel(rows, perm)


def empty(n: int) -> Rows:
    return (0,) * n


def matching(n: int) -> Rows:
    return tuple(1 << (v ^ 1) for v in range(n))


def cycle(n: int) -> Rows:
    return tuple(1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n))


def graph6_rows(code: str) -> Rows:
    """Decode a short-form graph6 string (n <= 62)."""
    n = ord(code[0]) - 63
    flat = []
    for ch in code[1:]:
        value = ord(ch) - 63
        flat.extend(value >> s & 1 for s in (5, 4, 3, 2, 1, 0))
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if flat[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return tuple(rows)


def graph6_order_and_edges(code: str) -> tuple[int, int]:
    """Vertex and edge count of a short-form graph6 string (n <= 62)."""
    return ord(code[0]) - 63, sum((ord(ch) - 63).bit_count() for ch in code[1:])


def spread_order(rng: random.Random, count: int) -> list[int]:
    """A seeded permutation of range(count) whose every prefix is spread evenly.

    Consecutive picks step by about count/phi, so a run that stops early has
    still sampled the whole list rather than one end of it.
    """
    if count <= 1:
        return list(range(count))
    step = max(1, round(count * 0.6180339887))
    while math.gcd(step, count) != 1:
        step += 1
    start = rng.randrange(count)
    return [(start + j * step) % count for j in range(count)]


def interleave(rng: random.Random, strata: list[list]) -> list:
    """Merge lists so that every prefix holds each list in its overall share."""
    keyed = []
    for s in strata:
        count = len(s)
        for i, item in enumerate(s):
            keyed.append(((i + rng.random()) / count, item))
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed]
