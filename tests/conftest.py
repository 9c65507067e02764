"""Shared fixtures: pentagon-based example graphs and random generators."""

from __future__ import annotations

import random

import pytest

from balance_lab.balance import cycle_sign, enumerate_simple_cycles
from balance_lab.graphs import AppraisalMatrix, UndirectedSkeleton, skeleton


# Seven-node chordal graph: pentagon (3,4,5,6,7) with chords {3,5}, {3,6},
# {5,7}, plus leaves 1 and 2 hanging off node 3.
GRAPH1_EDGES = [
    (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3),
    (3, 5), (3, 6), (5, 7),
]

# Seven-node non-chordal variant: pentagon (3,4,5,6,7) with chords {3,6},
# {4,7}, {5,7}; the square (3,4,5,6) is chordless.
GRAPH2_EDGES = [
    (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3),
    (3, 6), (4, 7), (5, 7),
]

PENTAGON = (3, 4, 5, 6, 7)


@pytest.fixture
def graph1() -> UndirectedSkeleton:
    return UndirectedSkeleton.from_edges(7, GRAPH1_EDGES)


@pytest.fixture
def graph2() -> UndirectedSkeleton:
    return UndirectedSkeleton.from_edges(7, GRAPH2_EDGES)


def cycle_skeleton(n: int) -> UndirectedSkeleton:
    return UndirectedSkeleton.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete_skeleton(n: int) -> UndirectedSkeleton:
    return UndirectedSkeleton.from_edges(
        n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )


def random_matrix(rng: random.Random, n: int, p_nonzero: float = 0.5) -> AppraisalMatrix:
    """Arbitrary ternary matrix; not necessarily bilateral."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p_nonzero:
                rows[i][j] = rng.choice((-1, 1))
    return AppraisalMatrix.from_rows(rows)


def random_symmetric_matrix(
    rng: random.Random, n: int, p: float = 0.5, p_neg: float = 0.5
) -> AppraisalMatrix:
    """Bilateral sign-symmetric matrix with edge probability p."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                s = -1 if rng.random() < p_neg else 1
                rows[i][j] = rows[j][i] = s
    return AppraisalMatrix.from_rows(rows)


def planted_two_faction_matrix(
    rng: random.Random, n: int, p: float = 0.6
) -> AppraisalMatrix:
    """Sign-symmetric matrix built from a random bipartition: positive
    inside factions, negative across, so two-faction balance holds by
    construction."""
    side = [rng.randrange(2) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                s = 1 if side[i] == side[j] else -1
                rows[i][j] = rows[j][i] = s
    return AppraisalMatrix.from_rows(rows)


def random_connected_symmetric(
    rng: random.Random, n: int, extra_p: float = 0.3, p_neg: float = 0.5
) -> AppraisalMatrix:
    """Connected bilateral sign-symmetric matrix: random spanning tree plus
    extra edges."""
    rows = [[0] * n for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for idx in range(1, n):
        a = order[idx]
        b = order[rng.randrange(idx)]
        s = -1 if rng.random() < p_neg else 1
        rows[a][b] = rows[b][a] = s
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] == 0 and rng.random() < extra_p:
                s = -1 if rng.random() < p_neg else 1
                rows[i][j] = rows[j][i] = s
    return AppraisalMatrix.from_rows(rows)


def random_connected_skeleton(rng: random.Random, n: int, extra_p: float = 0.3) -> UndirectedSkeleton:
    """Connected skeleton: random spanning tree plus extra edges."""
    pairs = set()
    order = list(range(1, n + 1))
    rng.shuffle(order)
    for idx in range(1, n):
        a = order[idx]
        b = order[rng.randrange(idx)]
        pairs.add((min(a, b), max(a, b)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in pairs and rng.random() < extra_p:
                pairs.add((i, j))
    return UndirectedSkeleton.from_edges(n, pairs)


def cycles_positive_by_enumeration(x: AppraisalMatrix) -> bool:
    """Oracle: every simple cycle of the skeleton, enumerated, has positive sign."""
    return all(cycle_sign(x, c) > 0 for c in enumerate_simple_cycles(skeleton(x)))


def two_faction_by_union_find(x: AppraisalMatrix) -> bool:
    """Oracle: union-find with side parity over every nonzero entry.

    A positive entry X_ab puts a and b on the same side, a negative one on
    opposite sides.  Each node keeps its side relative to its parent, so a
    root's tree knows every member's side; the matrix is two-faction
    balanced iff no entry asks for the side it does not get.
    """
    parent = list(range(x.n))
    flip = [0] * x.n  # 1 when a node sits opposite its parent

    def find(a: int) -> tuple[int, int]:
        side = 0
        while parent[a] != a:
            side ^= flip[a]
            a = parent[a]
        return a, side

    for a, row in enumerate(x.rows):
        for b, v in enumerate(row):
            if not v:
                continue
            apart = int(v < 0)
            (ra, sa), (rb, sb) = find(a), find(b)
            if ra == rb:
                if sa ^ sb != apart:
                    return False
            else:
                parent[ra] = rb
                flip[ra] = sa ^ sb ^ apart
    return True
