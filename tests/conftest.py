"""Shared fixtures: pentagon-based example graphs and random generators."""

from __future__ import annotations

import itertools
import random
from typing import Optional

import networkx as nx
import pytest

from balance_lab.balance import (
    ASYMMETRIC_PAIR,
    NEGATIVE_TRIAD,
    BalanceViolation,
    cycle_sign,
    detect_two_faction,
    enumerate_simple_cycles,
)
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


def atlas_and_random_edge_lists():
    """Every connected atlas graph on 3 to 7 nodes, then 400 G(n, p) graphs
    on 1 to 12 nodes, connected or not, with gapped labels on half; each as
    its node ids and its list of pairs."""
    for h in nx.graph_atlas_g():
        if 3 <= h.number_of_nodes() <= 7 and nx.is_connected(h):
            yield list(range(1, h.number_of_nodes() + 1)), [(a + 1, b + 1) for a, b in h.edges]
    rng = random.Random(79)
    for trial in range(400):
        n = rng.randrange(1, 13)
        nodes = sorted(rng.sample(range(1, 60), n)) if trial % 2 else list(range(1, n + 1))
        p = rng.random()
        yield nodes, [e for e in itertools.combinations(nodes, 2) if rng.random() < p]


def atlas_and_random_skeletons():
    """The graphs of ``atlas_and_random_edge_lists``, built by ``from_edges``."""
    for nodes, pairs in atlas_and_random_edge_lists():
        yield UndirectedSkeleton.from_edges(nodes, pairs)


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


MATRIX_KINDS = ("independent", "bilateral", "one-way", "empty", "complete")


def varied_matrix(rng: random.Random, kind: str) -> AppraisalMatrix:
    """A 1..13-node matrix of one of the ``MATRIX_KINDS``, on default or gapped labels.

    ``independent`` draws each directed entry on its own, ``bilateral``
    links pairs both ways with independent signs, ``one-way`` links each
    pair in at most one direction, ``empty`` has no link and ``complete``
    links every ordered pair.
    """
    n = rng.randrange(1, 14)
    p = rng.random()
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if kind == "independent":
                rows[a][b] = rng.choice((-1, 1)) if rng.random() < p else 0
                rows[b][a] = rng.choice((-1, 1)) if rng.random() < p else 0
            elif kind == "bilateral" and rng.random() < p:
                rows[a][b], rows[b][a] = rng.choice((-1, 1)), rng.choice((-1, 1))
            elif kind == "one-way" and rng.random() < p:
                a_to_b = rng.random() < 0.5
                rows[a if a_to_b else b][b if a_to_b else a] = rng.choice((-1, 1))
            elif kind == "complete":
                rows[a][b], rows[b][a] = rng.choice((-1, 1)), rng.choice((-1, 1))
    labels = sorted(rng.sample(range(1, 100), n)) if rng.random() < 0.5 else None
    return AppraisalMatrix.from_rows(rows, labels)


# Literal pair and triple loops and the per-free-edge counterexample scan
# that the static analyses used before they walked link masks; kept as oracles.


def triads_by_triple_loop(x: AppraisalMatrix) -> list[tuple[int, int, int]]:
    """Oracle for ``enumerate_triads``: every node triple, both orientations."""
    rows, labels, n = x.rows, x.labels, x.n
    triads = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                if rows[a][b] and rows[b][c] and rows[c][a]:
                    triads.append((labels[a], labels[b], labels[c]))
                if rows[a][c] and rows[c][b] and rows[b][a]:
                    triads.append((labels[a], labels[c], labels[b]))
    return triads


def triad_wise_by_triple_loop(x: AppraisalMatrix) -> tuple[bool, list[BalanceViolation]]:
    """Oracle for ``is_triad_wise_balanced``: every pair, then every triad read by label."""
    rows, labels = x.rows, x.labels
    violations = []
    for a in range(x.n):
        for b in range(a + 1, x.n):
            fwd, rev = rows[a][b], rows[b][a]
            if (fwd or rev) and fwd * rev <= 0:
                violations.append(BalanceViolation(ASYMMETRIC_PAIR, (labels[a], labels[b])))
    for i, j, k in triads_by_triple_loop(x):
        if x.entry(i, j) * x.entry(j, k) * x.entry(k, i) < 0:
            violations.append(BalanceViolation(NEGATIVE_TRIAD, (i, j, k)))
    return (not violations, violations)


def two_faction_colouring_by_row_scan(rows, members) -> Optional[list[int]]:
    """Oracle for ``balance._two_faction_colouring``: the row-scan colouring
    the library ran before it read sign masks.

    A colouring of the positions ``members`` of ``rows`` (+1 or -1 at each
    member, 0 elsewhere), or None.  Members are taken in the given order: one
    not yet reached starts its link component at +1, and a member reached
    over a link, in either direction, takes its neighbour's colour times the
    link's sign (the outgoing link's when both exist).  Each member taken off
    the stack tests its own row against every member coloured so far.
    """
    colour = [0] * len(rows)
    for start in members:
        if colour[start]:
            continue
        colour[start] = 1
        stack = [start]
        while stack:
            u = stack.pop()
            cu, row = colour[u], rows[u]
            for v in members:
                cv = colour[v]
                if cv:
                    if row[v] * cu * cv < 0:
                        return None
                else:
                    link = row[v] or rows[v][u]
                    if link:
                        colour[v] = cu * link
                        stack.append(v)
    return colour


def bilateral_triads_by_triple_loop(x: AppraisalMatrix) -> int:
    """Oracle for ``count_triads``: node triples whose three pairs are all bilateral."""
    rows, n = x.rows, x.n
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if not (rows[i][j] and rows[j][i]):
                continue
            for k in range(j + 1, n):
                if rows[i][k] and rows[k][i] and rows[j][k] and rows[k][j]:
                    count += 1
    return count


def skeleton_by_pair_loop(x: AppraisalMatrix) -> UndirectedSkeleton:
    """Oracle for ``skeleton``: every cell pair, linked when either direction is nonzero."""
    edges = set()
    labels = x.labels
    for a in range(x.n):
        for b in range(a + 1, x.n):
            if x.rows[a][b] or x.rows[b][a]:
                edges.add((labels[a], labels[b]))
    return UndirectedSkeleton(labels, frozenset(edges))


def induced_skeleton_by_pair_filter(g: UndirectedSkeleton, members) -> UndirectedSkeleton:
    """Oracle for ``induced_subgraph`` on a skeleton: keep the pairs with both ends inside."""
    member_set = set(members)
    missing = member_set - set(g.nodes)
    if missing:
        raise ValueError(f"nodes not in graph: {sorted(missing)}")
    edges = frozenset(e for e in g.edges if e[0] in member_set and e[1] in member_set)
    return UndirectedSkeleton(tuple(sorted(member_set)), edges)


def induced_matrix_by_mask_remap(x: AppraisalMatrix, members) -> AppraisalMatrix:
    """Oracle for ``induced_subgraph`` on a matrix: each kept row's sign masks, re-indexed."""
    member_set = set(members)
    missing = member_set - set(x.labels)
    if missing:
        raise ValueError(f"nodes not in matrix: {sorted(missing)}")
    keep = sorted(member_set)
    idx = [x.index_of(v) for v in keep]
    moved = dict(zip(idx, range(len(idx))))
    signs = []
    for masks in x._signs:
        signs.append(tuple(
            sum(1 << moved[b] for b in range(x.n) if masks[a] >> b & 1 and b in moved)
            for a in idx
        ))
    return AppraisalMatrix._make(tuple(keep), tuple(signs))


def bilateral_by_pair_loop(x: AppraisalMatrix) -> bool:
    """Oracle for ``is_bilateral``: every cell pair is linked both ways or neither."""
    for a in range(x.n):
        for b in range(a + 1, x.n):
            if (x.rows[a][b] != 0) != (x.rows[b][a] != 0):
                return False
    return True


def skeleton_triangles_by_triple_loop(g: UndirectedSkeleton) -> list[tuple[int, int, int]]:
    """Oracle for the triangle mask walk: node triples with all three edges."""
    nodes = g.nodes
    out = []
    for ai in range(len(nodes)):
        for bi in range(ai + 1, len(nodes)):
            if not g.has_edge(nodes[ai], nodes[bi]):
                continue
            for ci in range(bi + 1, len(nodes)):
                if g.has_edge(nodes[ai], nodes[ci]) and g.has_edge(nodes[bi], nodes[ci]):
                    out.append((nodes[ai], nodes[bi], nodes[ci]))
    return out


def counterexample_by_free_edge_scan(g: UndirectedSkeleton) -> Optional[AppraisalMatrix]:
    """Oracle for ``equivalence_counterexample``: one matrix and one
    ``detect_two_faction`` call per free edge of the reduced triangle vectors,
    last free edge first, until a null vector has no two-faction witness."""
    edges = sorted(g.edges)
    index = {e: t for t, e in enumerate(edges)}
    pos = {v: a for a, v in enumerate(g.nodes)}
    rows: dict[int, int] = {}
    for a, b, c in skeleton_triangles_by_triple_loop(g):
        v = 1 << index[(a, b)] | 1 << index[(a, c)] | 1 << index[(b, c)]
        while v and v.bit_length() - 1 in rows:
            v ^= rows[v.bit_length() - 1]
        if v:
            rows[v.bit_length() - 1] = v
    for p in sorted(rows):
        for q in rows:
            if q > p and rows[q] >> p & 1:
                rows[q] ^= rows[p]
    for f in reversed(range(len(edges))):
        if f in rows:
            continue
        null = 1 << f | sum(1 << p for p, row in rows.items() if row >> f & 1)
        grid = [[0] * g.n for _ in range(g.n)]
        for t, (u, v) in enumerate(edges):
            grid[pos[u]][pos[v]] = grid[pos[v]][pos[u]] = -1 if null >> t & 1 else 1
        x = AppraisalMatrix.from_rows(grid, g.nodes)
        if detect_two_faction(x) is None:
            return x
    return None
