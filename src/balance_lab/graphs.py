"""Ternary appraisal matrices and their undirected skeleton views.

An appraisal matrix holds one value from {-1, 0, +1} per ordered node pair:
antagonistic, absent-or-neutral, friendly.  The diagonal is zero (no
self-appraisal).  Node ids are 1-based externally; induced subgraphs are
contiguously re-indexed internally but carry the original ids in ``labels``
so worked examples keep their node names.

``_link_masks`` is the one place where rows become link structure: per
position, the bit masks of whom it appraises and of who appraises it.  A
matrix builds them at most once and shares them with every analysis that
reads links (the skeleton, bilaterality, triads, triad counts) and with
the simulation kernel, which updates a list copy of the outgoing masks in
place.  A skeleton keeps the same kind of view, built with it: one
neighbour mask per position, positions following the sorted node ids,
which every graph walk on it reads.

All types are immutable values after construction and safe to share across
workers.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import add, eq, mul
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union


# Largest node count an edge-list header, a ``--n`` flag, ``AppraisalMatrix.zeros``,
# ``AppraisalMatrix.from_edge_list`` or ``ErParams`` may ask for.  Every matrix
# is a dense n-by-n grid: parsing an edge list at this ceiling peaks at about
# 280 MB, and the peak grows with n squared.
NODE_LIMIT = 4096

_TERNARY = frozenset((-1, 0, 1))
_SIGNS = frozenset((-1, 1))


class EdgeListError(ValueError):
    """A problem in the plain-text edge-list format."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _default_labels(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def _check_node_count(n: int) -> None:
    """Refuse a node count outside ``1..NODE_LIMIT`` before any grid is built."""
    if n < 1:
        raise ValueError("node count must be positive")
    if n > NODE_LIMIT:
        raise ValueError(f"node count {n} exceeds the ceiling of {NODE_LIMIT}")


def _link_masks(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per position ``a``, the bit masks of whom ``a`` appraises and of who appraises ``a``.

    One pass over the links: ``compress`` skips the zero entries of a row.
    The masks come as tuples, so a matrix can share them without a copy.
    """
    positions = range(len(rows))
    out, into = [], [0] * len(rows)
    for a, row in enumerate(rows):
        bit, mask = 1 << a, 0
        for b in compress(positions, row):
            mask |= 1 << b
            into[b] |= bit
        out.append(mask)
    return tuple(out), tuple(into)


def _positions(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _linked_pairs(adj: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Every position pair ``a < b`` with bit ``b`` set in ``adj[a]``, in lexicographic order.

    The walk visits set bits only, so it costs by links, not by n^2.
    """
    for a, mask in enumerate(adj):
        above = mask >> a + 1
        while above:
            low = above & -above
            above ^= low
            yield a, a + low.bit_length()


def _triangle_walk(adj: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """Every triangle of a symmetric adjacency, as positions ``a < b < c``.

    ``adj[a]`` is the bit mask of ``a``'s neighbours.  Triangles come in
    lexicographic order.  Each edge ``{a, b}``, ``a < b``, meets its common
    neighbours above ``b`` in one mask intersection, so the walk costs by
    links and triangles rather than by node triples; it lists triangles by
    neighbour intersection, as Chiba and Nishizeki (1985) do.
    """
    for a, b in _linked_pairs(adj):
        common = adj[a] & adj[b] >> b + 1 << b + 1
        while common:
            low = common & -common
            common ^= low
            yield a, b, low.bit_length() - 1


def _check_link(n: int, i: int, j: int, s: int, seen: set[tuple[int, int]]) -> None:
    """Refuse one ``(i, j, s)`` link on nodes ``1..n``; records it in ``seen``."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"node id out of range: ({i}, {j}) with n={n}")
    if i == j:
        raise ValueError(f"self-loop not allowed: ({i}, {j})")
    if s not in (-1, 1):
        raise ValueError(f"sign must be -1 or 1, got {s}")
    if (i, j) in seen:
        raise ValueError(f"duplicate ordered pair ({i}, {j})")
    seen.add((i, j))


def _checked_replace(self, **changes):
    """``_replace`` for a named tuple whose constructor checks its arguments.

    The generated ``_replace`` builds through the unchecked ``_make``; this
    one builds through the constructor, so the new value is checked too.
    Such a type also sets it as ``__replace__``, which ``copy.replace``
    calls from Python 3.13 on.
    """
    value = type(self)(*map(changes.pop, self._fields, self))
    if changes:
        raise ValueError(f"Got unexpected field names: {list(changes)!r}")
    return value


class _Frozen:
    """Refuses to set or delete an attribute once the value is built.

    Subclasses write their fields once, in ``__init__``, through
    ``object.__setattr__``; ``functools.cached_property`` writes into the
    instance ``__dict__`` directly and so still works.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class AppraisalMatrix(_Frozen):
    """Square ternary matrix of interpersonal appraisals with zero diagonal.

    ``rows`` is positional storage; ``labels[a]`` is the external id of
    row/column ``a``.  Labels are strictly increasing positive integers, by
    default ``1..n``.  Storage is dense, but the static analyses read it
    row by row into per-node link masks, built on first use and kept as
    tuples in the private ``_masks``, which equality, hashing and ``repr``
    ignore.  So the static analyses cost by links and triangles, and one
    matrix is read into masks at most once.
    Construction checks every entry with C-level row operations.  It
    converts entries with ``int`` unless one type scan finds ``rows``
    already a tuple of tuples of exact ints, as every constructor in the
    library builds it.  Immutable, compared and hashed by ``(rows,
    labels)``, and equal only to another ``AppraisalMatrix``; not a tuple,
    so ``len`` of a matrix is an error rather than 2.
    """

    def __init__(self, rows: tuple[tuple[int, ...], ...], labels: tuple[int, ...] = ()):
        if (
            type(rows) is not tuple
            or set(map(type, rows)) != {tuple}
            or set(map(type, chain.from_iterable(rows))) != {int}
        ):
            rows = tuple(tuple(map(int, row)) for row in rows)
        n = len(rows)
        labels = tuple(map(int, labels or _default_labels(n)))
        if len(labels) != n:
            raise ValueError("labels length must match matrix size")
        if (labels and labels[0] < 1) or any(
            b <= a for a, b in zip(labels, labels[1:])
        ):
            raise ValueError("labels must be strictly increasing positive integers")
        for a, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("appraisal matrix must be square")
            if row[a] != 0:
                raise ValueError(f"diagonal entry for node {labels[a]} must be 0")
            if not _TERNARY.issuperset(row):
                v = next(v for v in row if v not in _TERNARY)
                raise ValueError(f"appraisal values must be -1, 0 or 1, got {v}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_pos", dict(zip(labels, range(n))))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(rows={self.rows!r}, labels={self.labels!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rows, self.labels) == (other.rows, other.labels)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows, self.labels))

    @cached_property
    def _masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # (out, into) of ``_link_masks``, shared by every analysis of this matrix.
        return _link_masks(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def nodes(self) -> tuple[int, ...]:
        return self.labels

    @classmethod
    def zeros(cls, n: int) -> "AppraisalMatrix":
        _check_node_count(n)
        return cls(tuple((0,) * n for _ in range(n)))

    @classmethod
    def from_rows(
        cls, rows: Iterable[Iterable[int]], labels: Iterable[int] | None = None
    ) -> "AppraisalMatrix":
        return cls(tuple(tuple(r) for r in rows), tuple(labels) if labels else ())

    @classmethod
    def from_edge_list(
        cls, n: int, entries: Iterable[tuple[int, int, int]]
    ) -> "AppraisalMatrix":
        """Build a matrix on nodes ``1..n`` from ``(i, j, sign)`` triples.

        Duplicate ordered pairs are a hard error rather than last-wins:
        silent overwrites hide fixture typos.
        """
        _check_node_count(n)
        grid = [[0] * n for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for i, j, s in entries:
            _check_link(n, i, j, s, seen)
            grid[i - 1][j - 1] = s
        return cls(tuple(tuple(r) for r in grid))

    def index_of(self, node: int) -> int:
        """Positional index of an external node id."""
        try:
            return self._pos[node]
        except KeyError:
            raise ValueError(f"node {node} not in matrix") from None

    def entry(self, i: int, j: int) -> int:
        """Appraisal of node ``i`` toward node ``j`` (external ids)."""
        return self.rows[self.index_of(i)][self.index_of(j)]

    def with_entry(self, i: int, j: int, value: int) -> "AppraisalMatrix":
        """A copy with one entry replaced."""
        if i == j:
            raise ValueError("diagonal entries are fixed at 0")
        a, b = self.index_of(i), self.index_of(j)
        rows = [list(r) for r in self.rows]
        rows[a][b] = value
        return AppraisalMatrix(tuple(tuple(r) for r in rows), self.labels)

    def nonzero_links(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(i, j, sign)`` for every nonzero entry, in label order."""
        for a, i in enumerate(self.labels):
            row = self.rows[a]
            for b, j in enumerate(self.labels):
                if row[b]:
                    yield (i, j, row[b])

    def nonzero_count(self) -> int:
        return self.n * self.n - sum(row.count(0) for row in self.rows)

    def negative_count(self) -> int:
        return sum(row.count(-1) for row in self.rows)


class UndirectedSkeleton(_Frozen):
    """Unsigned undirected graph: node ids plus a set of unordered pairs.

    Like a matrix, it keeps a position view: ``_pos`` maps node ids to
    positions in the sorted ``nodes``, and ``_masks[a]`` is the neighbour
    mask of position ``a``.  Immutable, compared and hashed by ``(nodes,
    edges)``, like ``AppraisalMatrix``; not a tuple.
    """

    def __init__(self, nodes: tuple[int, ...], edges: frozenset[tuple[int, int]] = frozenset()):
        nodes = tuple(sorted({int(v) for v in nodes}))
        if nodes and nodes[0] < 1:
            raise ValueError("node ids must be positive integers")
        pos = dict(zip(nodes, range(len(nodes))))
        masks = [0] * len(nodes)
        pairs = set()
        for e in edges:
            a, b = e
            if a == b:
                raise ValueError(f"self-pair not allowed: {e}")
            if a not in pos or b not in pos:
                raise ValueError(f"edge {e} has an endpoint outside the node set")
            pairs.add((a, b) if a < b else (b, a))
            masks[pos[a]] |= 1 << pos[b]
            masks[pos[b]] |= 1 << pos[a]
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", frozenset(pairs))
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_masks", tuple(masks))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(nodes={self.nodes!r}, edges={self.edges!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.nodes, self.edges) == (other.nodes, other.edges)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))

    @classmethod
    def from_edges(
        cls, nodes: Union[int, Iterable[int]], pairs: Iterable[tuple[int, int]]
    ) -> "UndirectedSkeleton":
        """Build from a node count (meaning ``1..n``) or explicit node ids."""
        node_tuple = _default_labels(nodes) if isinstance(nodes, int) else tuple(nodes)
        return cls(node_tuple, frozenset((a, b) for a, b in pairs))

    @property
    def n(self) -> int:
        return len(self.nodes)

    def has_edge(self, i: int, j: int) -> bool:
        return ((i, j) if i < j else (j, i)) in self.edges

    def neighbors(self, i: int) -> tuple[int, ...]:
        try:
            mask = self._masks[self._pos[i]]
        except KeyError:
            raise ValueError(f"node {i} not in graph") from None
        return tuple(map(self.nodes.__getitem__, _positions(mask)))

    def edge_count(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        masks = self._masks
        seen, frontier = 1, [0]
        while frontier:
            new = masks[frontier.pop()] & ~seen
            seen |= new
            frontier += _positions(new)
        return seen == (1 << self.n) - 1


def _skeleton_masks(x: AppraisalMatrix) -> list[int]:
    """Per position, the mask of everyone linked to it in either direction."""
    out, into = x._masks
    return [o | i for o, i in zip(out, into)]


def skeleton(x: AppraisalMatrix) -> UndirectedSkeleton:
    """The unsigned undirected view: pair {i,j} present iff either direction is nonzero."""
    labels = x.labels
    return UndirectedSkeleton(
        labels, frozenset((labels[a], labels[b]) for a, b in _linked_pairs(_skeleton_masks(x)))
    )


def is_bilateral(x: AppraisalMatrix) -> bool:
    """True iff links exist in both directions or neither (X_ij != 0 iff X_ji != 0)."""
    out, into = x._masks
    return out == into


def is_sign_symmetric(x: AppraisalMatrix) -> bool:
    """True iff the matrix equals its transpose (bilateral with matching signs)."""
    return x.rows == tuple(zip(*x.rows))


def ego_network(x: AppraisalMatrix, i: int) -> tuple[frozenset[int], AppraisalMatrix]:
    """Node ``i`` plus everyone ``i`` appraises, and the induced submatrix.

    The member set always contains ``i`` itself, even when ``i`` appraises
    nobody.
    """
    a = x.index_of(i)
    members = {i}
    for b, j in enumerate(x.labels):
        if x.rows[a][b]:
            members.add(j)
    return frozenset(members), induced_subgraph(x, members)


def induced_subgraph(
    g: Union[AppraisalMatrix, UndirectedSkeleton], members: Iterable[int]
):
    """Restriction to ``members``: keeps exactly links with both endpoints inside.

    Works on both graph kinds and returns the same kind; original node ids
    are retained as labels.
    """
    member_set = set(members)
    if isinstance(g, AppraisalMatrix):
        missing = member_set - set(g.labels)
        if missing:
            raise ValueError(f"nodes not in matrix: {sorted(missing)}")
        keep = sorted(member_set)
        idx = [g.index_of(v) for v in keep]
        rows = tuple(tuple(g.rows[a][b] for b in idx) for a in idx)
        return AppraisalMatrix(rows, tuple(keep))
    if isinstance(g, UndirectedSkeleton):
        missing = member_set - set(g.nodes)
        if missing:
            raise ValueError(f"nodes not in graph: {sorted(missing)}")
        edges = frozenset(e for e in g.edges if e[0] in member_set and e[1] in member_set)
        return UndirectedSkeleton(tuple(sorted(member_set)), edges)
    raise TypeError(f"unsupported graph type: {type(g).__name__}")


# ---------------------------------------------------------------------------
# Edge-list text format.
#
#   n <N>
#   <i> <j> <s>      one directed signed link per line, s in {-1, 1}
#
# '#'-prefixed lines and blank lines are ignored.  Output is sorted by
# (i, j), so writing is byte-reproducible.
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> AppraisalMatrix:
    """Parse the edge-list format; errors carry 1-based line numbers.

    A file written the way ``format_edge_list`` writes it is checked and
    read in bulk passes (``_bulk_rows``).  Anything else, and every
    malformed file, goes through the line-by-line loop (``_parse_lines``),
    the only producer of ``EdgeListError`` messages; both give the same
    matrix.
    """
    lines = text.splitlines()
    rows = _bulk_rows(lines)
    if rows is None:
        return _parse_lines(lines)
    return AppraisalMatrix(rows)


def _bulk_rows(lines: list[str]) -> tuple[tuple[int, ...], ...] | None:
    """The rows of a valid, canonically spelled edge list, or None.

    Comments and blank lines may only precede the header; every number must
    be spelled as ``str(int)`` spells it.  The whole link list is split and
    checked at once: one token table for ``-1..n``, then ``min``, ``set``
    and ``map`` passes for range, self-loops, signs and duplicates.  The
    links are then written into one flat grid, which is cut into rows.
    None means that ``_parse_lines`` must decide.
    """
    for start, line in enumerate(lines):
        header = line.split()
        if header and not header[0].startswith("#"):
            break
    else:
        return None
    if len(header) != 2 or header[0] != "n":
        return None
    try:
        n = int(header[1])
    except ValueError:
        return None
    if not 1 <= n <= NODE_LIMIT or str(n) != header[1]:
        return None
    # Three tokens to a line: then every fourth token is a joining "\0".
    # A "\0" anywhere else is no number, so the table refuses it below.
    body = lines[start + 1 :]
    tokens = " \0 ".join(body).split()
    if len(tokens) != max(4 * len(body) - 1, 0):
        return None
    del tokens[3::4]
    table = {str(v): v for v in range(-1, n + 1)}
    values = list(map(table.get, tokens))
    if None in values:
        return None
    i_s, j_s, s_s = values[0::3], values[1::3], values[2::3]
    if values and (
        min(i_s) < 1 or min(j_s) < 1 or any(map(eq, i_s, j_s)) or not _SIGNS.issuperset(s_s)
    ):
        return None
    # Link (i, j) sits at i * n + j, which is (i - 1) * n + (j - 1) past n + 1 cells.
    cells = list(map(add, map(mul, i_s, repeat(n)), j_s))
    if len(set(cells)) != len(cells):
        return None
    grid = [0] * (n * n + n + 1)
    for cell, s in zip(cells, s_s):
        grid[cell] = s
    return tuple(zip(*[islice(grid, n + 1, None)] * n))


def _parse_lines(lines: list[str]) -> AppraisalMatrix:
    # The reference parser: one line at a time, raising at the first fault.
    n: int | None = None
    entries: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise EdgeListError("expected header 'n <count>'", line_no)
            try:
                n = int(tokens[1])
            except ValueError:
                raise EdgeListError(f"bad node count {tokens[1]!r}", line_no) from None
            try:
                _check_node_count(n)
            except ValueError as exc:
                raise EdgeListError(str(exc), line_no) from None
            continue
        if len(tokens) != 3:
            raise EdgeListError("expected '<i> <j> <sign>'", line_no)
        try:
            i, j, s = map(int, tokens)
        except ValueError:
            raise EdgeListError(f"non-integer field in {line!r}", line_no) from None
        try:
            _check_link(n, i, j, s, seen)
        except ValueError as exc:
            raise EdgeListError(str(exc), line_no) from None
        entries.append((i, j, s))
    if n is None:
        raise EdgeListError("missing 'n <count>' header")
    # Every link passed _check_link above; only the grid is left to fill.
    grid = [[0] * n for _ in range(n)]
    for i, j, s in entries:
        grid[i - 1][j - 1] = s
    return AppraisalMatrix(tuple(map(tuple, grid)))


def format_edge_list(x: AppraisalMatrix) -> str:
    """Serialize to the edge-list format, entries sorted by (i, j)."""
    if x.labels != _default_labels(x.n):
        raise ValueError("edge-list format requires contiguous node ids 1..n")
    lines = [f"n {x.n}"]
    for i, j, s in sorted(x.nonzero_links()):
        lines.append(f"{i} {j} {s}")
    return "\n".join(lines) + "\n"


def read_edge_list(path: Union[str, Path]) -> AppraisalMatrix:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def write_edge_list(x: AppraisalMatrix, path: Union[str, Path]) -> None:
    Path(path).write_text(format_edge_list(x), encoding="utf-8")
