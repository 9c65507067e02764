"""Ternary appraisal matrices and their undirected skeleton views.

An appraisal matrix holds one value from {-1, 0, +1} per ordered node pair:
antagonistic, absent-or-neutral, friendly.  The diagonal is zero (no
self-appraisal).  Node ids are 1-based externally; induced subgraphs are
contiguously re-indexed internally but carry the original ids in ``labels``
so worked examples keep their node names.

Both graph types store bit masks per position, positions following the
sorted node ids, and nothing else.  A matrix stores its sign masks, which
the edge-list parser writes straight from its tokens and the checked
constructor reads off the rows it checks; ``_link_masks`` is the one place
where stored masks are transposed.  A skeleton stores one neighbour mask
per position.  Every other form, ``rows`` and ``edges`` included, is a view
built once, on first use, or handed over filled by the code that made the
matrix, and shared with every analysis.  ``_make``, each type's one
unchecked constructor, takes the masks.

All types are immutable values after construction and safe to share across
workers.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress
from operator import eq, index, or_
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union


# Largest node count an edge-list header, a ``--n`` flag, ``AppraisalMatrix.zeros``,
# ``AppraisalMatrix.from_edge_list``, ``UndirectedSkeleton.from_edges`` or
# ``ErParams`` may ask for.  Parsing and ``analyze`` read sign masks and grow with
# links: a 4096-node file with 12,000 links peaks at about 31 MB.  ``simulate``
# copies the dense ``rows`` view, which grows with n squared: about 415 MB on
# that file.
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


def _int_ids(values: Iterable) -> tuple[int, ...] | None:
    """``values`` as exact ints, or None if one is not an integer (``1.5``, ``1.0``, ``"1"``)."""
    try:
        return tuple(map(index, values))
    except TypeError:
        return None


def _check_node_count(n: int) -> None:
    """Refuse a node count outside ``1..NODE_LIMIT`` before any grid is built."""
    if n < 1:
        raise ValueError("node count must be positive")
    if n > NODE_LIMIT:
        raise ValueError(f"node count {n} exceeds the ceiling of {NODE_LIMIT}")


def _link_masks(*signs: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The transposes of the sign masks: per position, who appraises it at +1 and at -1."""
    transposed = []
    for masks in signs:
        into = [0] * len(masks)
        for a, mask in enumerate(masks):
            bit = 1 << a
            while mask:
                low = mask & -mask
                mask ^= low
                into[low.bit_length() - 1] |= bit
        transposed.append(tuple(into))
    return tuple(transposed)


def _masks_of_links(
    n: int, links: Iterable[tuple[int, int, int]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sign masks of checked ``(i, j, sign)`` links on nodes ``1..n``."""
    plus, minus = [0] * n, [0] * n
    for i, j, s in links:
        if s > 0:
            plus[i - 1] |= 1 << j - 1
        else:
            minus[i - 1] |= 1 << j - 1
    return tuple(plus), tuple(minus)


def _row_signs(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ``(plus, minus)`` sign masks of checked square rows.

    One pass over the links of each row: ``compress`` skips the zeros.
    """
    positions, plus, minus = range(len(rows)), [], []
    for row in rows:
        p = m = 0
        for b in compress(positions, row):
            if row[b] > 0:
                p |= 1 << b
            else:
                m |= 1 << b
        plus.append(p)
        minus.append(m)
    return tuple(plus), tuple(minus)


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
    if _int_ids((i, j)) is None or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"node id out of range: ({i!r}, {j!r}) with n={n}")
    if i == j:
        raise ValueError(f"self-loop not allowed: ({i}, {j})")
    if s not in (-1, 1):
        raise ValueError(f"sign must be -1 or 1, got {s!r}")
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


class _Graph:
    """The base of both graph types: immutability and the position view.

    Fields are written once, in ``__init__`` or ``_make``, into the instance
    ``__dict__``, where ``functools.cached_property`` stores views too.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def _pos(self) -> dict[int, int]:
        return dict(zip(self.nodes, range(self.n)))

    @property
    def n(self) -> int:
        return len(self.nodes)


class AppraisalMatrix(_Graph):
    """Square ternary matrix of interpersonal appraisals with zero diagonal.

    ``labels[a]`` is the external id of position ``a``: strictly increasing
    positive integers, by default ``1..n``.  The links are kept as sign
    masks, ``_signs = (plus, minus)``: bit ``b`` of ``plus[a]`` (``minus[a]``)
    is set when ``a`` appraises ``b`` at +1 (-1).  The incoming masks
    (``_incoming``) and the either-sign view (``_masks``) are built from them
    on first use, so the static analyses cost by links and triangles.
    ``rows``, the dense tuple of row tuples, is a view too, built only when
    asked.  Code that already holds a view as it makes a matrix through
    ``_make`` may store it, equal to what the view would build: the
    simulation kernel its final ``rows``, the random generator all three.  Construction from rows checks every entry as given, with C-level
    row operations, and stores only the masks: a value equal to -1, 0 or 1
    (``1.0``, ``True``) reads as that value, and any other (``1.5``, ``"1"``,
    ``nan``) is refused, never rounded.  Labels must be integers.
    Immutable, compared and hashed by ``(_signs, labels)``, and equal only
    to another ``AppraisalMatrix``; not a tuple, so ``len`` of a matrix is
    an error rather than 2.
    """

    def __init__(self, rows: Sequence[Sequence[int]], labels: tuple[int, ...] = ()):
        n = len(rows)
        labels = _int_ids(labels or _default_labels(n))
        if labels is None or (labels and labels[0] < 1) or any(
            b <= a for a, b in zip(labels, labels[1:])
        ):
            raise ValueError("labels must be strictly increasing positive integers")
        if len(labels) != n:
            raise ValueError("labels length must match matrix size")
        for a, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("appraisal matrix must be square")
            if row[a] != 0:
                raise ValueError(f"diagonal entry for node {labels[a]} must be 0")
            if not _TERNARY.issuperset(row):
                v = next(v for v in row if v not in _TERNARY)
                raise ValueError(f"appraisal values must be -1, 0 or 1, got {v!r}")
        vars(self).update(labels=labels, _signs=_row_signs(rows))

    @classmethod
    def _make(
        cls, labels: tuple[int, ...], signs: tuple[tuple[int, ...], tuple[int, ...]]
    ) -> "AppraisalMatrix":
        # Unchecked: ``signs`` are the ``(plus, minus)`` masks, valid for ``labels``.
        self = object.__new__(cls)
        vars(self).update(labels=labels, _signs=signs)
        return self

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(rows={self.rows!r}, labels={self.labels!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._signs, self.labels) == (other._signs, other.labels)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._signs, self.labels))

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        n, grid = self.n, []
        for plus, minus in zip(*self._signs):
            row, both = [0] * n, plus | minus
            while both:
                low = both & -both
                both ^= low
                row[low.bit_length() - 1] = -1 if minus & low else 1
            grid.append(tuple(row))
        return tuple(grid)

    @cached_property
    def _incoming(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return _link_masks(*self._signs)

    @cached_property
    def _masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # Per position, whom it appraises and who appraises it, either sign.
        (plus, minus), (in_plus, in_minus) = self._signs, self._incoming
        return tuple(map(or_, plus, minus)), tuple(map(or_, in_plus, in_minus))

    @property
    def nodes(self) -> tuple[int, ...]:
        return self.labels

    @classmethod
    def zeros(cls, n: int) -> "AppraisalMatrix":
        _check_node_count(n)
        return cls._make(_default_labels(n), ((0,) * n, (0,) * n))

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
        entries = list(entries)
        seen: set[tuple[int, int]] = set()
        for i, j, s in entries:
            _check_link(n, i, j, s, seen)
        return cls._make(_default_labels(n), _masks_of_links(n, entries))

    def index_of(self, node: int) -> int:
        """Positional index of an external node id."""
        try:
            return self._pos[node]
        except KeyError:
            raise ValueError(f"node {node} not in matrix") from None

    def entry(self, i: int, j: int) -> int:
        """Appraisal of node ``i`` toward node ``j`` (external ids)."""
        a, b = self.index_of(i), self.index_of(j)
        plus, minus = self._signs
        return (plus[a] >> b & 1) - (minus[a] >> b & 1)

    def with_entry(self, i: int, j: int, value: int) -> "AppraisalMatrix":
        """A copy with one entry replaced: one bit of each sign mask set or cleared.

        ``value`` is checked as the constructor checks an entry.
        """
        if i == j:
            raise ValueError("diagonal entries are fixed at 0")
        a, b = self.index_of(i), self.index_of(j)
        if value not in _TERNARY:
            raise ValueError(f"appraisal values must be -1, 0 or 1, got {value!r}")
        plus, minus = map(list, self._signs)
        plus[a] = plus[a] & ~(1 << b) | (value > 0) << b
        minus[a] = minus[a] & ~(1 << b) | (value < 0) << b
        return AppraisalMatrix._make(self.labels, (tuple(plus), tuple(minus)))

    def nonzero_links(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(i, j, sign)`` for every nonzero entry, in label order."""
        labels = self.labels
        for i, plus, minus in zip(labels, *self._signs):
            for b in _positions(plus | minus):
                yield i, labels[b], -1 if minus >> b & 1 else 1

    def nonzero_count(self) -> int:
        return sum(map(int.bit_count, chain(*self._signs)))

    def negative_count(self) -> int:
        return sum(map(int.bit_count, self._signs[1]))


class UndirectedSkeleton(_Graph):
    """Unsigned undirected graph: node ids plus a set of unordered pairs.

    It stores only the sorted ``nodes`` and ``_masks``: bit ``b`` of
    ``_masks[a]`` is set when ``{nodes[a], nodes[b]}`` is an edge.
    ``edges``, the pairs ``(i, j)`` with ``i < j``, is a view built on first
    use.  Immutable, compared and hashed by ``(nodes, _masks)``, and equal
    only to another ``UndirectedSkeleton``; not a tuple.
    """

    def __init__(self, nodes: tuple[int, ...], edges: frozenset[tuple[int, int]] = frozenset()):
        nodes = _int_ids(nodes)
        if nodes is None or min(nodes, default=1) < 1:
            raise ValueError("node ids must be positive integers")
        nodes = tuple(sorted(set(nodes)))
        pos = dict(zip(nodes, range(len(nodes))))
        masks = [0] * len(nodes)
        for e in edges:
            a, b = e
            if a == b:
                raise ValueError(f"self-pair not allowed: {e}")
            if a not in pos or b not in pos:
                raise ValueError(f"edge {e} has an endpoint outside the node set")
            masks[pos[a]] |= 1 << pos[b]
            masks[pos[b]] |= 1 << pos[a]
        vars(self).update(nodes=nodes, _masks=tuple(masks))

    @classmethod
    def _make(cls, nodes: tuple[int, ...], masks: tuple[int, ...]) -> "UndirectedSkeleton":
        # Unchecked: ``masks`` are symmetric neighbour masks, valid for the sorted ``nodes``.
        self = object.__new__(cls)
        vars(self).update(nodes=nodes, _masks=masks)
        return self

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(nodes={self.nodes!r}, edges={self.edges!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.nodes, self._masks) == (other.nodes, other._masks)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nodes, self._masks))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        nodes = self.nodes
        return frozenset((nodes[a], nodes[b]) for a, b in _linked_pairs(self._masks))

    @classmethod
    def from_edges(
        cls, nodes: Union[int, Iterable[int]], pairs: Iterable[tuple[int, int]]
    ) -> "UndirectedSkeleton":
        """Build from a node count (meaning ``1..n``) or explicit node ids."""
        if isinstance(nodes, int):
            _check_node_count(nodes)
            nodes = _default_labels(nodes)
        return cls(nodes, frozenset((a, b) for a, b in pairs))

    def has_edge(self, i: int, j: int) -> bool:
        pos = self._pos
        return i in pos and j in pos and self._masks[pos[i]] >> pos[j] & 1 == 1

    def neighbors(self, i: int) -> tuple[int, ...]:
        try:
            mask = self._masks[self._pos[i]]
        except KeyError:
            raise ValueError(f"node {i} not in graph") from None
        return tuple(map(self.nodes.__getitem__, _positions(mask)))

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self._masks)) // 2

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


def _skeleton_masks(x: AppraisalMatrix) -> tuple[int, ...]:
    """Per position, the mask of everyone linked to it in either direction."""
    return tuple(map(or_, *x._masks))


def skeleton(x: AppraisalMatrix) -> UndirectedSkeleton:
    """The unsigned undirected view: pair {i,j} present iff either direction is nonzero."""
    return UndirectedSkeleton._make(x.labels, _skeleton_masks(x))


def is_bilateral(x: AppraisalMatrix) -> bool:
    """True iff links exist in both directions or neither (X_ij != 0 iff X_ji != 0)."""
    out, into = x._masks
    return out == into


def is_sign_symmetric(x: AppraisalMatrix) -> bool:
    """True iff the matrix equals its transpose (bilateral with matching signs)."""
    return x._signs == x._incoming


def ego_network(x: AppraisalMatrix, i: int) -> tuple[frozenset[int], AppraisalMatrix]:
    """Node ``i`` plus everyone ``i`` appraises, and the induced submatrix.

    The member set always contains ``i`` itself, even when ``i`` appraises
    nobody.
    """
    a, (plus, minus) = x.index_of(i), x._signs
    members = {i, *map(x.labels.__getitem__, _positions(plus[a] | minus[a]))}
    return frozenset(members), induced_subgraph(x, members)


def induced_subgraph(
    g: Union[AppraisalMatrix, UndirectedSkeleton], members: Iterable[int]
):
    """Restriction to ``members``: keeps exactly links with both endpoints inside.

    Works on both graph kinds and returns the same kind, remapping its
    masks; original node ids are retained as labels.
    """
    if isinstance(g, AppraisalMatrix):
        kind, stored = "matrix", g._signs
    elif isinstance(g, UndirectedSkeleton):
        kind, stored = "graph", (g._masks,)
    else:
        raise TypeError(f"unsupported graph type: {type(g).__name__}")
    member_set = set(members)
    missing = member_set - set(g.nodes)
    if missing:
        raise ValueError(f"nodes not in {kind}: {sorted(missing)}")
    idx = sorted(map(g._pos.__getitem__, member_set))
    # Old position -> new position, for the kept positions' links only.
    moved = dict(zip(idx, range(len(idx))))
    kept = sum(1 << a for a in idx)
    remapped = [
        tuple(sum(1 << moved[b] for b in _positions(masks[a] & kept)) for a in idx)
        for masks in stored
    ]
    nodes = tuple(map(g.nodes.__getitem__, idx))
    if kind == "matrix":
        return AppraisalMatrix._make(nodes, tuple(remapped))
    return UndirectedSkeleton._make(nodes, remapped[0])


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
    read in bulk passes (``_bulk_matrix``).  Anything else, and every
    malformed file, goes through the line-by-line loop (``_parse_lines``),
    the only producer of ``EdgeListError`` messages; both give the same
    matrix.
    """
    lines = text.splitlines()
    x = _bulk_matrix(lines)
    return _parse_lines(lines) if x is None else x


def _bulk_matrix(lines: list[str]) -> AppraisalMatrix | None:
    """The matrix of a valid, canonically spelled edge list, or None.

    Comments and blank lines may only precede the header; every number must
    be spelled as ``str(int)`` spells it.  The whole link list is split and
    checked at once: one token table for ``-1..n``, then ``min``, ``set``
    and ``map`` passes for range, self-loops and signs.  The links are then
    written straight into the sign masks, and duplicates show as fewer set
    bits than links.  None means that ``_parse_lines`` must decide.
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
    plus, minus = _masks_of_links(n, zip(i_s, j_s, s_s))
    # A repeated pair sets a bit already set, in the same mask or the other one.
    if sum(map(int.bit_count, map(or_, plus, minus))) != len(s_s):
        return None
    return AppraisalMatrix._make(_default_labels(n), (plus, minus))


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
    # Every link passed _check_link above; only the masks are left to fill.
    return AppraisalMatrix._make(_default_labels(n), _masks_of_links(n, entries))


def format_edge_list(x: AppraisalMatrix) -> str:
    """Serialize to the edge-list format, entries sorted by (i, j)."""
    if x.labels != _default_labels(x.n):
        raise ValueError("edge-list format requires contiguous node ids 1..n")
    # Positions follow the labels 1..n, so walking them in order is (i, j) order.
    texts = list(map(str, x.labels))
    lines = [f"n {x.n}"]
    for head, plus, minus in zip(texts, *x._signs):
        head += " "
        lines += [
            head + texts[b] + (" -1" if minus >> b & 1 else " 1") for b in _positions(plus | minus)
        ]
    return "\n".join(lines) + "\n"


def read_edge_list(path: Union[str, Path]) -> AppraisalMatrix:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def write_edge_list(x: AppraisalMatrix, path: Union[str, Path]) -> None:
    Path(path).write_text(format_edge_list(x), encoding="utf-8")
