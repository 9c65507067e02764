"""Gossip-style appraisal dynamics and their absorbing states.

Two stochastic processes over appraisal matrices are implemented.  The SIH
dynamics pick one ordered pair with at least one nonzero direction and
rewrite a single entry through one of three mechanisms: symmetry (copy the
reverse appraisal), influence (adopt a common neighbor's appraisal of the
target), or homophily (agree when appraisals of a common neighbor agree).
The SIOH dynamics add a +-1 opinion per node and interleave opinion gossip
and person-opinion homophily with embedded SIH updates.

Absorbing states coincide with triad-wise balance (SIH) and with
sign-symmetric matrices whose links equal the opinion products (SIOH).
Runs, single steps, constructive sequences and equilibrium checks each
have one private body shared by both processes; an opinion vector, or None
for SIH, tells them apart.  Runs and steps go through one private kernel
that keeps Python-int bitsets beside the dense rows: common neighbors are a
mask intersection, and the violation counts behind those structural tests
are updated with popcounts after every change.  The definition-literal
equilibrium checks, which simulate every possible update, confirm every
absorbed result, one absorbed at step 0 included, and the end of every
constructive sequence.
A run can log one UpdateEvent per step, collected into its record or
handed to a callable as it is drawn, or write each step's JSON line to a
text stream.  For a stream the kernel assembles each line from per-run
text tables of the node labels and module tables cut from the one line
template, and writes the lines in blocks of whole lines, so memory stays
flat however long the run.
Deterministic constructive sequences reach absorption from any start by
symmetrizing the zero pattern and then applying one legal fix at a time,
each re-validated against the step preconditions, driving a
count-of-negatives potential strictly down; a fix past the potential's
start value raises.  They keep their state only as sign masks, read their
pairs off the start matrix's masks and find each fix by a walk over the
masks of the negative pairs, so F fixes cost O(F (n + m)) for m links;
only the literal end check costs n^2.
"""

from __future__ import annotations

import random
from collections import namedtuple
from typing import Callable, Optional, TextIO

from .graphs import (
    AppraisalMatrix,
    _checked_replace,
    _linked_pairs,
    _positions,
    _row_signs,
    _skeleton_masks,
)
from .rng import stream

SYMMETRY = "symmetry"
INFLUENCE = "influence"
HOMOPHILY = "homophily"
OPINION_GOSSIP = "opinion-gossip"
PERSON_OPINION_HOMOPHILY = "person-opinion-homophily"
MECHANISMS = (SYMMETRY, INFLUENCE, HOMOPHILY, OPINION_GOSSIP, PERSON_OPINION_HOMOPHILY)

DEFAULT_MAX_STEPS = 10**6

_PROB_TOL = 1e-12


def _check_weights(names: tuple[str, str, str], values: tuple[float, float, float]) -> None:
    """Refuse mechanism weights that are not all positive or do not sum to 1."""
    for name, value in zip(names, values):
        if not value > 0:
            raise ValueError(f"{name} must be positive")
    if abs(sum(values) - 1.0) > _PROB_TOL:
        a, b, c = names
        raise ValueError(f"{a}, {b} and {c} must sum to 1 (no renormalization)")


class SihParams(namedtuple("SihParams", "p1 p2 p3")):
    """Mechanism weights for SIH updates; all positive, summing to one."""

    __slots__ = ()
    _replace = __replace__ = _checked_replace

    def __new__(cls, p1: float = 1 / 3, p2: float = 1 / 3, p3: float = 1 / 3):
        _check_weights(("p1", "p2", "p3"), (p1, p2, p3))
        return super().__new__(cls, p1, p2, p3)


class SiohParams(namedtuple("SiohParams", "q1 q2 q3 sih")):
    """Weights for opinion gossip, person-opinion homophily, embedded SIH."""

    __slots__ = ()
    _replace = __replace__ = _checked_replace

    def __new__(
        cls, q1: float = 1 / 3, q2: float = 1 / 3, q3: float = 1 / 3, sih: SihParams = SihParams()
    ):
        _check_weights(("q1", "q2", "q3"), (q1, q2, q3))
        return super().__new__(cls, q1, q2, q3, sih)


class SiohState(namedtuple("SiohState", "x y")):
    """Appraisal matrix paired with a +-1 opinion per node.

    An immutable tuple; the constructor stores ``y`` as a tuple of ints and
    checks its length and values.
    """

    __slots__ = ()
    _replace = __replace__ = _checked_replace

    def __new__(cls, x: AppraisalMatrix, y: tuple[int, ...]):
        y = tuple(int(v) for v in y)
        if len(y) != x.n:
            raise ValueError("opinion vector length must match node count")
        if any(v not in (-1, 1) for v in y):
            raise ValueError("opinions must be -1 or +1")
        return super().__new__(cls, x, y)

    def opinion(self, i: int) -> int:
        return self.y[self.x.index_of(i)]


# One event as a JSON line: keys sorted, ", " and ": " separators, the
# values filled in as i, j, k ("null" when absent), mechanism, new, old, step.
_EVENT_LINE = '{"i": %s, "j": %s, "k": %s, "mechanism": "%s", "new": %s, "old": %s, "step": %s}\n'

# The same template cut at its fields, for a kernel that writes to a text
# stream.  A line there is three pieces, the step and _LINE_END: the text up
# to the value of "j" (per node i), the label of j, with ", "k": K" appended
# for influence and homophily, and the text from "k" or "mechanism" up to
# "step": , taken from _TAILS[mechanism][new][old].
_I, _J, _K, _MECH, _NEW, _OLD, _STEP, _LINE_END = _EVENT_LINE.split("%s")
_TAILS = {
    mech: {
        new: {
            old: ("" if mech in (INFLUENCE, HOMOPHILY) else _K + "null")
            + f"{_MECH}{mech}{_NEW}{new}{_OLD}{old}{_STEP}"
            for old in (-1, 0, 1)
        }
        for new in (-1, 0, 1)
    }
    for mech in MECHANISMS
}
# Lines a stream-logged run joins into one write.  Larger blocks measured no
# cheaper per line, and 4096 took a 20000-step n=16 run's traced peak to
# 1.2 MB; 256 holds it near 0.3 MB.
_BLOCK = 256


def _line_tables(labels: tuple[int, ...]) -> tuple[list[str], list[str], list[str]]:
    """Per-node texts of a run's lines: up to "j"'s value, the label, ", "k": K"."""
    texts = [str(label) for label in labels]
    return [_I + s + _J for s in texts], texts, [_K + s for s in texts]


def _join_lines(pieces: list[str], first_step: int) -> str:
    """The lines of three pieces per event, numbered from ``first_step``.

    Each line is five strings: the three pieces, the step and _LINE_END,
    placed by extended-slice assignment into one preallocated list.
    """
    m = len(pieces) // 3
    out = [_LINE_END] * (5 * m)
    out[0::5] = pieces[0::3]
    out[1::5] = pieces[1::3]
    out[2::5] = pieces[2::3]
    out[3::5] = map(str, range(first_step, first_step + m))
    return "".join(out)


class UpdateEvent(namedtuple("UpdateEvent", "step i j mechanism k old new")):
    """One applied update: the pair, the mechanism, and the value change.

    ``k`` is the common neighbor and is present exactly for influence and
    homophily.  Opinion gossip changes ``y_i``; every other mechanism
    changes ``X_ij``.  An immutable tuple: the constructor checks the
    mechanism and ``k``, while the kernel, whose events are legal by
    construction, builds them through the unchecked ``UpdateEvent._make``.
    """

    __slots__ = ()
    _replace = __replace__ = _checked_replace

    def __new__(
        cls, step: int, i: int, j: int, mechanism: str, k: Optional[int], old: int, new: int
    ):
        if mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {mechanism!r}")
        needs_k = mechanism in (INFLUENCE, HOMOPHILY)
        if needs_k != (k is not None):
            raise ValueError(
                f"mechanism {mechanism!r} "
                + ("requires" if needs_k else "must not carry")
                + " a common neighbor"
            )
        return super().__new__(cls, step, i, j, mechanism, k, old, new)

    def to_dict(self) -> dict:
        return self._asdict()

    def to_json_line(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True)`` plus a newline.

        Filled into one fixed template rather than serialized, so it holds
        for integer fields and the five mechanism names.  When a run's
        ``log`` is a text stream the kernel writes the same lines, assembled
        from tables cut from this template.  This line format is part of the
        reproducibility contract of ``simulate --log``.
        """
        step, i, j, mechanism, k, old, new = self
        return _EVENT_LINE % (i, j, "null" if k is None else k, mechanism, new, old, step)


class AbsorptionRecord(
    namedtuple("AbsorptionRecord", "absorbed steps final_x final_y events", defaults=(None, None))
):
    """Outcome of one trajectory: absorption flag, step count, final state.

    ``final_y`` holds the final opinions for SIOH and is None for SIH;
    ``events`` holds the UpdateEvents of a run logged with ``log=True`` and
    is None otherwise.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# Internal helpers on mutable row lists (positional indices).
# ---------------------------------------------------------------------------


def _freeze(rows: list[list[int]], labels: tuple[int, ...]) -> AppraisalMatrix:
    # Every update writes -1, 0 or 1 off the diagonal: no check.  The result
    # stores sign masks; its ``rows`` view, which equilibrium checks read, is
    # filled rather than rebuilt.
    x = AppraisalMatrix._make(labels, _row_signs(rows))
    vars(x)["rows"] = tuple(map(tuple, rows))
    return x


def _bad_tris_through(pos: list[int], neg: list[int], a: int, b: int, v: int) -> int:
    # Triples {a, b, k} with nonzero upper entries and a negative product,
    # if the upper entry of {a, b} were v.  No mask holds its own node's
    # bit, so the pair's own bits never reach the popcount.
    if v > 0:
        return ((pos[a] & neg[b]) | (neg[a] & pos[b])).bit_count()
    if v < 0:
        return ((pos[a] & pos[b]) | (neg[a] & neg[b])).bit_count()
    return 0


def _bad_links_at(pos: list[int], neg: list[int], up: int, i: int, yi: int) -> int:
    # Links at i whose upper entry differs from y_i * y_k, for opinion yi.
    mixed = ((pos[i] & ~up) | (neg[i] & up)).bit_count()
    return mixed if yi > 0 else (pos[i] | neg[i]).bit_count() - mixed


class _Kernel:
    """Mutable SIH/SIOH state: dense rows, bitset views, violation counts.

    Built from an AppraisalMatrix ``x`` and, for SIOH, its opinions ``y``
    (None for SIH); it copies both and keeps ``x.labels``.  ``rows`` is a
    dense list copy of the matrix's ``rows`` view, which the kernel updates
    and draws from.  Beside it, per node ``a``, ``nz[a]`` has bit ``b``
    set when ``rows[a][b]`` is nonzero, and ``pos[a]`` and ``neg[a]`` have
    bit ``b`` set when the upper-triangle entry of the pair {a, b} is +1 or
    -1.  For SIOH, ``y`` holds the opinions and ``up`` has bit ``a`` set
    when ``y[a]`` is +1; for SIH both are None.  ``nz`` is a list copy of
    the out-masks of the matrix's shared link view ``x._masks``, since
    updates change it in place.  ``pos``, ``neg``, the starting counts and
    ``cands`` come from one walk over the pairs linked in either direction:
    ``cands`` holds both orders of each, sorted into row-major order, the
    ordered pairs an SIH draw picks from.

    ``bad_pairs`` counts unordered pairs with unequal entries.  For SIH,
    ``bad_tris`` counts triples whose three upper entries are nonzero with a
    negative product; for SIOH, ``bad_links`` counts nonzero upper entries
    that differ from the opinion product of their endpoints.  Once the
    matrix is symmetric the upper entries are the pair signs, so
    ``bad_pairs`` and the engine's second count both at zero is exactly
    triad-wise balance (SIH) or the absorbing alignment (SIOH).  Each update
    adjusts them with O(1) popcounts instead of a rescan.
    """

    __slots__ = ("rows", "labels", "y", "nz", "pos", "neg", "up", "cands",
                 "bad_pairs", "bad_tris", "bad_links")

    def __init__(self, x: AppraisalMatrix, y: Optional[tuple[int, ...]] = None):
        rows, n = [list(r) for r in x.rows], x.n
        linked = list(_linked_pairs(_skeleton_masks(x)))
        pos, neg = [0] * n, [0] * n
        bad_pairs = 0
        for a, b in linked:
            v = rows[a][b]
            if v != rows[b][a]:
                bad_pairs += 1
            if v > 0:
                pos[a] |= 1 << b
                pos[b] |= 1 << a
            elif v < 0:
                neg[a] |= 1 << b
                neg[b] |= 1 << a
        self.rows, self.labels, self.y = rows, x.labels, None if y is None else list(y)
        self.nz, self.pos, self.neg = list(x._masks[0]), pos, neg
        self.cands = sorted(linked + [(b, a) for a, b in linked])
        self.bad_pairs = bad_pairs
        self.bad_tris = self.bad_links = self.up = None
        if y is None:
            # Each bad triple is counted once through each of its three
            # pairs, all linked; an unlinked pair adds nothing.
            self.bad_tris = sum(
                _bad_tris_through(pos, neg, a, b, rows[a][b]) for a, b in linked
            ) // 3
        else:
            self.up = sum(1 << a for a in range(n) if y[a] > 0)
            self.bad_links = sum(
                _bad_links_at(pos, neg, self.up, a, y[a]) for a in range(n)
            ) // 2

    def absorbed(self) -> bool:
        second = self.bad_tris if self.y is None else self.bad_links
        return self.bad_pairs == 0 and second == 0

    def run(
        self,
        params: SihParams | SiohParams,
        rng: random.Random,
        max_steps: int,
        emit: Optional[Callable[[object], object]] = None,
        first_step: int = 0,
        lines: bool = False,
    ) -> tuple[bool, int]:
        """Draw and apply up to ``max_steps`` updates, stopping at absorption.

        ``params`` is SihParams for SIH and SiohParams for SIOH.  Returns
        (absorbed, steps drawn).  When ``emit`` is given, each draw hands it
        one UpdateEvent.  With ``lines``, ``emit`` is a text stream's
        ``write`` instead and is handed the events' ``_EVENT_LINE`` texts,
        assembled here without building the events: three table pieces per
        draw are buffered, and every ``_BLOCK`` draws, and once when the loop
        ends for any reason, the buffered lines are joined and written in
        one call.  A failed write is not retried.  Either way nodes are
        named by their labels.  The draw order is part of the
        reproducibility contract: pair index, then mechanism, then (for
        influence and homophily only) the index of the common neighbor in
        increasing node order.  SIOH draws its outer branch first and skips
        it when X_ij = 0.  A matrix without links leaves no pair to draw and
        raises ValueError.

        On an exact ``random.Random`` each integer draw inlines the loop
        behind CPython's ``randrange(n)``: ``getrandbits(n.bit_length())``,
        redrawn until below n, the same values from the same stream.  Any
        other rng, a subclass included, is asked for ``randrange``.
        """
        rows, labels, y, up = self.rows, self.labels, self.y, self.up
        nz, pos, neg = self.nz, self.pos, self.neg
        sioh = y is not None
        if sioh:
            q1, q12 = params.q1, params.q1 + params.q2
            params = params.sih
        p1, p12 = params.p1, params.p1 + params.p2
        randrange, random_ = rng.randrange, rng.random
        inline = type(rng) is random.Random
        getrandbits = rng.getrandbits if inline else None
        make = UpdateEvent._make
        cands = self.cands
        if not cands:
            raise ValueError("no candidate pair: the appraisal network has no links")
        ncands = len(cands)
        width = ncands.bit_length()
        bad_pairs, bad_tris, bad_links = self.bad_pairs, self.bad_tris, self.bad_links
        absorbed = False
        t = 0
        if lines:
            # Three pieces per event in ``buf``, joined and written every
            # _BLOCK events; ``written`` counts the events sent before them.
            heads, texts, ks = _line_tables(labels)
            tails, buf, written = _TAILS, [], 0
            extend, last = buf.extend, _BLOCK - 1
        try:
            while t < max_steps:
                if inline:
                    d = getrandbits(width)
                    while d >= ncands:
                        d = getrandbits(width)
                else:
                    d = randrange(ncands)
                i, j = cands[d]
                ri = rows[i]
                old = ri[j]
                mech = k = None
                if sioh:
                    if not old:
                        # The candidate condition guarantees the reverse link is nonzero.
                        mech, new = SYMMETRY, rows[j][i]
                    else:
                        r = random_()
                        if r < q1:
                            mech, new = OPINION_GOSSIP, old * y[j]
                            old = y[i]
                        elif r < q12:
                            mech, new = PERSON_OPINION_HOMOPHILY, y[i] * y[j]
                if mech is None:
                    common = nz[i] & nz[j]
                    if common:
                        r = random_()
                    if not common or r < p1:
                        mech, new = SYMMETRY, rows[j][i]
                    else:
                        # The drawn index counts set bits from the lowest node:
                        # drop that many low bits, then take the lowest left.
                        c = common.bit_count()
                        if inline:
                            w = c.bit_length()
                            d = getrandbits(w)
                            while d >= c:
                                d = getrandbits(w)
                        else:
                            d = randrange(c)
                        for _ in range(d):
                            common &= common - 1
                        k = (common & -common).bit_length() - 1
                        if r < p12:
                            mech, new = INFLUENCE, ri[k] * rows[k][j]
                        else:
                            mech, new = HOMOPHILY, ri[k] * rows[j][k]
                if emit is not None:
                    if lines:
                        extend((heads[i], texts[j] if k is None else texts[j] + ks[k],
                                tails[mech][new][old]))
                        if t == last:
                            # Dropped before the write, so a failed write is not retried.
                            text = _join_lines(buf, first_step + written)
                            buf.clear()
                            written, last = t + 1, t + _BLOCK
                            emit(text)
                    else:
                        emit(make((first_step + t, labels[i], labels[j], mech,
                                   None if k is None else labels[k], old, new)))
                t += 1
                if new == old:
                    continue
                if mech == OPINION_GOSSIP:
                    before = _bad_links_at(pos, neg, up, i, old)
                    bad_links += (pos[i] | neg[i]).bit_count() - 2 * before
                    y[i] = new
                    up ^= 1 << i
                else:
                    back = rows[j][i]
                    if old == back:
                        bad_pairs += 1
                    elif new == back:
                        bad_pairs -= 1
                    ri[j] = new
                    bj = 1 << j
                    if not old:
                        nz[i] |= bj
                    elif not new:
                        # Symmetry writes a zero by copying X_ji = 0, influence by
                        # X_ik * X_kj with X_kj = 0.  The pair leaves the candidates,
                        # in both orders, only when X_ji is 0 as well; a new link
                        # never adds one.  Emptied candidates mean no links, which is
                        # absorbed, so the loop breaks before a draw could spin on
                        # getrandbits(0).
                        nz[i] ^= bj
                        if not rows[j][i]:
                            cands.remove((i, j))
                            cands.remove((j, i))
                            ncands = len(cands)
                            width = ncands.bit_length()
                    if i < j:
                        if sioh:
                            s = y[i] * y[j]
                            bad_links += (new != 0 and new != s) - (old != 0 and old != s)
                        else:
                            bad_tris += _bad_tris_through(pos, neg, i, j, new)
                            bad_tris -= _bad_tris_through(pos, neg, i, j, old)
                        bi = 1 << i
                        if old > 0:
                            pos[i] ^= bj
                            pos[j] ^= bi
                        elif old < 0:
                            neg[i] ^= bj
                            neg[j] ^= bi
                        if new > 0:
                            pos[i] |= bj
                            pos[j] |= bi
                        elif new < 0:
                            neg[i] |= bj
                            neg[j] |= bi
                if not bad_pairs and not (bad_links if sioh else bad_tris):
                    absorbed = True
                    break
        finally:
            # Every drawn line reaches the stream, however the loop ended.
            if lines and buf:
                emit(_join_lines(buf, first_step + written))
        self.cands, self.up = cands, up
        self.bad_pairs, self.bad_tris, self.bad_links = bad_pairs, bad_tris, bad_links
        return absorbed, t


def _equilibrium(x: AppraisalMatrix, y: Optional[tuple[int, ...]]) -> bool:
    """No possible update of the process changes (X, y): SIH for ``y`` None, else SIOH.

    The definition-literal check behind ``is_sih_equilibrium`` and
    ``is_sioh_equilibrium``: one pass over the candidate pairs simulates the
    symmetry outcome and, for every common neighbor, the influence and
    homophily outcomes; with opinions, also opinion gossip (y_i <- X_ij y_j)
    and person-opinion homophily (X_ij <- y_i y_j).  A zero X_ij fails the
    symmetry test, since symmetry copies the nonzero X_ji, so SIOH's forced
    symmetry on a zero entry needs no test of its own.
    """
    rows, n = x.rows, x.n
    for i in range(n):
        ri = rows[i]
        for j in range(n):
            if i == j or not (ri[j] or rows[j][i]):
                continue
            v = ri[j]
            if rows[j][i] != v:
                return False
            if y is not None and (v * y[j] != y[i] or y[i] * y[j] != v):
                return False
            rj = rows[j]
            for k in range(n):
                if k != i and k != j and ri[k] and rj[k]:
                    if ri[k] * rows[k][j] != v or ri[k] * rj[k] != v:
                        return False
    return True


def _require_legal(signs, up, i, j, mechanism, k, new) -> None:
    # Re-validate a constructed update against the step preconditions, read
    # off the ``(plus, minus)`` sign masks and the opinion mask ``up`` (bit a
    # set when y_a is +1).  The opinion mechanisms exist only when ``up`` is
    # given, and SIOH answers a zero X_ij with symmetry alone.
    def x(a: int, b: int) -> int:
        return (signs[0][a] >> b & 1) - (signs[1][a] >> b & 1)

    if not (x(i, j) or x(j, i)):
        raise RuntimeError("illegal update: pair carries no link")
    if up is not None and not x(i, j) and mechanism != SYMMETRY:
        raise RuntimeError(f"illegal update: {mechanism} on a zero entry")
    if mechanism == SYMMETRY:
        expected = x(j, i)
    elif mechanism in (INFLUENCE, HOMOPHILY):
        if k is None or k in (i, j) or not (x(i, k) and x(j, k)):
            raise RuntimeError("illegal update: invalid common neighbor")
        expected = x(i, k) * (x(k, j) if mechanism == INFLUENCE else x(j, k))
    elif mechanism in (OPINION_GOSSIP, PERSON_OPINION_HOMOPHILY) and up is not None:
        yi, yj = (up >> i & 1) * 2 - 1, (up >> j & 1) * 2 - 1
        expected = x(i, j) * yj if mechanism == OPINION_GOSSIP else yi * yj
    else:
        raise RuntimeError(f"illegal update: no mechanism {mechanism!r} in this process")
    if new != expected:
        raise RuntimeError("illegal update: value does not match mechanism")


def _run(x0, y0, params, seed, max_steps, log) -> AbsorptionRecord:
    """The body of ``run_sih`` (``y0`` None) and ``run_sioh`` (``y0`` the opinions)."""
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    # False logs nothing, True collects into ``events``, a callable is handed
    # each event, and a writable text stream is written the events' lines.
    events: Optional[list[UpdateEvent]] = None
    lines = False
    if callable(log):
        emit = log
    elif hasattr(log, "write"):
        emit, lines = log.write, True
    elif log:
        events = []
        emit = events.append
    else:
        emit = None
    rng = stream(seed)
    kernel = _Kernel(x0, y0)
    absorbed, t = True, 0
    if not kernel.absorbed():
        absorbed, t = kernel.run(params, rng, max_steps, emit, 0, lines)
    final_x = _freeze(kernel.rows, x0.labels)
    final_y = None if y0 is None else tuple(kernel.y)
    if absorbed and not _equilibrium(final_x, final_y):
        scan = "balance" if y0 is None else "alignment"
        raise RuntimeError(f"internal error: ledger disagrees with {scan} scan")
    return AbsorptionRecord(
        absorbed, t, final_x, final_y, None if events is None else tuple(events)
    )


def _step(x, y, params, rng, step) -> tuple[AppraisalMatrix, Optional[tuple], UpdateEvent]:
    """The body of ``sih_step`` (``y`` None) and ``sioh_step``: (x, y, event) after one draw."""
    kernel = _Kernel(x, y)
    events: list[UpdateEvent] = []
    kernel.run(params, rng, 1, events.append, step)
    return _freeze(kernel.rows, x.labels), None if y is None else tuple(kernel.y), events[0]


def _constructive(x0, y0, next_fix) -> AbsorptionRecord:
    """The body of both constructive sequences (``y0`` None for SIH).

    The state is kept only in the stored form of a matrix: ``plus`` and
    ``minus``, lists of the sign masks, and ``up``, with bit a set when
    y_a is +1 (None for SIH).  Every pair comes from a walk over sign masks,
    never from a scan of the n^2 pairs.  Phase 1 copies the nonzero side of
    every half-directed pair (symmetry), walking ``into & ~out`` row by row.
    Phase 2 first flips the minus side of every (-1, +1) pair (symmetry),
    walking ``minus & in_plus``.  Neither walk creates work for the other,
    so both are read off ``x0``'s masks up front.  The matrix is then
    sign-symmetric: ``adj`` holds its links, which no later update changes,
    and ``minus`` its negative pairs.  Phase 2 goes on with
    ``next_fix(minus, adj, up)``, an update ``(i, j, mechanism, k, new)``,
    until that returns None.  A fix that flips X_ij of a (-1, -1) pair
    leaves (j, i) the only (-1, +1) pair, so the symmetry flip of X_ji
    follows at once: every call sees a sign-symmetric matrix.  These are the
    updates, in the same order, that a rescan for the first (-1, +1) pair
    before each fix would make.  Each fix lowers the potential, the negative
    entries plus the -1 opinions, so more fixes than its value at the start
    of the fix loop raise.  Every update is re-validated against the step
    preconditions before it is recorded and written to the masks, and the
    end state must pass the process's definition-literal equilibrium check.
    """
    labels, n = x0.labels, x0.n
    plus, minus = signs = [list(masks) for masks in x0._signs]
    up = None if y0 is None else sum(1 << a for a, v in enumerate(y0) if v > 0)
    events: list[UpdateEvent] = []

    def apply(i: int, j: int, mech: str, k: Optional[int], new: int) -> None:
        nonlocal up
        _require_legal(signs, up, i, j, mech, k, new)
        if mech == OPINION_GOSSIP:
            old, up = (up >> i & 1) * 2 - 1, up & ~(1 << i) | (new > 0) << i
        else:
            old, bj = (plus[i] >> j & 1) - (minus[i] >> j & 1), 1 << j
            plus[i], minus[i] = plus[i] & ~bj | (new > 0) << j, minus[i] & ~bj | (new < 0) << j
        events.append(
            UpdateEvent(
                len(events), labels[i], labels[j], mech, None if k is None else labels[k], old, new
            )
        )

    # Per position: plus, minus, in_plus, in_minus.  Both phases' masks are
    # read before either applies an update.
    quads = list(zip(*x0._signs, *x0._incoming))
    for phase in (
        [(ip | im) & ~(p | m) for p, m, ip, im in quads],
        [m & ip for p, m, ip, im in quads],
    ):
        for i, mask in enumerate(phase):
            for j in _positions(mask):
                apply(i, j, SYMMETRY, None, (plus[j] >> i & 1) - (minus[j] >> i & 1))

    adj = _skeleton_masks(x0)
    budget = sum(map(int.bit_count, minus)) + (0 if up is None else n - up.bit_count())
    for i, j, mech, k, new in iter(lambda: next_fix(minus, adj, up), None):
        if not budget:
            raise RuntimeError("internal error: constructive fixes outlast their potential")
        budget -= 1
        apply(i, j, mech, k, new)
        if mech != OPINION_GOSSIP:
            apply(j, i, SYMMETRY, None, new)

    final_x = AppraisalMatrix._make(labels, (tuple(plus), tuple(minus)))
    final_y = None if up is None else tuple((up >> a & 1) * 2 - 1 for a in range(n))
    if not _equilibrium(final_x, final_y):
        ended = "unbalanced" if up is None else "unaligned"
        raise RuntimeError(f"internal error: constructive sequence ended {ended}")
    return AbsorptionRecord(True, len(events), final_x, final_y, tuple(events))


# ---------------------------------------------------------------------------
# SIH dynamics.
# ---------------------------------------------------------------------------


def sih_candidate_pairs(x: AppraisalMatrix) -> list[tuple[int, int]]:
    """Ordered pairs (i, j), i != j, with X_ij or X_ji nonzero, in row-major order.

    These are the pairs an SIH step draws from: the simulation kernel's own list.
    """
    labels = x.labels
    return [(labels[i], labels[j]) for i, j in _Kernel(x).cands]


def sih_step(
    x: AppraisalMatrix, params: SihParams, rng: random.Random, step: int = 0
) -> tuple[AppraisalMatrix, UpdateEvent]:
    """One SIH update; raises when the network has no link to act on."""
    x1, _, event = _step(x, None, params, rng, step)
    return x1, event


def is_sih_equilibrium(x: AppraisalMatrix) -> bool:
    """No possible SIH update changes the matrix.

    Literal check: every candidate pair is simulated against the symmetry
    outcome and, for every common neighbor, the influence and homophily
    outcomes.  Coincides with triad-wise balance.
    """
    return _equilibrium(x, None)


def run_sih(
    x0: AppraisalMatrix,
    params: SihParams,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    log: bool | Callable[[UpdateEvent], object] | TextIO = False,
) -> AbsorptionRecord:
    """Run SIH updates until triad-wise balance or ``max_steps``.

    Deterministic given (x0, params, seed).  Absorption is detected by the
    kernel's incremental violation counts after every state change and
    confirmed by ``is_sih_equilibrium`` at the end; hitting ``max_steps``
    without absorbing is reported, not raised.

    ``log=True`` collects one UpdateEvent per step into ``record.events``.
    A callable ``log`` is instead handed each event as it is drawn, in step
    order.  A writable text stream ``log`` (not callable, with ``write``)
    is written each event's ``UpdateEvent.to_json_line()`` text, without
    the event being built, in blocks of whole lines: one ``write`` per
    ``_BLOCK`` events and one for the rest when the run ends, also when it
    ends by an exception.  With either, ``record.events`` is None and
    memory stays flat in the number of steps.  An input that starts
    absorbed draws no event and writes nothing.
    """
    return _run(x0, None, params, seed, max_steps, log)


def constructive_sih_sequence(x0: AppraisalMatrix) -> AbsorptionRecord:
    """Deterministic legal-update sequence reaching triad-wise balance.

    Phase 1 copies the nonzero side of every half-directed pair (symmetry),
    making the matrix bilateral.  Phase 2 repeatedly flips one negative
    entry to +1: either the minus side of a (-1, +1) pair via symmetry, or
    one direction of a negative symmetric pair sitting in an unbalanced
    triangle via homophily through a common neighbor whose pair signs
    agree.  Each phase-2 flip lowers the negative-entry count by exactly
    one, so the sequence terminates in fewer than n(n-1) phase-2 steps.
    """
    return _constructive(x0, None, _sih_fix)


def _sih_fix(minus, adj, up):
    # On a sign-symmetric matrix: one direction of a negative pair whose
    # common neighbor has agreeing pair signs, flipped by homophily.  The
    # pair comes first in row-major order, then the lowest such neighbor.
    return next(
        (
            (i, j, HOMOPHILY, k, 1)
            for i, j in _linked_pairs(minus)
            for k in _positions(adj[i] & adj[j] & ~(minus[i] ^ minus[j]))
        ),
        None,
    )


# ---------------------------------------------------------------------------
# SIOH dynamics.
# ---------------------------------------------------------------------------


def sioh_step(
    state: SiohState, params: SiohParams, rng: random.Random, step: int = 0
) -> tuple[SiohState, UpdateEvent]:
    """One SIOH update; raises when the network has no link to act on."""
    x1, y1, event = _step(state.x, state.y, params, rng, step)
    return SiohState(x1, y1), event


def is_sioh_equilibrium(state: SiohState) -> bool:
    """No possible SIOH update changes the pair (X, y).

    Literal check: the pass of ``is_sih_equilibrium`` also simulates, on
    every candidate pair, opinion gossip and person-opinion homophily; a
    zero entry already fails its forced symmetry.  Coincides with
    sign-symmetric X whose links satisfy X_ij = y_i * y_j.
    """
    return _equilibrium(state.x, state.y)


def run_sioh(
    state0: SiohState,
    params: SiohParams,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    log: bool | Callable[[UpdateEvent], object] | TextIO = False,
) -> AbsorptionRecord:
    """Run SIOH updates until the absorbing alignment or ``max_steps``.

    ``log`` works as in ``run_sih``: True collects the events into
    ``record.events``; a callable is handed each event, and a writable text
    stream is written the events' JSON lines in blocks of whole lines, in
    step order, and both leave ``record.events`` None.
    """
    return _run(state0.x, state0.y, params, seed, max_steps, log)


def constructive_sioh_sequence(state0: SiohState) -> AbsorptionRecord:
    """Deterministic legal-update sequence reaching an SIOH equilibrium.

    After symmetrizing the zero pattern, repeatedly fix, in order: a
    (-1, +1) pair by symmetry; a negative link between agreeing opinions by
    person-opinion homophily; a positive link from a -1 opinion toward a +1
    opinion by opinion gossip.  Each fix lowers the combined count of
    negative entries and negative opinions by exactly one.
    """
    return _constructive(state0.x, state0.y, _sioh_fix)


def _sioh_fix(minus, adj, up):
    # On a sign-symmetric matrix: a negative link between agreeing opinions,
    # by person-opinion homophily; else a positive link from a -1 toward a
    # +1 opinion, by gossip; each the first in row-major order.  ``up`` has
    # bit a set when y_a is +1.  A row whose mask is empty starts no walk.
    down = ~up
    return next(
        (
            (i, j, PERSON_OPINION_HOMOPHILY, None, 1)
            for i, mask in enumerate(minus)
            if mask
            for j in _positions(mask & (up if up >> i & 1 else down))
        ),
        None,
    ) or next(
        (
            (i, j, OPINION_GOSSIP, None, 1)
            for i, mask in enumerate(adj)
            if mask and not up >> i & 1
            for j in _positions(mask & ~minus[i] & up)
        ),
        None,
    )


# ---------------------------------------------------------------------------
# Convergence potentials.
# ---------------------------------------------------------------------------


def potential_h(x: AppraisalMatrix) -> int:
    """Count of negative appraisal entries."""
    return x.negative_count()


def potential_h_xy(state: SiohState) -> int:
    """Negative entries plus negative opinions."""
    return state.x.negative_count() + sum(1 for v in state.y if v < 0)
