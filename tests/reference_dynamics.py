"""Frozen list-scanning SIH/SIOH engines, kept as a differential oracle.

This is the simulation code the bitset kernel in ``balance_lab.dynamics``
replaced: common neighbors come from a row scan, the violation ledgers
rescan O(n) entries per write, and the step functions rebuild everything
per call.  The dense constructive sequences below rescan every ordered
pair before each fix; the library's mask walks replaced them.  It must not
change.  ``tests/test_dynamics_kernel.py`` asserts that the kernel gives
the same records and events on random inputs, and
``tests/test_dynamics.py`` that the constructive sequences do.
"""

from __future__ import annotations

from typing import Optional

from balance_lab.dynamics import (
    HOMOPHILY,
    INFLUENCE,
    OPINION_GOSSIP,
    PERSON_OPINION_HOMOPHILY,
    SYMMETRY,
    AbsorptionRecord,
    SiohState,
    UpdateEvent,
    _equilibrium,
)
from balance_lab.graphs import AppraisalMatrix
from balance_lab.rng import stream


def _row_lists(x):
    return [list(r) for r in x.rows]


def _freeze(rows, labels):
    return AppraisalMatrix(tuple(tuple(r) for r in rows), labels)


def _candidates(rows, n):
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and (rows[i][j] or rows[j][i])
    ]


def _common_neighbors(rows, n, i, j):
    ri, rj = rows[i], rows[j]
    return [k for k in range(n) if k != i and k != j and ri[k] and rj[k]]


class _BalanceLedger:
    def __init__(self, rows, n):
        self.rows = rows
        self.n = n
        self.bad_pairs = 0
        self.bad_tris = 0
        for a in range(n):
            ra = rows[a]
            for b in range(a + 1, n):
                if ra[b] != rows[b][a]:
                    self.bad_pairs += 1
                vab = ra[b]
                if vab:
                    for c in range(b + 1, n):
                        if ra[c] and rows[b][c] and vab * ra[c] * rows[b][c] < 0:
                            self.bad_tris += 1

    def balanced(self):
        return self.bad_pairs == 0 and self.bad_tris == 0

    def _tri_count_through(self, a, b):
        rows = self.rows
        ra = rows[a]
        vab = ra[b]
        if not vab:
            return 0
        count = 0
        for k in range(a):
            rk = rows[k]
            if rk[a] and rk[b] and rk[a] * rk[b] * vab < 0:
                count += 1
        for k in range(a + 1, b):
            if ra[k] and rows[k][b] and ra[k] * rows[k][b] * vab < 0:
                count += 1
        for k in range(b + 1, self.n):
            if ra[k] and rows[b][k] and ra[k] * rows[b][k] * vab < 0:
                count += 1
        return count

    def write(self, i, j, new):
        rows = self.rows
        a, b = (i, j) if i < j else (j, i)
        if rows[a][b] != rows[b][a]:
            self.bad_pairs -= 1
        if i < j:
            self.bad_tris -= self._tri_count_through(a, b)
        rows[i][j] = new
        if rows[a][b] != rows[b][a]:
            self.bad_pairs += 1
        if i < j:
            self.bad_tris += self._tri_count_through(a, b)


def _sih_draw(rows, n, cands, params, rng):
    i, j = cands[rng.randrange(len(cands))]
    ks = _common_neighbors(rows, n, i, j)
    if not ks:
        return i, j, SYMMETRY, None, rows[j][i]
    r = rng.random()
    if r < params.p1:
        return i, j, SYMMETRY, None, rows[j][i]
    if r < params.p1 + params.p2:
        k = ks[rng.randrange(len(ks))]
        return i, j, INFLUENCE, k, rows[i][k] * rows[k][j]
    k = ks[rng.randrange(len(ks))]
    return i, j, HOMOPHILY, k, rows[i][k] * rows[j][k]


def sih_step(x, params, rng, step=0):
    rows = _row_lists(x)
    n = x.n
    cands = _candidates(rows, n)
    if not cands:
        raise ValueError("no candidate pair: the appraisal network has no links")
    i, j, mech, k, new = _sih_draw(rows, n, cands, params, rng)
    old = rows[i][j]
    rows[i][j] = new
    labels = x.labels
    event = UpdateEvent(
        step, labels[i], labels[j], mech, None if k is None else labels[k], old, new
    )
    return _freeze(rows, labels), event


def run_sih(x0, params, seed, max_steps=10**6, log=False):
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    rng = stream(seed)
    rows = _row_lists(x0)
    n = x0.n
    labels = x0.labels
    events = [] if log else None
    ledger = _BalanceLedger(rows, n)
    if ledger.balanced():
        return AbsorptionRecord(True, 0, x0, None, () if log else None)
    cands = _candidates(rows, n)
    absorbed = False
    t = 0
    while t < max_steps:
        i, j, mech, k, new = _sih_draw(rows, n, cands, params, rng)
        old = rows[i][j]
        if events is not None:
            events.append(
                UpdateEvent(
                    t, labels[i], labels[j], mech, None if k is None else labels[k], old, new
                )
            )
        t += 1
        if new != old:
            ledger.write(i, j, new)
            if (old == 0) != (new == 0):
                cands = _candidates(rows, n)
            if ledger.balanced():
                absorbed = True
                break
    return AbsorptionRecord(
        absorbed, t, _freeze(rows, labels), None, tuple(events) if events is not None else None
    )


def _sioh_draw(rows, y, n, cands, params, rng):
    i, j = cands[rng.randrange(len(cands))]
    v = rows[i][j]
    if v == 0:
        return i, j, SYMMETRY, None, 0, rows[j][i]
    r = rng.random()
    if r < params.q1:
        return i, j, OPINION_GOSSIP, None, y[i], v * y[j]
    if r < params.q1 + params.q2:
        return i, j, PERSON_OPINION_HOMOPHILY, None, v, y[i] * y[j]
    ks = _common_neighbors(rows, n, i, j)
    sih = params.sih
    if not ks:
        return i, j, SYMMETRY, None, v, rows[j][i]
    r2 = rng.random()
    if r2 < sih.p1:
        return i, j, SYMMETRY, None, v, rows[j][i]
    if r2 < sih.p1 + sih.p2:
        k = ks[rng.randrange(len(ks))]
        return i, j, INFLUENCE, k, v, rows[i][k] * rows[k][j]
    k = ks[rng.randrange(len(ks))]
    return i, j, HOMOPHILY, k, v, rows[i][k] * rows[j][k]


class _AlignmentLedger:
    def __init__(self, rows, y, n):
        self.rows = rows
        self.y = y
        self.n = n
        self.bad_pairs = 0
        self.bad_links = 0
        for a in range(n):
            ra = rows[a]
            for b in range(a + 1, n):
                if ra[b] != rows[b][a]:
                    self.bad_pairs += 1
                if ra[b] and ra[b] != y[a] * y[b]:
                    self.bad_links += 1

    def aligned(self):
        return self.bad_pairs == 0 and self.bad_links == 0

    def _link_bad(self, a, b):
        v = self.rows[a][b]
        return 1 if v and v != self.y[a] * self.y[b] else 0

    def write_x(self, i, j, new):
        rows = self.rows
        a, b = (i, j) if i < j else (j, i)
        if rows[a][b] != rows[b][a]:
            self.bad_pairs -= 1
        if i < j:
            self.bad_links -= self._link_bad(a, b)
        rows[i][j] = new
        if rows[a][b] != rows[b][a]:
            self.bad_pairs += 1
        if i < j:
            self.bad_links += self._link_bad(a, b)

    def write_y(self, i, new):
        for a in range(self.n):
            if a != i:
                self.bad_links -= self._link_bad(min(a, i), max(a, i))
        self.y[i] = new
        for a in range(self.n):
            if a != i:
                self.bad_links += self._link_bad(min(a, i), max(a, i))


def sioh_step(state, params, rng, step=0):
    rows = _row_lists(state.x)
    y = list(state.y)
    n = state.x.n
    cands = _candidates(rows, n)
    if not cands:
        raise ValueError("no candidate pair: the appraisal network has no links")
    i, j, mech, k, old, new = _sioh_draw(rows, y, n, cands, params, rng)
    if mech == OPINION_GOSSIP:
        y[i] = new
    else:
        rows[i][j] = new
    labels = state.x.labels
    event = UpdateEvent(
        step, labels[i], labels[j], mech, None if k is None else labels[k], old, new
    )
    return SiohState(_freeze(rows, labels), tuple(y)), event


def run_sioh(state0, params, seed, max_steps=10**6, log=False):
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    rng = stream(seed)
    rows = _row_lists(state0.x)
    y = list(state0.y)
    n = state0.x.n
    labels = state0.x.labels
    events = [] if log else None
    ledger = _AlignmentLedger(rows, y, n)
    if ledger.aligned():
        return AbsorptionRecord(True, 0, state0.x, state0.y, () if log else None)
    cands = _candidates(rows, n)
    absorbed = False
    t = 0
    while t < max_steps:
        i, j, mech, k, old, new = _sioh_draw(rows, y, n, cands, params, rng)
        if events is not None:
            events.append(
                UpdateEvent(
                    t, labels[i], labels[j], mech, None if k is None else labels[k], old, new
                )
            )
        t += 1
        if new != old:
            if mech == OPINION_GOSSIP:
                ledger.write_y(i, new)
            else:
                ledger.write_x(i, j, new)
                if (old == 0) != (new == 0):
                    cands = _candidates(rows, n)
            if ledger.aligned():
                absorbed = True
                break
    return AbsorptionRecord(
        absorbed, t, _freeze(rows, labels), tuple(y), tuple(events) if events is not None else None
    )


# The dense constructive engine the mask walks replaced: it rescans every
# ordered pair before each fix, and checks each update on the dense rows.


def _require_legal(rows, y, i, j, mechanism, k, new) -> None:
    # Re-validate a constructed update against the step preconditions.  The
    # opinion mechanisms exist only when the opinions ``y`` are given, and
    # SIOH answers a zero X_ij with symmetry alone.
    if not (rows[i][j] or rows[j][i]):
        raise RuntimeError("illegal update: pair carries no link")
    if y is not None and not rows[i][j] and mechanism != SYMMETRY:
        raise RuntimeError(f"illegal update: {mechanism} on a zero entry")
    if mechanism == SYMMETRY:
        expected = rows[j][i]
    elif mechanism in (INFLUENCE, HOMOPHILY):
        if k is None or k in (i, j) or not (rows[i][k] and rows[j][k]):
            raise RuntimeError("illegal update: invalid common neighbor")
        expected = rows[i][k] * (rows[k][j] if mechanism == INFLUENCE else rows[j][k])
    elif mechanism in (OPINION_GOSSIP, PERSON_OPINION_HOMOPHILY) and y is not None:
        expected = rows[i][j] * y[j] if mechanism == OPINION_GOSSIP else y[i] * y[j]
    else:
        raise RuntimeError(f"illegal update: no mechanism {mechanism!r} in this process")
    if new != expected:
        raise RuntimeError("illegal update: value does not match mechanism")


def _constructive(x0, y0, next_fix) -> AbsorptionRecord:
    """The body of both constructive sequences (``y0`` None for SIH).

    Phase 1 copies the nonzero side of every half-directed pair (symmetry);
    fixes never create new half pairs, so one sweep suffices.  Phase 2
    applies, until none is left, the minus side of the first (-1, +1) pair
    by symmetry, or else ``next_fix(rows, y, n)``: an update
    ``(i, j, mechanism, k, new)`` or None.  Every update is re-validated
    against the step preconditions before it is recorded and written, and
    the end state must pass the process's definition-literal equilibrium check.
    """
    rows = _row_lists(x0)
    y = None if y0 is None else list(y0)
    n, labels = x0.n, x0.labels
    events: list[UpdateEvent] = []

    def apply(i: int, j: int, mech: str, k: Optional[int], new: int) -> None:
        _require_legal(rows, y, i, j, mech, k, new)
        gossip = mech == OPINION_GOSSIP
        events.append(
            UpdateEvent(
                len(events), labels[i], labels[j], mech, None if k is None else labels[k],
                y[i] if gossip else rows[i][j], new,
            )
        )
        if gossip:
            y[i] = new
        else:
            rows[i][j] = new

    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] == 0 and rows[j][i] != 0:
                apply(i, j, SYMMETRY, None, rows[j][i])

    while True:
        fix = next(
            (
                (i, j, SYMMETRY, None, 1)
                for i in range(n)
                for j in range(n)
                if i != j and rows[i][j] == -1 and rows[j][i] == 1
            ),
            None,
        ) or next_fix(rows, y, n)
        if fix is None:
            break
        apply(*fix)

    final_x = _freeze(rows, labels)
    final_y = None if y is None else tuple(y)
    if not _equilibrium(final_x, final_y):
        ended = "unbalanced" if y is None else "unaligned"
        raise RuntimeError(f"internal error: constructive sequence ended {ended}")
    return AbsorptionRecord(True, len(events), final_x, final_y, tuple(events))


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


def _sih_fix(rows, y, n):
    # On a sign-symmetric matrix: one direction of a negative pair whose
    # common neighbor has agreeing pair signs, flipped by homophily.
    return next(
        (
            (i, j, HOMOPHILY, k, 1)
            for i in range(n)
            for j in range(i + 1, n)
            if rows[i][j] == -1 and rows[j][i] == -1
            for k in range(n)
            if k != i and k != j and rows[i][k] * rows[j][k] == 1
        ),
        None,
    )


def constructive_sioh_sequence(state0: SiohState) -> AbsorptionRecord:
    """Deterministic legal-update sequence reaching an SIOH equilibrium.

    After symmetrizing the zero pattern, repeatedly fix, in order: a
    (-1, +1) pair by symmetry; a negative link between agreeing opinions by
    person-opinion homophily; a positive link from a -1 opinion toward a +1
    opinion by opinion gossip.  Each fix lowers the combined count of
    negative entries and negative opinions by exactly one.
    """
    return _constructive(state0.x, state0.y, _sioh_fix)


def _sioh_fix(rows, y, n):
    # A negative link between agreeing opinions, by person-opinion
    # homophily; else a positive link from a -1 toward a +1 opinion, by gossip.
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return next(
        (
            (i, j, PERSON_OPINION_HOMOPHILY, None, 1)
            for i, j in pairs
            if rows[i][j] == -1 and y[i] * y[j] == 1
        ),
        None,
    ) or next(
        (
            (i, j, OPINION_GOSSIP, None, 1)
            for i, j in pairs
            if rows[i][j] == 1 and y[i] == -1 and y[j] == 1
        ),
        None,
    )
