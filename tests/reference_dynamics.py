"""Frozen list-scanning SIH/SIOH engines, kept as a differential oracle.

This is the simulation code the bitset kernel in ``balance_lab.dynamics``
replaced: common neighbors come from a row scan, the violation ledgers
rescan O(n) entries per write, and the step functions rebuild everything
per call.  It must not change.  ``tests/test_dynamics_kernel.py`` asserts
that the kernel gives the same records and events on random inputs.
"""

from __future__ import annotations

from balance_lab.dynamics import (
    HOMOPHILY,
    INFLUENCE,
    OPINION_GOSSIP,
    PERSON_OPINION_HOMOPHILY,
    SYMMETRY,
    AbsorptionRecord,
    SiohState,
    UpdateEvent,
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
