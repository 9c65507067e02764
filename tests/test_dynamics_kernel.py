"""The bitset SIH/SIOH kernel against the frozen list-scanning engines.

``reference_dynamics`` holds the engines the kernel replaced.  Outputs must
match exactly: absorption flag, step count, final state and every event,
which pins the RNG draw order (pair, mechanism, neighbor).  A run whose
``log`` is a callable must hand it the events the reference collects with
``log=True``, in order, and return no events of its own; a writable
``log`` must be written exactly those events' JSON lines.  The ledger test
recounts the kernel's incremental violation counts and bitset views from
the dense rows after every step.  The kernel inlines ``randrange``'s loop
on an exact ``random.Random`` and asks any other rng for ``randrange``;
the last tests pin that loop against ``randrange``, the fallback on a
subclass with its own integer stream, a run whose links all vanish, and an
influence update that erases a link whose reverse stays.
"""

import dataclasses
import io
import random

import pytest

import reference_dynamics as ref
from balance_lab.dynamics import (
    INFLUENCE,
    SihParams,
    SiohParams,
    SiohState,
    UpdateEvent,
    _Kernel,
    run_sih,
    run_sioh,
    sih_step,
    sioh_step,
)
from balance_lab.graphs import AppraisalMatrix, induced_subgraph
from balance_lab.rng import stream

from conftest import random_matrix

SIH_WEIGHTS = (SihParams(), SihParams(0.2, 0.3, 0.5), SihParams(0.7, 0.2, 0.1), SihParams(0.05, 0.05, 0.9))
SIOH_WEIGHTS = (
    SiohParams(),
    SiohParams(0.5, 0.3, 0.2, SIH_WEIGHTS[1]),
    SiohParams(0.1, 0.1, 0.8, SIH_WEIGHTS[3]),
)


def random_input(rng, n):
    """Arbitrary matrix with half pairs; about a third of the cases zero some rows."""
    rows = [list(r) for r in random_matrix(rng, n, p_nonzero=rng.random()).rows]
    if rng.random() < 0.35:
        for a in rng.sample(range(n), rng.randrange(1, n + 1)):
            rows[a] = [0] * n
    return AppraisalMatrix.from_rows(rows)


def random_opinions(rng, n):
    return tuple(rng.choice((-1, 1)) for _ in range(n))


STREAM = "stream"  # log mode: hand each event to a callable


def cases(seed, count):
    rng = random.Random(seed)
    for case in range(count):
        n = rng.randrange(2, 11)
        x0 = random_input(rng, n)
        max_steps = rng.choice((1, 2, 7, 60, 20_000))
        u = rng.random()
        yield rng, case, x0, max_steps, False if u < 1 / 3 else True if u < 2 / 3 else STREAM


def run_both(run, run_ref, state0, params, case, max_steps, log):
    """(kernel record, reference record); a streamed run gets its events back in the record."""
    if log != STREAM:
        return run(state0, params, case, max_steps, log), run_ref(state0, params, case, max_steps, log)
    streamed = []
    got = run(state0, params, case, max_steps, streamed.append)
    assert got.events is None
    return (
        dataclasses.replace(got, events=tuple(streamed)),
        run_ref(state0, params, case, max_steps, True),
    )


def test_run_sih_matches_reference():
    for rng, case, x0, max_steps, log in cases(101, 250):
        params = rng.choice(SIH_WEIGHTS)
        got, want = run_both(run_sih, ref.run_sih, x0, params, case, max_steps, log)
        assert got == want, (case, x0.rows, params, max_steps, log)


def test_run_sioh_matches_reference():
    for rng, case, x0, max_steps, log in cases(202, 250):
        params = rng.choice(SIOH_WEIGHTS)
        state0 = SiohState(x0, random_opinions(rng, x0.n))
        got, want = run_both(run_sioh, ref.run_sioh, state0, params, case, max_steps, log)
        assert got == want, (case, x0.rows, state0.y, params, max_steps, log)


@pytest.mark.parametrize("engine", ["sih", "sioh"])
def test_stream_log_writes_the_lines_of_the_collected_events(engine):
    # Node 1 is never kept, so the labels are never 1..m and a line that
    # printed positions instead of labels would differ.
    rng = random.Random(606 if engine == "sih" else 707)
    run = run_sih if engine == "sih" else run_sioh
    with_k = without_k = absorbed_at_start = 0
    for case in range(80):
        n = rng.randrange(3, 12)
        keep = sorted(rng.sample(range(2, n + 1), rng.randrange(2, n)))
        x0 = induced_subgraph(random_input(rng, n), keep)
        if rng.random() < 0.1:  # linkless, so absorbed at the start: nothing is written
            x0 = AppraisalMatrix(tuple((0,) * len(keep) for _ in keep), x0.labels)
        state0 = x0 if engine == "sih" else SiohState(x0, random_opinions(rng, x0.n))
        params = rng.choice(SIH_WEIGHTS if engine == "sih" else SIOH_WEIGHTS)
        max_steps = rng.choice((1, 7, 60, 2000))
        collected = run(state0, params, case, max_steps, log=True)
        sink = io.StringIO()
        record = run(state0, params, case, max_steps, log=sink)
        assert record.events is None
        assert dataclasses.replace(record, events=collected.events) == collected, case
        assert sink.getvalue() == "".join(e.to_json_line() for e in collected.events), case
        with_k += any(e.k is not None for e in collected.events)
        without_k += any(e.k is None for e in collected.events)
        absorbed_at_start += collected.steps == 0 and sink.getvalue() == ""
    assert with_k > 10 and without_k > 10 and absorbed_at_start > 3


def test_step_functions_match_reference():
    rng = random.Random(303)
    for case in range(120):
        n = rng.randrange(2, 11)
        x0 = random_input(rng, n)
        y0 = random_opinions(rng, n)
        sih, sioh = rng.choice(SIH_WEIGHTS), rng.choice(SIOH_WEIGHTS)
        if not ref._candidates(x0.rows, n):
            for step, step_ref in ((sih_step, ref.sih_step), (sioh_step, ref.sioh_step)):
                state = x0 if step is sih_step else SiohState(x0, y0)
                params = sih if step is sih_step else sioh
                with pytest.raises(ValueError, match="no candidate"):
                    step(state, params, random.Random(case))
                with pytest.raises(ValueError, match="no candidate"):
                    step_ref(state, params, random.Random(case))
            continue
        x, x_ref = x0, x0
        state, state_ref = SiohState(x0, y0), SiohState(x0, y0)
        draws, draws_ref = random.Random(case), random.Random(case)
        for t in range(25):
            x, event = sih_step(x, sih, draws, step=t + 5)
            x_ref, event_ref = ref.sih_step(x_ref, sih, draws_ref, step=t + 5)
            assert (x, event) == (x_ref, event_ref), (case, t)
            state, event = sioh_step(state, sioh, draws, step=t)
            state_ref, event_ref = ref.sioh_step(state_ref, sioh, draws_ref, step=t)
            assert (state, event) == (state_ref, event_ref), (case, t)
            if not ref._candidates(x.rows, n) or not ref._candidates(state.x.rows, n):
                break


def recount(rows, y):
    """Violation counts and bitset views straight from the definitions."""
    n = len(rows)

    def upper(a, b):
        return rows[min(a, b)][max(a, b)]

    bad_pairs = sum(rows[a][b] != rows[b][a] for a in range(n) for b in range(a + 1, n))
    bad_tris = sum(
        1
        for a in range(n)
        for b in range(a + 1, n)
        for c in range(b + 1, n)
        if upper(a, b) * upper(a, c) * upper(b, c) < 0
    )
    bad_links = None
    if y is not None:
        bad_links = sum(
            1
            for a in range(n)
            for b in range(a + 1, n)
            if upper(a, b) and upper(a, b) != y[a] * y[b]
        )
    views = {
        "nz": [sum(1 << b for b in range(n) if rows[a][b]) for a in range(n)],
        "pos": [sum(1 << b for b in range(n) if b != a and upper(a, b) > 0) for a in range(n)],
        "neg": [sum(1 << b for b in range(n) if b != a and upper(a, b) < 0) for a in range(n)],
        "up": None if y is None else sum(1 << a for a in range(n) if y[a] > 0),
        "cands": ref._candidates(rows, n),
    }
    return bad_pairs, (None if y is not None else bad_tris), bad_links, views


@pytest.mark.parametrize("engine", ["sih", "sioh"])
def test_incremental_ledger_matches_recount_after_every_step(engine):
    rng = random.Random(404 if engine == "sih" else 505)
    steps_checked = 0
    for case in range(80):
        n = rng.randrange(2, 11)
        x0 = random_input(rng, n)
        y = random_opinions(rng, n) if engine == "sioh" else None
        params = rng.choice(SIOH_WEIGHTS if y is not None else SIH_WEIGHTS)
        kernel = _Kernel(x0, y)
        rows, y = kernel.rows, kernel.y
        draws = random.Random(case)
        for _ in range(300):
            bad_pairs, bad_tris, bad_links, views = recount(rows, y)
            assert (kernel.bad_pairs, kernel.bad_tris, kernel.bad_links) == (
                bad_pairs,
                bad_tris,
                bad_links,
            ), (case, rows, y)
            for name, value in views.items():
                assert getattr(kernel, name) == value, (case, name)
            if kernel.absorbed() or not kernel.cands:
                break
            absorbed, taken = kernel.run(params, draws, 1)
            assert taken == 1 and absorbed == kernel.absorbed()
            steps_checked += 1
    assert steps_checked > 1000


def test_inline_draw_is_cpython_randrange():
    """The kernel's inline integer draw gives randrange(n)'s values, stream for stream.

    On an exact ``random.Random`` the kernel draws ``getrandbits(n.bit_length())``
    until the value is below n instead of calling ``randrange(n)``.
    """
    for seed in range(50):
        lib, inline = random.Random(seed), random.Random(seed)
        for n in range(1, 301):
            width = n.bit_length()
            d = inline.getrandbits(width)
            while d >= n:
                d = inline.getrandbits(width)
            assert lib.randrange(n) == d, (
                f"seed {seed}, n {n}: this Python's randrange(n) is no longer "
                "getrandbits(n.bit_length()) redrawn until below n, so the kernel's "
                "inline draw changes every trajectory; see README, 'Simulation kernel'"
            )


class RandomOnly(random.Random):
    """Overrides only ``random()``, so ``randrange`` draws through it, not ``getrandbits``."""

    def random(self):
        return super().random()


def test_subclassed_rng_keeps_its_randrange_stream():
    # The precondition: the subclass's integer stream is not the inline loop's,
    # so a kernel that inlined the draw for it would leave the reference.
    sub, exact = RandomOnly(7), random.Random(7)
    assert [sub.randrange(56) for _ in range(20)] != [exact.randrange(56) for _ in range(20)]
    rng = random.Random(606)
    steps = 0
    for case in range(60):
        n = rng.randrange(3, 11)
        x0 = random_input(rng, n)
        if not ref._candidates(x0.rows, n):
            continue
        y0 = random_opinions(rng, n)
        sih, sioh = rng.choice(SIH_WEIGHTS), rng.choice(SIOH_WEIGHTS)
        x, x_ref = x0, x0
        state, state_ref = SiohState(x0, y0), SiohState(x0, y0)
        draws, draws_ref = RandomOnly(case), RandomOnly(case)
        for t in range(25):
            x, event = sih_step(x, sih, draws, step=t)
            x_ref, event_ref = ref.sih_step(x_ref, sih, draws_ref, step=t)
            assert (x, event) == (x_ref, event_ref), (case, t)
            state, event = sioh_step(state, sioh, draws, step=t)
            state_ref, event_ref = ref.sioh_step(state_ref, sioh, draws_ref, step=t)
            assert (state, event) == (state_ref, event_ref), (case, t)
            steps += 1
            if not ref._candidates(x.rows, n) or not ref._candidates(state.x.rows, n):
                break
    assert steps > 500


def test_run_whose_links_all_vanish_absorbs():
    # With one one-way link, symmetry on (0, 1) copies X_10 = 0 and leaves no
    # link, so the next draw would read an empty candidate list, where
    # getrandbits(0) == 0 never gets below 0.  The run must stop absorbed first.
    x0 = AppraisalMatrix.from_rows([[0, 1], [0, 0]])
    linkless = 0
    for seed in range(200):
        got = run_sih(x0, SihParams(), seed, log=True)
        assert got.absorbed, seed
        assert got == ref.run_sih(x0, SihParams(), seed, log=True), seed
        linkless += not any(any(r) for r in got.final_x.rows)
    assert 50 < linkless < 150


def test_influence_zero_keeps_the_pair_while_the_reverse_is_linked():
    # Step 0 is influence on (3, 1) via 2: X_32 * X_21 = -1 * 0 erases X_31,
    # but X_13 = -1 still links the pair, so both orders stay candidates.
    x0 = AppraisalMatrix(((0, -1, -1, 0), (0, 0, 0, 0), (-1, -1, 0, -1), (1, 0, -1, 0)))
    kernel = _Kernel(x0)
    events = []
    kernel.run(SihParams(), stream(0), 1, events.append)
    assert events == [UpdateEvent(0, 3, 1, INFLUENCE, 2, -1, 0)]
    assert kernel.rows[2][0] == 0 and kernel.rows[0][2] == -1
    assert (2, 0) in kernel.cands and (0, 2) in kernel.cands
    assert kernel.cands == ref._candidates(kernel.rows, 4)
