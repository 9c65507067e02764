"""The bitset SIH/SIOH kernel against the frozen list-scanning engines.

``reference_dynamics`` holds the engines the kernel replaced.  Outputs must
match exactly: absorption flag, step count, final state and every event,
which pins the RNG draw order (pair, mechanism, neighbor).  A run whose
``log`` is a callable must hand it the events the reference collects with
``log=True``, in order, and return no events of its own; a writable
``log`` must be written exactly those events' JSON lines, in whole-line
blocks of at most ``_BLOCK`` lines, also when the run is cut at a block
edge, absorbs mid-block or is stopped by an exception; a failed write is
not retried, and the text tables assemble ``json.dumps`` of every kind of
event.  The ledger test recounts the kernel's incremental violation counts
and bitset views from the dense rows after every step.  The kernel inlines
``randrange``'s loop on an exact ``random.Random`` and asks any other rng
for ``randrange``; the last tests pin that loop against ``randrange``, the
fallback on a subclass with its own integer stream, a run whose links all
vanish, and an influence update that erases a link whose reverse stays.
"""

import io
import itertools
import json
import random

import pytest

import reference_dynamics as ref
from balance_lab.dynamics import (
    _BLOCK,
    _TAILS,
    HOMOPHILY,
    INFLUENCE,
    MECHANISMS,
    SihParams,
    SiohParams,
    SiohState,
    UpdateEvent,
    _Kernel,
    _join_lines,
    _line_tables,
    run_sih,
    run_sioh,
    sih_step,
    sioh_step,
)
from balance_lab.experiments import ErParams, gen_er_signed
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
        got._replace(events=tuple(streamed)),
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
        assert record._replace(events=collected.events) == collected, case
        assert sink.getvalue() == "".join(e.to_json_line() for e in collected.events), case
        with_k += any(e.k is not None for e in collected.events)
        without_k += any(e.k is None for e in collected.events)
        absorbed_at_start += collected.steps == 0 and sink.getvalue() == ""
    assert with_k > 10 and without_k > 10 and absorbed_at_start > 3


class WriteRecorder:
    """A text stream that keeps each ``write`` call's text."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return len(text)


def gapped_start(engine, n, p, seed):
    """An ER input on nodes 2..n without the multiples of 5, SIH or SIOH."""
    keep = [v for v in range(2, n + 1) if v % 5]
    x0 = induced_subgraph(gen_er_signed(ErParams(n, p, 0.4), seed), keep)
    if engine == "sih":
        return x0, SihParams()
    return SiohState(x0, random_opinions(random.Random(seed), len(keep))), SiohParams()


def check_blocked_writes(run, state0, params, seed, max_steps):
    """The record of a run whose stream got exactly its lines, in whole-line blocks."""
    collected = run(state0, params, seed, max_steps, log=True)
    sink = WriteRecorder()
    record = run(state0, params, seed, max_steps, log=sink)
    assert record._replace(events=collected.events) == collected
    assert "".join(sink.calls) == "".join(e.to_json_line() for e in collected.events)
    counts = [text.count("\n") for text in sink.calls]
    assert all(text.endswith("\n") for text in sink.calls)
    assert all(0 < c <= _BLOCK for c in counts)
    # Full blocks, then the rest once the run ends.
    assert counts[:-1] == [_BLOCK] * (len(counts) - 1)
    assert len(counts) == -(-record.steps // _BLOCK)
    return record


@pytest.mark.parametrize("engine", ["sih", "sioh"])
@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
def test_censored_stream_log_writes_whole_blocks(engine, blocks, extra):
    # A run cut after _BLOCK - 1, _BLOCK, _BLOCK + 1 and 2 * _BLOCK + 1 steps.
    max_steps = blocks * _BLOCK + extra
    run = run_sih if engine == "sih" else run_sioh
    state0, params = gapped_start(engine, 14, 0.6, 3)
    record = check_blocked_writes(run, state0, params, 3, max_steps)
    assert not record.absorbed and record.steps == max_steps


@pytest.mark.parametrize("engine", ["sih", "sioh"])
def test_stream_log_of_runs_absorbed_mid_block(engine):
    run = run_sih if engine == "sih" else run_sioh
    rng = random.Random(808)
    first_block = later_block = 0
    for seed in range(60):
        state0, params = gapped_start(engine, rng.randrange(6, 11), rng.uniform(0.4, 0.9), seed)
        record = check_blocked_writes(run, state0, params, seed, 5000)
        if record.absorbed and record.steps % _BLOCK:
            first_block += 0 < record.steps < _BLOCK
            later_block += record.steps > _BLOCK
    assert first_block > 10 and later_block > 5


class FailingDraws(random.Random):
    """Raises on the ``limit``-th call of ``random``, which its ``randrange`` calls too."""

    def __init__(self, seed, limit):
        super().__init__(seed)
        self.left = limit

    def random(self):
        self.left -= 1
        if not self.left:
            raise KeyboardInterrupt
        return super().random()


@pytest.mark.parametrize("engine", ["sih", "sioh"])
@pytest.mark.parametrize("limit", [1, 9, 600, 1500])
def test_run_stopped_by_an_exception_still_writes_its_drawn_lines(engine, limit):
    state0, params = gapped_start(engine, 14, 0.6, 5)
    x0, y0 = (state0, None) if engine == "sih" else (state0.x, state0.y)
    events, sink = [], WriteRecorder()
    for emit, lines in ((events.append, False), (sink.write, True)):
        with pytest.raises(KeyboardInterrupt):
            _Kernel(x0, y0).run(params, FailingDraws(5, limit), 10**5, emit, 0, lines)
    assert bool(events) == (limit > 1) and (limit < 1500 or len(events) > _BLOCK)
    assert "".join(sink.calls) == "".join(e.to_json_line() for e in events)
    assert all(0 < text.count("\n") <= _BLOCK for text in sink.calls)


@pytest.mark.parametrize("failing_call", [1, 2])
def test_failed_write_is_not_retried(failing_call):
    class FullDisk(WriteRecorder):
        def write(self, text):
            super().write(text)
            if len(self.calls) == failing_call:
                raise OSError("no space left on device")
            return len(text)

    state0, params = gapped_start("sih", 14, 0.6, 3)
    sink = FullDisk()
    with pytest.raises(OSError, match="no space"):
        run_sih(state0, params, 3, 5 * _BLOCK, log=sink)
    assert len(sink.calls) == failing_call
    assert all(text.count("\n") == _BLOCK for text in sink.calls)


def test_line_tables_assemble_json_dumps_of_every_event():
    # The kernel's pieces, one line at a time and as one block, against the
    # serialization the line format promises, for every mechanism and every
    # new and old value, with multi-digit labels and steps.
    labels = (2, 10, 123, 4096, 10**6 + 7)
    heads, texts, ks = _line_tables(labels)
    triples = [(0, 4, None), (3, 1, None), (4, 2, 0), (1, 0, 3)]
    pieces, events = [], []
    for mechanism in MECHANISMS:
        needs_k = mechanism in (INFLUENCE, HOMOPHILY)
        for new, old in itertools.product((-1, 0, 1), repeat=2):
            for i, j, k in triples:
                if needs_k == (k is None):
                    continue
                step = 10**6 - 3 + len(events)
                events.append(UpdateEvent(
                    step, labels[i], labels[j], mechanism, None if k is None else labels[k], old, new
                ))
                event_pieces = [heads[i], texts[j] if k is None else texts[j] + ks[k],
                                _TAILS[mechanism][new][old]]
                for first in (step, 10**9 + 1):
                    want = json.dumps(events[-1]._replace(step=first).to_dict(), sort_keys=True) + "\n"
                    assert _join_lines(event_pieces, first) == want
                pieces += event_pieces
    assert len(events) == 5 * 9 * 2
    assert _join_lines(pieces, 10**6 - 3) == "".join(
        json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in events
    )


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
