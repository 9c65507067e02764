"""Monte-Carlo studies of the SIH dynamics on signed Erdos-Renyi graphs.

Each trial generates a bilateral signed random graph, runs SIH to
absorption, and records conflict/density/triad metrics.  Trials derive
their streams from (master seed, trial index), so batches reproduce
byte-identically regardless of worker count or scheduling.

:func:`run_study` is the one study entry point.  A generator parameter
passed as ``None`` (``p`` or ``p_neg``, never both) is drawn per trial,
and that choice picks the regressor of the final conflict ratio.
:data:`STUDIES` names the paper's three studies by the parameter each
draws: ``c0`` draws ``p_neg``, ``density`` draws ``p``, ``triads`` fixes
both.
"""

from __future__ import annotations

import csv
from collections import namedtuple
from functools import reduce
from operator import add, xor
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .dynamics import DEFAULT_MAX_STEPS, SihParams, run_sih
from .graphs import (
    AppraisalMatrix,
    _check_node_count,
    _checked_replace,
    _default_labels,
    _linked_pairs,
    _positions,
)
from .rng import derive_seed, stream

# Sub-stream tags within one trial.
_TAG_PARAM = 0
_TAG_GRAPH = 1
_TAG_RUN = 2


class ErParams(namedtuple("ErParams", "n p p_neg")):
    """Signed bilateral Erdos-Renyi parameters.

    Each unordered pair gets both directed links with probability ``p``;
    each existing directed link is then flipped negative with probability
    ``p_neg``, independently per direction.
    """

    __slots__ = ()
    _replace = __replace__ = _checked_replace

    def __new__(cls, n: int, p: float, p_neg: float):
        if n < 2:
            raise ValueError("n must be at least 2")
        _check_node_count(n)
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if not 0.0 <= p_neg <= 1.0:
            raise ValueError("p_neg must lie in [0, 1]")
        return super().__new__(cls, n, p, p_neg)


class TrialRecord(
    namedtuple("TrialRecord", "trial_index seed er c0 c_inf rho_link n_triad steps absorbed")
):
    """One Monte-Carlo trial: generator settings, seed, metrics, outcome.

    ``er`` is the ErParams the trial's graph was drawn with; ``c0`` and
    ``c_inf`` are None when that graph has no links, and ``c_inf`` is None
    also when the run stopped at ``max_steps`` unabsorbed (censored): it
    has no final state.
    """

    __slots__ = ()


class RegressionResult(namedtuple("RegressionResult", "k b r n_points")):
    """Least-squares line and Pearson correlation; None marks undefined."""

    __slots__ = ()


def gen_er_signed(params: ErParams, seed: int) -> AppraisalMatrix:
    """Draw a signed bilateral Erdos-Renyi appraisal matrix.

    Output is always bilateral (both directions created together) but may
    be sign-asymmetric since each direction flips independently.
    """
    rng = stream(seed)
    n = params.n
    out = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < params.p:
                out[i] |= 1 << j
                out[j] |= 1 << i
    # One draw per link, row by row and column by column, as a dense scan makes them.
    minus = [0] * n
    for i in range(n):
        for j in _positions(out[i]):
            if rng.random() < params.p_neg:
                minus[i] |= 1 << j
    plus = tuple(map(xor, out, minus))
    return AppraisalMatrix._make(_default_labels(n), (plus, tuple(minus)))


def conflict_ratio(x: AppraisalMatrix) -> Optional[float]:
    """Fraction of negative entries among nonzero ones; None when linkless."""
    nonzero = x.nonzero_count()
    if nonzero == 0:
        return None
    return x.negative_count() / nonzero


def link_density(x: AppraisalMatrix) -> Optional[float]:
    """Nonzero entries over the n(n-1) possible directed links; None below two nodes."""
    if x.n < 2:
        return None
    return x.nonzero_count() / (x.n * (x.n - 1))


def count_triads(x: AppraisalMatrix) -> int:
    """Triangles whose three pairs are all bilateral in ``x``.

    Counted from each node's bilateral link mask, the intersection of the
    matrix's shared outgoing and incoming masks: every bilateral pair
    ``{a, b}``, ``a < b``, adds the popcount of ``a``'s and ``b``'s common
    neighbours, which counts each triangle once per side.  No triangle is
    listed, and the cost grows with links rather than with n^3.
    """
    out, into = x._masks
    adj = [o & i for o, i in zip(out, into)]
    return sum((adj[a] & adj[b]).bit_count() for a, b in _linked_pairs(adj)) // 3


def _sum(values: Iterable[float]) -> float:
    """Plain left-to-right float sum, the same on every Python version.

    From Python 3.12 the builtin ``sum`` compensates float rounding, which
    changes the last digits of a regression and so the study summaries.
    """
    return reduce(add, values, 0)


def linear_regression(xs: Sequence[float], ys: Sequence[float]) -> RegressionResult:
    """Ordinary least squares of y on x plus the Pearson coefficient.

    With zero x-variance the slope and r are undefined (None) and the
    intercept is the y mean; with zero y-variance only r is undefined.
    No correlation is ever fabricated for degenerate data.
    """
    if len(xs) != len(ys):
        raise ValueError("x and y lists must have equal length")
    m = len(xs)
    if m < 2:
        raise ValueError("regression needs at least two points")
    mean_x = _sum(xs) / m
    mean_y = _sum(ys) / m
    sxx = _sum((v - mean_x) ** 2 for v in xs)
    syy = _sum((v - mean_y) ** 2 for v in ys)
    sxy = _sum((a - mean_x) * (b - mean_y) for a, b in zip(xs, ys))
    if sxx == 0.0:
        return RegressionResult(None, mean_y, None, m)
    k = sxy / sxx
    b = mean_y - k * mean_x
    r = None if syy == 0.0 else sxy / (sxx * syy) ** 0.5
    return RegressionResult(k, b, r, m)


# ---------------------------------------------------------------------------
# Study batches.
# ---------------------------------------------------------------------------

# Which generator parameter each study draws per trial; None fixes both.
STUDIES = {"c0": "p_neg", "density": "p", "triads": None}


def _run_trial(args: tuple) -> TrialRecord:
    (trial_index, master_seed, n, p, p_neg, params, max_steps) = args
    trial_seed = derive_seed(master_seed, trial_index)
    # The varying parameter (None) is drawn uniformly on [0, 1], p first, from
    # one stream that a trial drawing neither does not build.
    if p is None or p_neg is None:
        draw = stream(trial_seed, _TAG_PARAM)
        if p is None:
            p = draw.random()
        if p_neg is None:
            p_neg = draw.random()
    er = ErParams(n, p, p_neg)
    x0 = gen_er_signed(er, derive_seed(trial_seed, _TAG_GRAPH))
    record = run_sih(x0, params, derive_seed(trial_seed, _TAG_RUN), max_steps)
    return TrialRecord(
        trial_index=trial_index,
        seed=trial_seed,
        er=er,
        c0=conflict_ratio(x0),
        c_inf=conflict_ratio(record.final_x) if record.absorbed else None,
        rho_link=link_density(x0),
        n_triad=count_triads(x0),
        steps=record.steps,
        absorbed=record.absorbed,
    )


def run_study(
    n: int,
    p: Optional[float],
    p_neg: Optional[float],
    trials: int,
    master_seed: int,
    sih_params: Optional[SihParams] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    workers: int = 1,
) -> tuple[list[TrialRecord], RegressionResult]:
    """Run a batch of SIH trials and regress final conflicts on one initial metric.

    ``p=None`` or ``p_neg=None`` draws that parameter uniformly on [0, 1]
    per trial; at most one may be drawn.  The regressor follows from it:
    the initial conflict ratio when ``p_neg`` is drawn, the link density
    when ``p`` is drawn, the triangle count when both are fixed.  Trials
    whose graph came out linkless, and censored trials, which stopped at
    ``max_steps`` unabsorbed, have no ``c_inf``: they are kept in the
    records, with an empty CSV cell, but left out of the regression.
    """
    if p is None and p_neg is None:
        raise ValueError("a study draws at most one of p and p_neg per trial")
    if trials < 2:
        raise ValueError("a study needs at least two trials")
    params = sih_params or SihParams()
    jobs = [(t, master_seed, n, p, p_neg, params, max_steps) for t in range(trials)]
    if workers <= 1:
        records = [_run_trial(job) for job in jobs]
    else:
        # Imported only here: it loads multiprocessing, about 2 MB that a
        # one-worker study and every other command would carry for nothing.
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, trials // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_trial, jobs, chunksize=chunk))
    xs, ys = [], []
    for r in records:
        x = r.c0 if p_neg is None else r.rho_link if p is None else float(r.n_triad)
        if x is not None and r.c_inf is not None:
            xs.append(x)
            ys.append(r.c_inf)
    if len(xs) < 2:
        return records, RegressionResult(None, None, None, len(xs))
    return records, linear_regression(xs, ys)


# ---------------------------------------------------------------------------
# Export.
# ---------------------------------------------------------------------------

CSV_HEADER = [
    "trial",
    "seed",
    "n",
    "p",
    "p_neg",
    "c0",
    "c_inf",
    "rho_link",
    "n_triad",
    "steps",
    "absorbed",
]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export_csv(records: Sequence[TrialRecord], path: Union[str, Path, int]) -> None:
    """Write trials ordered by index; floats keep full repr precision.

    ``path`` is a path or an open file descriptor, as ``open()`` takes; a
    descriptor is closed once the file is written.
    """
    ordered = sorted(records, key=lambda r: r.trial_index)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for r in ordered:
            writer.writerow(
                [
                    _cell(r.trial_index),
                    _cell(r.seed),
                    _cell(r.er.n),
                    _cell(float(r.er.p)),
                    _cell(float(r.er.p_neg)),
                    _cell(r.c0),
                    _cell(r.c_inf),
                    _cell(r.rho_link),
                    _cell(r.n_triad),
                    _cell(r.steps),
                    _cell(r.absorbed),
                ]
            )


def study_summary(
    study: str,
    records: Sequence[TrialRecord],
    regression: RegressionResult,
    fixed: dict,
) -> dict:
    """Compact JSON-ready roll-up of one study batch."""
    total = len(records)
    absorbed = sum(1 for r in records if r.absorbed)
    return {
        "study": study,
        **fixed,
        "trials": total,
        "k": regression.k,
        "b": regression.b,
        "r": regression.r,
        "regression_points": regression.n_points,
        "absorbed_fraction": absorbed / total if total else None,
        "mean_steps": sum(r.steps for r in records) / total if total else None,
    }
