"""Count pass: replay each traced SIH/SIOH run with its event log.

Runs outside any timing, after the tracer is removed.  Each captured
``run_sih``/``run_sioh`` call is repeated with ``log=True``; the replay must
give the same absorption flag, step count and final state.  The event logs
then give exact, repeatable counts of what the dynamics did.
"""

from __future__ import annotations

import inspect
import math

MECHANISMS = ("symmetry", "influence", "homophily", "opinion-gossip", "person-opinion-homophily")
GOSSIP = "opinion-gossip"
SIZES = (8, 16, 24, 32)


def nearest_rank(sorted_values: list, q: float):
    """The q-quantile by the nearest-rank rule; None for an empty list."""
    if not sorted_values:
        return None
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def count_pass(captures: list) -> tuple:
    """Return (counts, per-n steps table, problems) for the captured runs."""
    from balance_lab import dynamics

    draws = dict.fromkeys(MECHANISMS, 0)
    changes = dict.fromkeys(MECHANISMS, 0)
    rebuilds = 0
    steps_by_n: dict = {}
    censored_by_n: dict = {}
    problems = []
    for number, capture in enumerate(captures):
        engine = capture.name.rsplit(".", 1)[1]
        run = getattr(dynamics, engine)
        bound = inspect.signature(run).bind(*capture.args, **capture.kwargs)
        bound.arguments["log"] = True
        replay = run(*bound.args, **bound.kwargs)
        first = capture.result
        if (replay.absorbed, replay.steps, replay.final_x, replay.final_y) != (
            first.absorbed,
            first.steps,
            first.final_x,
            first.final_y,
        ) or len(replay.events) != replay.steps:
            problems.append(f"run {number} ({engine}): replay with log=True differs")
            continue
        if engine == "run_sih":
            equilibrium = dynamics.is_sih_equilibrium(first.final_x)
        else:
            equilibrium = dynamics.is_sioh_equilibrium(dynamics.SiohState(first.final_x, first.final_y))
        if equilibrium != first.absorbed:
            problems.append(f"run {number} ({engine}): absorbed={first.absorbed}, equilibrium={equilibrium}")
        for event in replay.events:
            draws[event.mechanism] += 1
            if event.old != event.new:
                changes[event.mechanism] += 1
                if event.mechanism != GOSSIP and (event.old == 0) != (event.new == 0):
                    rebuilds += 1
        n = first.final_x.n
        steps_by_n.setdefault(n, []).append(first.steps)
        censored_by_n[n] = censored_by_n.get(n, 0) + (not first.absorbed)
    total_draws, total_changes = sum(draws.values()), sum(changes.values())
    counts = {
        "dynamics.runs": sum(len(v) for v in steps_by_n.values()),
        "dynamics.draws": total_draws,
        "dynamics.changes": total_changes,
        "dynamics.useful_ratio": total_changes / total_draws if total_draws else 0.0,
        "dynamics.rebuilds": rebuilds,
    }
    for mechanism in MECHANISMS:
        counts[f"dynamics.draws.{mechanism}"] = draws[mechanism]
        counts[f"dynamics.changes.{mechanism}"] = changes[mechanism]
    table = {}
    for n in sorted(set(SIZES) | set(steps_by_n)):
        steps = sorted(steps_by_n.get(n, []))
        table[n] = {
            "runs": len(steps),
            "steps_p50": nearest_rank(steps, 0.50),
            "steps_p90": nearest_rank(steps, 0.90),
            "steps_p99": nearest_rank(steps, 0.99),
            "steps_max": steps[-1] if steps else None,
            "censored_runs": censored_by_n.get(n, 0),
        }
    return counts, table, problems
