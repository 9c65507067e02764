"""Command-line front end: analysis, certification, simulation, experiments.

Every subcommand is a thin adapter over the library; no algorithmic logic
lives here.  Exit codes: 0 success or absorbed, 1 usage (including an
output path or a stdout that cannot be opened or written), 2 input parse,
3 guard refusal, 4 max-steps exhaustion.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from itertools import chain, groupby, islice, starmap
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Optional

from . import balance, chordal, dynamics, experiments
from .graphs import (
    NODE_LIMIT,
    AppraisalMatrix,
    EdgeListError,
    format_edge_list,
    is_bilateral,
    is_sign_symmetric,
    read_edge_list,
    skeleton,
)
from .rng import derive_seed, stream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_NOT_ABSORBED = 4

THREADS_ENV = "BALANCE_LAB_THREADS"

# Sub-stream tags for single-run commands.
_TAG_GEN = 101
_TAG_RUN = 102
_TAG_OPINIONS = 103


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems with exit code 2; we want 1."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    pass


def _int_in(low: int, high: Optional[int] = None):
    """argparse type: an integer no smaller than ``low`` and, given ``high``, no larger."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


def _probability(text: str) -> float:
    """argparse type: a float in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


@contextlib.contextmanager
def _writing(path: str):
    """Turn an OSError raised in the block, which writes ``path``, into a usage error."""
    try:
        yield
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


_INFINITY = float("inf")


def _float_text(value: float) -> str:
    # json's spelling of the non-finite floats; every other float is its repr.
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


class _JSONText(str):
    """A value's JSON text, written already at its place in the report."""

    __slots__ = ()


# The JSON text of each scalar type, keyed by exact type: bool is not int here.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
    _JSONText: str.__str__,
}


def _json_texts(values: list, indent: str) -> list[str]:
    """Each of ``values`` as ``json.dumps(v, indent=2, sort_keys=True)`` writes it, at ``indent``.

    Takes dicts with str keys, lists and the scalars of ``_SCALAR_TEXT``;
    anything else raises TypeError.  A ``_JSONText`` is text already
    written for its place in the report, and is copied as is.  Values of
    one type are written together, so the work per item is C-level:
    scalars go through one ``map``, the items of all lists become the next
    level, and dicts with one key set are written column by column into one
    template.  Values of mixed types are written one by one.
    """
    kinds = set(map(type, values))
    if len(kinds) != 1:
        return [
            _SCALAR_TEXT[type(value)](value)
            if type(value) in _SCALAR_TEXT
            else _json_texts([value], indent)[0]
            for value in values
        ]
    kind = kinds.pop()
    scalar = _SCALAR_TEXT.get(kind)
    if scalar is not None:
        return list(map(scalar, values))
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is list:
        items = iter(_json_texts(list(chain.from_iterable(values)), inner))
        texts = []
        # One template per run of lists of one length.
        for length, run in groupby(map(len, values)):
            count = len(list(run))
            if not length:
                texts += ["[]"] * count
                continue
            template = "[\n" + inner + sep.join(["{}"] * length) + "\n" + indent + "]"
            texts += starmap(template.format, islice(zip(*[items] * length), count))
        return texts
    if kind is not dict:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    keys = values[0].keys()
    if not all(map(keys.__eq__, map(dict.keys, values))):
        return [_json_texts([value], indent)[0] for value in values]
    if not keys:
        return ["{}"] * len(values)
    if set(map(type, keys)) != {str}:
        raise TypeError("report keys must be str")
    keys = sorted(keys)
    # "\0" is escaped in every key's JSON text, so it can mark where the values go.
    quoted = "\0".join(map(encode_basestring_ascii, keys)).replace("{", "{{").replace("}", "}}")
    template = "{{\n" + inner + quoted.replace("\0", ": {}" + sep) + ": {}\n" + indent + "}}"
    # The values of one dict form one level; over many dicts, each key's do.
    if len(values) == 1:
        return [template.format(*_json_texts([values[0][key] for key in keys], inner))]
    columns = [_json_texts(list(map(itemgetter(key), values)), inner) for key in keys]
    return list(map(template.format, *columns))


def _emit(payload: dict, args, flag: Optional[str] = None) -> None:
    """Write ``payload`` to stdout, and to the file of ``--flag`` if given, as indented JSON.

    The text is exactly ``json.dumps(payload, indent=2, sort_keys=True)``
    plus a newline.  ``_json_texts`` writes it because the standard library
    encodes indented JSON in pure Python, which took 30% of an ``analyze``
    request; its C encoder serves only compact output.  An ``analyze``
    report's violation list comes in as a ``_JSONText``, written by one
    template per violation kind, since a dict per violation through
    ``_json_texts`` cost four times as much, a fifth or more of an n=64
    request.
    """
    text = _json_texts([payload], "")[0] + "\n"
    out = getattr(args, flag) if flag else None
    if out:
        with _writing(out), open(_target(args, flag), "w", encoding="utf-8") as handle:
            handle.write(text)
    with _writing("stdout"):
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError:
            _discard_stdout()
            raise


def _discard_stdout() -> None:
    """Point stdout's file descriptor, if it has one, at the null device.

    The interpreter flushes stdout again at exit; once a write has failed,
    that flush would fail too and print a second error.  A stdout without a
    descriptor, such as a captured in-process one, is left alone.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError, OSError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
    finally:
        os.close(null)


# open(path, "x") as a bare descriptor, which any writer can wrap.
_NEW_FILE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def _check_outputs(args) -> None:
    """Refuse an output path that cannot be opened for writing, before any work.

    Two flags naming one file are refused before any file is created.  A new
    file is created here, empty, and its descriptor kept in ``args.created``
    for the writer; ``main`` removes it if the command fails before writing
    it.  An existing file is only opened to append, so it is not touched
    until it is written.
    """
    paths = {f: getattr(args, f) for f in ("out", "log", "summary") if getattr(args, f, None) is not None}
    if len(paths) > 1:
        seen: dict[str, str] = {}
        for flag, path in paths.items():
            other = seen.setdefault(os.path.realpath(path), flag)
            if other != flag:
                raise _UsageError(f"--{other} and --{flag} name the same file {path}")
    for flag, path in paths.items():
        with _writing(path):
            try:
                args.created[flag] = os.open(path, _NEW_FILE, 0o666)
            except FileExistsError:
                with open(path, "a", encoding="utf-8"):
                    pass


def _target(args, flag: str):
    """The probe's descriptor for ``--flag``, which the caller must open at once, else the path."""
    fd = args.created.pop(flag, None)
    return getattr(args, flag) if fd is None else fd


def _workers() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        value = int(raw)
    except ValueError:
        raise _UsageError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    cpus = os.cpu_count() or 1
    return max(1, min(value, cpus))


def _weights(args, cls, names: tuple[str, ...], **extra):
    """Build ``cls`` from all of the weight flags ``names`` or from none of them."""
    values = [getattr(args, name) for name in names]
    if all(v is None for v in values):
        return cls(**extra)
    if any(v is None for v in values):
        raise _UsageError(f"provide all of {' '.join('--' + n for n in names)} or none")
    try:
        return cls(*values, **extra)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _refuse(args, names: tuple[str, ...], why: str) -> None:
    """Refuse the first of the flags ``names`` that was given rather than ignore it."""
    for name in names:
        if getattr(args, name) is not None:
            raise _UsageError(f"--{name.replace('_', '-')} {why}")


def _sih_params(args) -> dynamics.SihParams:
    return _weights(args, dynamics.SihParams, ("p1", "p2", "p3"))


def _read_input(path: str) -> AppraisalMatrix:
    """Read ``--input``; a file that cannot be opened, read or decoded is a parse error."""
    try:
        return read_edge_list(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise EdgeListError(str(exc)) from None


def _load_or_generate(args) -> AppraisalMatrix:
    if args.input:
        return _read_input(args.input)
    if args.n is None or args.p is None:
        raise _UsageError("provide --input, or --n and --p to generate a graph")
    params = experiments.ErParams(args.n, args.p, args.p_neg if args.p_neg is not None else 0.0)
    return experiments.gen_er_signed(params, derive_seed(args.seed, _TAG_GEN))


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


# ``json.dumps``'s text of {"kind": kind, "nodes": list(nodes)} as an item of
# the ``analyze`` report's ``violations`` list, one template per kind.
_VIOLATION_TEXT = {
    kind: '{\n      "kind": ' + encode_basestring_ascii(kind) + ',\n      "nodes": [\n        '
    + ",\n        ".join(["%d"] * count) + "\n      ]\n    }"
    for kind, count in ((balance.ASYMMETRIC_PAIR, 2), (balance.NEGATIVE_TRIAD, 3))
}


def _violations_text(violations: list) -> _JSONText:
    # A report holds about 1,300 violations at n=64; one template per item
    # writes them four times faster than a dict each through ``_json_texts``.
    # Node labels are exact ints, so ``%d`` writes their repr.
    if not violations:
        return _JSONText("[]")
    items = ",\n    ".join([_VIOLATION_TEXT[kind] % nodes for kind, nodes in violations])
    return _JSONText("[\n    " + items + "\n  ]")


def cmd_analyze(args) -> int:
    x = _read_input(args.input)
    balanced, violations = balance.is_triad_wise_balanced(x)
    partition = balance.detect_two_faction(x)
    ego = {str(node): ok for node, ok in balance.ego_networks_two_faction(x).items()}
    report = {
        "n": x.n,
        "bilateral": is_bilateral(x),
        "sign_symmetric": is_sign_symmetric(x),
        "triad_wise_balanced": balanced,
        "violations": _violations_text(violations),
        "two_faction": None
        if partition is None
        else {
            "kind": partition.kind,
            "v1": sorted(partition.v1),
            "v2": sorted(partition.v2),
        },
        "ego_two_faction": ego,
        "all_ego_two_faction": all(ego.values()),
        "conflict_ratio": experiments.conflict_ratio(x),
        "link_density": experiments.link_density(x),
        "triad_count": experiments.count_triads(x),
    }
    if args.all_cycles:
        try:
            report["all_cycles_positive"] = balance.all_cycles_positive(x)
        except ValueError as exc:
            sys.stderr.write(f"refused: {exc}\n")
            return EXIT_GUARD
    _emit(report, args, "out")
    return EXIT_OK


def cmd_equivalence(args) -> int:
    x = _read_input(args.input)
    g = skeleton(x)
    try:
        ok, certificates = chordal.check_equivalence_conditions(g, force=args.force)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    report = {
        "n": g.n,
        "edges": sorted(list(e) for e in g.edges),
        "conditions_hold": ok,
        "subgraphs": [
            {
                "nodes": list(c.nodes),
                "certified": c.certified,
                "cycle": list(c.cycle) if c.cycle else None,
                "reason": c.reason,
            }
            for c in certificates
        ],
    }
    if args.verify_exhaustive:
        counterexample = chordal.equivalence_counterexample(g)
        report["exhaustive"] = {
            "equivalence_holds": counterexample is None,
            "counterexample": None
            if counterexample is None
            else sorted(
                [i, j, s] for i, j, s in counterexample.nonzero_links() if i < j
            ),
        }
    _emit(report, args, "out")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.input:
        _refuse(args, ("n", "p", "p_neg"), "applies only without --input")
    if args.engine != "sioh":
        _refuse(args, ("q1", "q2", "q3"), "applies only to --engine sioh")
    if args.engine == "constructive":
        _refuse(args, ("p1", "p2", "p3", "max_steps"), "does not apply to --engine constructive")
        if args.input:
            _refuse(args, ("seed",), "does not apply to --engine constructive with --input")
    if args.seed is None:
        args.seed = 0
    if args.max_steps is None:
        args.max_steps = dynamics.DEFAULT_MAX_STEPS
    x0 = _load_or_generate(args)
    run_seed = derive_seed(args.seed, _TAG_RUN)
    if args.engine == "sih":
        params = _sih_params(args)
    elif args.engine == "sioh":
        draw = stream(args.seed, _TAG_OPINIONS)
        y0 = tuple(1 if draw.random() < 0.5 else -1 for _ in range(x0.n))
        state0 = dynamics.SiohState(x0, y0)
        params = _weights(args, dynamics.SiohParams, ("q1", "q2", "q3"), sih=_sih_params(args))
    # A run writes its events' lines to the log file in blocks as it goes.  A
    # constructive sequence is short (2,716 events on a 4,096-node file with
    # 12,000 links), so its collected events are written once it ends.
    with _writing(args.log), (
        open(_target(args, "log"), "w", encoding="utf-8") if args.log else contextlib.nullcontext(False)
    ) as log:
        if args.engine == "sih":
            record = dynamics.run_sih(x0, params, run_seed, args.max_steps, log=log)
        elif args.engine == "sioh":
            record = dynamics.run_sioh(state0, params, run_seed, args.max_steps, log=log)
        else:
            record = dynamics.constructive_sih_sequence(x0)
            if log:
                log.writelines(map(dynamics.UpdateEvent.to_json_line, record.events))
    payload = {
        "engine": args.engine,
        "absorbed": record.absorbed,
        "steps": record.steps,
        "n": record.final_x.n,
        "final_conflict_ratio": experiments.conflict_ratio(record.final_x),
        "final_opinions": list(record.final_y) if record.final_y else None,
    }
    if args.out:
        with _writing(args.out), open(_target(args, "out"), "w", encoding="utf-8") as handle:
            handle.write(format_edge_list(record.final_x))
    _emit(payload, args)
    return EXIT_OK if record.absorbed else EXIT_NOT_ABSORBED


def cmd_experiment(args) -> int:
    drawn = experiments.STUDIES[args.study]
    fixed = {"n": args.n, "p": args.p, "p_neg": args.p_neg}
    for name in ("p", "p_neg"):
        flag = "--" + name.replace("_", "-")
        if name == drawn and fixed[name] is not None:
            raise _UsageError(f"study {args.study!r} draws {flag} per trial")
        if name != drawn and fixed[name] is None:
            raise _UsageError(f"study {args.study!r} fixes {flag}")
    records, reg = experiments.run_study(
        args.n, args.p, args.p_neg, args.trials, args.seed, _sih_params(args), args.max_steps, _workers()
    )
    with _writing(args.out):
        experiments.export_csv(records, _target(args, "out"))
    _emit(experiments.study_summary(args.study, records, reg, fixed), args, "summary")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _add_prob_flags(parser: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    for name in names:
        parser.add_argument(f"--{name}", type=float, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later one.

    Building it costs about a millisecond, as much as a small request.
    Sharing is safe because ``parse_args`` leaves the parser as it was and
    returns a fresh namespace, the only object the subcommands change.
    """
    parser = _Parser(prog="balance-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    analyze = sub.add_parser("analyze", help="static balance report for one graph")
    analyze.add_argument("--input", required=True, help="edge-list file")
    analyze.add_argument("--all-cycles", action="store_true", help="also check cycle positivity")
    analyze.add_argument("--out", default=None, help="also write the JSON report here")

    equivalence = sub.add_parser(
        "equivalence", help="certify equivalence of the two balance notions"
    )
    equivalence.add_argument("--input", required=True, help="edge-list file (signs ignored)")
    equivalence.add_argument("--verify-exhaustive", action="store_true")
    equivalence.add_argument("--force", action="store_true", help="override size guards")
    equivalence.add_argument("--out", default=None)

    simulate = sub.add_parser("simulate", help="run one trajectory to absorption")
    simulate.add_argument("--input", default=None, help="edge-list file")
    simulate.add_argument("--n", type=_int_in(2, NODE_LIMIT), default=None)
    simulate.add_argument("--p", type=_probability, default=None)
    simulate.add_argument("--p-neg", type=_probability, default=None, dest="p_neg")
    simulate.add_argument("--engine", choices=("sih", "sioh", "constructive"), default="sih")
    # None until cmd_simulate has refused them where they would be ignored.
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--max-steps", type=_int_in(1), default=None)
    simulate.add_argument("--out", default=None, help="write the final state edge list here")
    simulate.add_argument("--log", default=None, help="write one JSON event per line here")
    _add_prob_flags(simulate, ("p1", "p2", "p3", "q1", "q2", "q3"))

    experiment = sub.add_parser("experiment", help="Monte-Carlo study batch")
    experiment.add_argument("--study", choices=tuple(experiments.STUDIES), required=True)
    experiment.add_argument("--n", type=_int_in(2, NODE_LIMIT), default=8)
    experiment.add_argument("--p", type=_probability, default=None)
    experiment.add_argument("--p-neg", type=_probability, default=None, dest="p_neg")
    experiment.add_argument("--trials", type=_int_in(2), default=3000)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--max-steps", type=_int_in(1), default=dynamics.DEFAULT_MAX_STEPS)
    experiment.add_argument("--out", required=True, help="CSV output path")
    experiment.add_argument("--summary", default=None, help="also write the JSON summary here")
    _add_prob_flags(experiment, ("p1", "p2", "p3"))

    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "equivalence": cmd_equivalence,
    "simulate": cmd_simulate,
    "experiment": cmd_experiment,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.created = {}
    try:
        _check_outputs(args)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except EdgeListError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except balance.GuardLimitError as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return EXIT_GUARD
    finally:
        # Whatever ended the command, a probe-created file no writer took goes.
        for flag, fd in args.created.items():
            os.close(fd)
            with contextlib.suppress(OSError):
                os.remove(getattr(args, flag))


if __name__ == "__main__":
    sys.exit(main())
