"""Command-line interface.

Subcommands: learn, quotient, compare, cliques, export, demo-prop17.
Exit codes: 0 success, 1 configuration error, 2 I/O or network error,
3 limit exceeded (learner did not converge). Runs with identical
configuration and seed produce byte-identical JSON outputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .automata import (
    AutomatonError,
    Pdfa,
    QuotientPdfa,
    automaton_from_json,
    decode_json,
    lm_equivalent,
    pdfa_from_json,
    pdfa_to_json,
    quotient,
    quotient_to_json,
    realize,
    to_dot,
)
from .bundled import fixture_json
from .distributions import Alphabet, Distribution, InvalidDistribution
from .learner import learn
from .models import (
    CachedModel,
    LanguageModel,
    PdfaLanguageModel,
    RemoteModel,
    RemoteModelError,
    cached,
    synthetic_model,
)
from .relations import parse_equivalence, parse_similarity
from .teacher import (
    BoundedExhaustiveOracle,
    EqOracle,
    ExactOracle,
    OracleBudgetExceeded,
    SamplingConfig,
    SamplingOracle,
)
from .tolerance import demo_recognizable_not_regular, enumerate_clique_partitions
from .words import format_word

log = logging.getLogger("pdfa_forge")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_LIMIT = 3


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _config_error(message: str) -> CliError:
    return CliError(message, EXIT_CONFIG)


def _io_error(message: str) -> CliError:
    return CliError(message, EXIT_IO)


# ---------------------------------------------------------------------------
# Options: flags, and config files of key = value lines naming them (flags win)
# ---------------------------------------------------------------------------

#: Every flag, keyed by its destination: its ``add_argument`` keywords.
#: Config keys are exactly these names.
_FLAGS = {
    "seed": dict(type=int, default=0, help="seed for sampling oracles"),
    "log": dict(default="warning", choices=["debug", "info", "warning", "error"]),
    "out_dir": dict(default=".", help="directory for emitted files"),
    "model": dict(help="PDFA JSON file or fixture:<name>; export also reads quotient "
                       "files, learn builtin:<name> and URLs"),
    "alphabet": dict(help="comma-separated symbols (remote models only)"),
    "timeout": dict(type=float, help="remote request timeout (s, default 10)"),
    "renormalize": dict(action="store_true", default=None,
                        help="accept remote distributions with off-by-noise sums"),
    "max_query_length": dict(type=int, help="reject queries longer than this (remote models)"),
    "prune": dict(action="store_true", help="drop unreachable states when loading automata"),
    "prefix": dict(default="", help="output file name prefix"),
    "equiv": dict(help="equivalence spec, e.g. quant:7"),
    "eq": dict(default="exact",
               help="exact | sample:<n>:<maxlen>[:<seed>] | exhaustive:<maxlen>"),
    "max_rounds": dict(type=int, default=64),
    "max_cells": dict(type=int, default=100_000),
    "sim": dict(help="similarity spec, e.g. vd:0.15"),
    "out": dict(help="output path (stdout when omitted)"),
    "bound": dict(type=int, default=21),
}

#: Flags only a remote model reads; none has a default, so a value is one given.
_REMOTE_FLAGS = ("alphabet", "timeout", "renormalize", "max_query_length")

_BOOLEAN_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _convert(key: str, value: str):
    """A config value, converted as the flag ``key`` converts its argument."""
    spec = _FLAGS[key]
    if spec.get("action") == "store_true":
        return _BOOLEAN_WORDS[value.lower()]
    if "choices" in spec and value not in spec["choices"]:
        raise ValueError(value)
    return spec.get("type", str)(value)


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text("utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise _io_error(f"cannot read config file: {exc}") from None
    values: dict = {}
    given_on: dict[str, int] = {}  # key -> the line that gave it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise _config_error(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _FLAGS:
            raise _config_error(f"{path}:{lineno}: unknown config key {key!r}")
        if key in given_on:
            raise _config_error(
                f"{path}:{lineno}: config key {key!r} given again (first on line {given_on[key]})"
            )
        given_on[key] = lineno
        try:
            values[key] = _convert(key, value)
        except (KeyError, ValueError):
            raise _config_error(f"{path}:{lineno}: bad value {value!r} for {key}") from None
    return values


# ---------------------------------------------------------------------------
# Input resolution
# ---------------------------------------------------------------------------

def _read_json(path: str) -> dict:
    try:
        text = Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise _io_error(f"{path} is not valid JSON: {exc}") from None
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise _io_error(f"cannot read {path}: {exc}") from None
    try:
        return decode_json(text)
    except (ValueError, RecursionError) as exc:  # not strict JSON, or too deep
        raise _io_error(f"{path} is not valid JSON: {exc}") from None


def _load_document(source: str) -> dict:
    if source.startswith("fixture:"):
        try:
            return fixture_json(source.split(":", 1)[1])
        except ValueError as exc:
            raise _config_error(str(exc)) from None
    return _read_json(source)


def _load(source: str, prune: bool, decode) -> Pdfa | QuotientPdfa:
    doc = _load_document(source)
    try:
        return decode(doc, prune=prune)
    except (AutomatonError, InvalidDistribution, ValueError) as exc:
        raise _io_error(f"{source}: {exc}") from None


def _required(value, flag: str):
    if value is None:
        raise _config_error(f"{flag} is required")
    return value


def _resolve_model(args) -> tuple[LanguageModel, Pdfa | None]:
    """Model source -> (language model, backing PDFA when there is one)."""
    source = _required(args.model, "--model")
    remote = {dest: value for dest in _REMOTE_FLAGS if (value := getattr(args, dest)) is not None}
    if source.startswith(("http://", "https://")):
        symbols = tuple(s for s in remote.pop("alphabet", "").split(",") if s)
        if not symbols:
            raise _config_error("remote models need --alphabet sym1,sym2,...")
        try:
            return RemoteModel(source, Alphabet(symbols), **remote), None
        except ValueError as exc:
            raise _config_error(str(exc)) from None
    if remote:
        names = ", ".join("--" + dest.replace("_", "-") for dest in remote)
        raise _config_error(f"{source!r} is no remote (http/https) model; drop {names}")
    if source.startswith("builtin:"):
        try:
            return synthetic_model(source.split(":", 1)[1]), None
        except ValueError as exc:
            raise _config_error(str(exc)) from None
    pdfa = _load(source, args.prune, pdfa_from_json)
    return PdfaLanguageModel(pdfa), pdfa


def _resolve_oracle(args, model: CachedModel, target: Pdfa | None, equiv) -> EqOracle:
    spec = args.eq
    if spec == "exact":
        if target is None:
            raise _config_error(
                "--eq exact needs a PDFA-backed model (file or fixture source)"
            )
        return ExactOracle(target, equiv)
    head, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    try:
        if head == "sample":
            if len(parts) not in (2, 3):
                raise ValueError
        elif head == "exhaustive":
            if len(parts) != 1:
                raise ValueError
        else:
            raise ValueError
        numbers = [int(p) for p in parts]
    except ValueError:
        raise _config_error(
            f"bad --eq spec {spec!r}; use exact | sample:<n>:<maxlen>[:<seed>] "
            "| exhaustive:<maxlen>"
        ) from None
    try:
        if head == "sample":
            seed = numbers[2] if len(numbers) == 3 else args.seed
            config = SamplingConfig(samples=numbers[0], max_length=numbers[1], seed=seed)
            return SamplingOracle(model, equiv, config)
        return BoundedExhaustiveOracle(model, equiv, numbers[0])
    except (OracleBudgetExceeded, ValueError) as exc:
        raise _config_error(f"--eq {spec}: {exc}") from None


def _parse_spec(parse, text: str | None, flag: str):
    try:
        return parse(_required(text, flag))
    except ValueError as exc:
        raise _config_error(str(exc)) from None


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _out_dir(args) -> Path:
    path = Path(args.out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise _io_error(f"cannot create output directory: {exc}") from None
    return path


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, "utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise _io_error(f"cannot write {path}: {exc}") from None
    log.info("wrote %s", path)


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_learn(args) -> int:
    for flag, value in (("--max-rounds", args.max_rounds), ("--max-cells", args.max_cells)):
        if value < 1:
            raise _config_error(f"{flag} must be >= 1, got {value}")
    equiv = _parse_spec(parse_equivalence, args.equiv, "--equiv")
    model, target = _resolve_model(args)
    mq = cached(model)
    oracle = _resolve_oracle(args, mq, target, equiv)
    report = learn(
        mq, equiv, oracle, max_rounds=args.max_rounds, max_cells=args.max_cells
    )

    out = _out_dir(args)
    prefix = args.prefix
    if report.hypothesis is not None:
        _write_json(out / f"{prefix}hypothesis.json", quotient_to_json(report.hypothesis))
        _write_text(out / f"{prefix}hypothesis.dot", to_dot(report.hypothesis, "hypothesis"))
        realized = realize(report.hypothesis)
        _write_json(out / f"{prefix}realization.json", pdfa_to_json(realized))
        _write_text(out / f"{prefix}realization.dot", to_dot(realized, "realization"))
    _write_json(
        out / f"{prefix}report.json",
        {
            "converged": report.converged,
            "equivalence": equiv.spec_string(),
            "mq_count": report.mq_count,
            "oracle": report.oracle,
            "rounds": report.rounds,
            "states": None if report.hypothesis is None else report.hypothesis.n_states,
            "stop_reason": report.stop_reason,
            "table_history": [list(dims) for dims in report.table_history],
        },
    )
    _write_text(
        out / f"{prefix}trace.ndjson",
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in report.events),
    )
    if not report.converged:
        print(f"did not converge: {report.stop_reason}")
        return EXIT_LIMIT
    print(f"learned {report.hypothesis.n_states} states in {report.rounds} round(s)")
    return EXIT_OK


def cmd_quotient(args) -> int:
    equiv = _parse_spec(parse_equivalence, args.equiv, "--equiv")
    pdfa = _load(_required(args.model, "--model"), args.prune, pdfa_from_json)
    h = quotient(pdfa, equiv)
    out = _out_dir(args)
    _write_json(out / f"{args.prefix}quotient.json", quotient_to_json(h))
    _write_text(out / f"{args.prefix}quotient.dot", to_dot(h, "quotient"))
    print(f"{h.n_states} states")
    return EXIT_OK


def cmd_compare(args) -> int:
    equiv = _parse_spec(parse_equivalence, args.equiv, "--equiv")
    left = _load(args.left, args.prune, pdfa_from_json)
    right = _load(args.right, args.prune, pdfa_from_json)
    try:
        witness = lm_equivalent(left, right, equiv)
    except ValueError as exc:
        raise _config_error(str(exc)) from None
    if witness is None:
        print("equivalent")
    else:
        print(f'counterexample "{format_word(witness)}"')
    return EXIT_OK


def cmd_cliques(args) -> int:
    sim = _parse_spec(parse_similarity, args.sim, "--sim")
    doc = _load_document(args.distributions)
    try:
        if isinstance(doc, list):
            alphabet = Alphabet(sorted({s for d in doc for s in d} - {"$"}))
            entries = doc
        else:
            # Alphabet() takes any iterable: a string would be split into letters.
            if not isinstance(doc["alphabet"], list):
                raise _io_error(
                    "'alphabet' must be a list of symbols, "
                    f"got {type(doc['alphabet']).__name__}"
                )
            alphabet = Alphabet(doc["alphabet"])
            entries = doc["distributions"]
        dists = [Distribution.from_map(alphabet, entry) for entry in entries]
    except (KeyError, TypeError, ValueError) as exc:
        raise _io_error(f"bad distribution list: {exc}") from None
    try:
        partitions = enumerate_clique_partitions(dists, sim)
    except ValueError as exc:
        raise _config_error(str(exc)) from None

    out = _out_dir(args)
    _write_json(
        out / f"{args.prefix}cliques.json",
        {
            "similarity": sim.spec_string(),
            "partitions": [
                [sorted(block) for block in p.blocks] for p in partitions
            ],
        },
    )
    print(f"{len(partitions)} clique partition(s) under {sim.spec_string()}")
    for i, p in enumerate(partitions, start=1):
        rendered = "  ".join(
            "{" + ", ".join(repr(dists[j].as_dict()) for j in sorted(block)) + "}"
            for block in p.blocks
        )
        print(f"  {i}: {rendered}")
    return EXIT_OK


def cmd_export(args) -> int:
    automaton = _load(_required(args.model, "--model"), args.prune, automaton_from_json)
    dot = to_dot(automaton)
    if args.out:
        _write_text(Path(args.out), dot)
    else:
        print(dot, end="")
    return EXIT_OK


def cmd_demo_prop17(args) -> int:
    try:
        report = demo_recognizable_not_regular(args.bound)
    except ValueError as exc:
        raise _config_error(str(exc)) from None
    out = _out_dir(args)
    payload = report.to_json()
    _write_json(out / f"{args.prefix}prop17.json", payload)
    print(
        f"tolerant to the one-state PDFA up to length {report.bound}: "
        f"{report.tolerant_up_to_bound} [{report.checked_label}]"
    )
    print(
        f"{len(report.marked_words)} marked words pairwise separated; "
        f"clique lower bound {report.clique_lower_bound}"
    )
    for sep in payload["separations"]:
        print(f'  "{sep["first"]}" vs "{sep["second"]}": continuation "{sep["continuation"]}"')
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_PDFA_SOURCE = "PDFA JSON file or fixture:<name>"

#: Subcommand -> (handler, help, positionals as (name, help), flags it reads).
_COMMANDS = {
    "learn": (cmd_learn, "run the active learner", (), (
        "model", "alphabet", "timeout", "renormalize", "max_query_length", "prune",
        "prefix", "equiv", "eq", "max_rounds", "max_cells",
    )),
    "quotient": (cmd_quotient, "quotient a PDFA file", (),
                 ("model", "prune", "prefix", "equiv")),
    "compare": (cmd_compare, "classwise-compare two PDFA files",
                (("left", _PDFA_SOURCE), ("right", _PDFA_SOURCE)), ("equiv", "prune")),
    "cliques": (cmd_cliques, "enumerate clique partitions",
                (("distributions", "JSON distribution list or fixture:fig3-dists"),),
                ("sim", "prefix")),
    "export": (cmd_export, "write Graphviz DOT for an automaton", (),
               ("model", "prune", "out")),
    "demo-prop17": (cmd_demo_prop17, "recognizable-but-not-clique-regular demonstration",
                    (), ("bound", "prefix")),
}


def _add_flags(parser: argparse.ArgumentParser, dests, config: dict) -> None:
    """Add each flag; a config value replaces its default on this parser only."""
    for dest in dests:
        kwargs = dict(_FLAGS[dest])
        if dest in config:
            kwargs["default"] = config[dest]
        parser.add_argument("--" + dest.replace("_", "-"), **kwargs)


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    config = config or {}
    parser = argparse.ArgumentParser(
        prog="pdfa-forge",
        description="Learn, quotient, and compare PDFAs modulo distribution equivalences.",
    )
    parser.add_argument("--config", help="key = value file mirroring flags; flags win")
    _add_flags(parser, ("seed", "log", "out_dir"), config)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, positionals, flags) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        for dest, text in positionals:
            sub.add_argument(dest, help=text)
        _add_flags(sub, flags, config)
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)

    try:
        config = _load_config(known.config) if known.config else {}
        parser = build_parser(config)
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=getattr(logging, args.log.upper()), stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except RemoteModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BrokenPipeError:
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
