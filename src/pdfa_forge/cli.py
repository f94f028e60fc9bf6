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
# Config file (key = value lines mirroring flags; flags override the file)
# ---------------------------------------------------------------------------

def _log_level(value: str) -> str:
    if value not in ("debug", "info", "warning", "error"):
        raise ValueError(f"unknown log level {value!r}")
    return value


_BOOLEAN_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _boolean(value: str) -> bool:
    try:
        return _BOOLEAN_WORDS[value.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {value!r}") from None


_CONFIG_TYPES = {
    "seed": int,
    "max_rounds": int,
    "max_cells": int,
    "max_query_length": int,
    "bound": int,
    "max_len": int,
    "timeout": float,
    "log": _log_level,
    "renormalize": _boolean,
    "prune": _boolean,
}

_CONFIG_KEYS = {
    "seed", "log", "out_dir", "model", "equiv", "eq", "sim", "alphabet",
    "max_rounds", "max_cells", "max_query_length", "bound", "max_len",
    "timeout", "renormalize", "prune", "prefix",
}


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text("utf-8")
    except OSError as exc:
        raise _io_error(f"cannot read config file: {exc}") from None
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise _config_error(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise _config_error(f"{path}:{lineno}: unknown config key {key!r}")
        convert = _CONFIG_TYPES.get(key, str)
        try:
            values[key] = convert(value)
        except ValueError:
            raise _config_error(f"{path}:{lineno}: bad value {value!r} for {key}") from None
    return values


# ---------------------------------------------------------------------------
# Input resolution
# ---------------------------------------------------------------------------

def _read_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text("utf-8"))
    except OSError as exc:
        raise _io_error(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _io_error(f"{path} is not valid JSON: {exc}") from None


def _load_document(source: str) -> dict:
    if source.startswith("fixture:"):
        try:
            return fixture_json(source.split(":", 1)[1])
        except ValueError as exc:
            raise _config_error(str(exc)) from None
    return _read_json(source)


def _load_pdfa(source: str, prune: bool = False) -> Pdfa:
    doc = _load_document(source)
    try:
        return pdfa_from_json(doc, prune=prune)
    except (AutomatonError, InvalidDistribution, ValueError) as exc:
        raise _io_error(f"{source}: {exc}") from None


def _load_automaton(source: str, prune: bool = False) -> Pdfa | QuotientPdfa:
    doc = _load_document(source)
    try:
        return automaton_from_json(doc, prune=prune)
    except (AutomatonError, InvalidDistribution, ValueError) as exc:
        raise _io_error(f"{source}: {exc}") from None


def _resolve_model(args) -> tuple[LanguageModel, Pdfa | None]:
    """Model source -> (language model, backing PDFA when there is one)."""
    source = args.model
    if source is None:
        raise _config_error("--model is required")
    if source.startswith("builtin:"):
        try:
            return synthetic_model(source.split(":", 1)[1]), None
        except ValueError as exc:
            raise _config_error(str(exc)) from None
    if source.startswith(("http://", "https://")):
        if not args.alphabet:
            raise _config_error("remote models need --alphabet sym1,sym2,...")
        alphabet = Alphabet(tuple(s for s in args.alphabet.split(",") if s))
        try:
            model = RemoteModel(
                source,
                alphabet,
                timeout=args.timeout,
                renormalize=args.renormalize,
                max_query_length=args.max_query_length,
            )
        except ValueError as exc:
            raise _config_error(str(exc)) from None
        return model, None
    pdfa = _load_pdfa(source, prune=args.prune)
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
    if head == "sample":
        seed = numbers[2] if len(numbers) == 3 else args.seed
        config = SamplingConfig(samples=numbers[0], max_length=numbers[1], seed=seed)
        return SamplingOracle(model, equiv, config)
    try:
        return BoundedExhaustiveOracle(model, equiv, numbers[0])
    except OracleBudgetExceeded as exc:
        raise _config_error(str(exc)) from None


def _parse_equiv(text: str | None):
    if text is None:
        raise _config_error("--equiv is required")
    try:
        return parse_equivalence(text)
    except ValueError as exc:
        raise _config_error(str(exc)) from None


def _parse_sim(text: str | None):
    if text is None:
        raise _config_error("--sim is required")
    try:
        return parse_similarity(text)
    except ValueError as exc:
        raise _config_error(str(exc)) from None


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _out_dir(args) -> Path:
    path = Path(args.out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _io_error(f"cannot create output directory: {exc}") from None
    return path


def _write_json(path: Path, payload) -> None:
    try:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")
    except OSError as exc:
        raise _io_error(f"cannot write {path}: {exc}") from None
    log.info("wrote %s", path)


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, "utf-8")
    except OSError as exc:
        raise _io_error(f"cannot write {path}: {exc}") from None
    log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_learn(args) -> int:
    equiv = _parse_equiv(args.equiv)
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
    equiv = _parse_equiv(args.equiv)
    pdfa = _load_pdfa(args.model, prune=args.prune)
    h = quotient(pdfa, equiv)
    out = _out_dir(args)
    _write_json(out / f"{args.prefix}quotient.json", quotient_to_json(h))
    _write_text(out / f"{args.prefix}quotient.dot", to_dot(h, "quotient"))
    print(f"{h.n_states} states")
    return EXIT_OK


def cmd_compare(args) -> int:
    equiv = _parse_equiv(args.equiv)
    left = _load_pdfa(args.left, prune=args.prune)
    right = _load_pdfa(args.right, prune=args.prune)
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
    sim = _parse_sim(args.sim)
    doc = _load_document(args.distributions)
    try:
        if isinstance(doc, list):
            alphabet = Alphabet(sorted({s for d in doc for s in d} - {"$"}))
            entries = doc
        else:
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
    automaton = _load_automaton(args.model, prune=args.prune)
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
    _write_json(out / f"{args.prefix}prop17.json", report.to_json())
    print(
        f"tolerant to the one-state PDFA up to length {report.bound}: "
        f"{report.tolerant_up_to_bound} [{report.checked_label}]"
    )
    print(
        f"{len(report.marked_words)} marked words pairwise separated; "
        f"clique lower bound {report.clique_lower_bound}"
    )
    for i, j, w in report.separations:
        print(
            f'  "{format_word(report.marked_words[i])}" vs '
            f'"{format_word(report.marked_words[j])}": continuation "{format_word(w)}"'
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common_model_options(sub) -> None:
    sub.add_argument("--model", help="PDFA JSON file, fixture:<name>, builtin:<name>, or URL")
    sub.add_argument("--alphabet", help="comma-separated symbols (remote models only)")
    sub.add_argument("--timeout", type=float, default=10.0, help="remote request timeout (s)")
    sub.add_argument("--renormalize", action="store_true", default=False,
                     help="accept remote distributions with off-by-noise sums")
    sub.add_argument("--max-query-length", type=int, default=None,
                     help="reject queries longer than this (remote models)")
    sub.add_argument("--prune", action="store_true", default=False,
                     help="drop unreachable states when loading automata")
    sub.add_argument("--prefix", default="", help="output file name prefix")


#: Options parsed by the top-level parser; config values for these must not
#: leak into subparser defaults (subparsers overwrite the shared namespace).
_GLOBAL_KEYS = {"seed", "log", "out_dir"}


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    config = config or {}
    parser = argparse.ArgumentParser(
        prog="pdfa-forge",
        description="Learn, quotient, and compare PDFAs modulo distribution equivalences.",
    )
    parser.add_argument("--config", help="key = value file mirroring flags; flags win")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampling oracles")
    parser.add_argument("--log", default="warning",
                        choices=["debug", "info", "warning", "error"])
    parser.add_argument("--out-dir", default=".", help="directory for emitted files")
    parser.set_defaults(**{k: v for k, v in config.items() if k in _GLOBAL_KEYS})
    sub_config = {k: v for k, v in config.items() if k not in _GLOBAL_KEYS}
    commands = parser.add_subparsers(dest="command", required=True)

    learn_p = commands.add_parser("learn", help="run the active learner")
    _add_common_model_options(learn_p)
    learn_p.add_argument("--equiv", help="equivalence spec, e.g. quant:7")
    learn_p.add_argument("--eq", default="exact",
                         help="exact | sample:<n>:<maxlen>[:<seed>] | exhaustive:<maxlen>")
    learn_p.add_argument("--max-rounds", type=int, default=64)
    learn_p.add_argument("--max-cells", type=int, default=100_000)
    learn_p.set_defaults(**sub_config)
    learn_p.set_defaults(func=cmd_learn)

    quot_p = commands.add_parser("quotient", help="quotient a PDFA file")
    _add_common_model_options(quot_p)
    quot_p.add_argument("--equiv", help="equivalence spec, e.g. quant:3")
    quot_p.set_defaults(**sub_config)
    quot_p.set_defaults(func=cmd_quotient)

    cmp_p = commands.add_parser("compare", help="classwise-compare two PDFA files")
    cmp_p.add_argument("left", help="PDFA JSON file or fixture:<name>")
    cmp_p.add_argument("right", help="PDFA JSON file or fixture:<name>")
    cmp_p.add_argument("--equiv", help="equivalence spec")
    cmp_p.add_argument("--prune", action="store_true", default=False)
    cmp_p.set_defaults(**sub_config)
    cmp_p.set_defaults(func=cmd_compare)

    cliq_p = commands.add_parser("cliques", help="enumerate clique partitions")
    cliq_p.add_argument("distributions", help="JSON distribution list or fixture:fig3-dists")
    cliq_p.add_argument("--sim", help="similarity spec, e.g. vd:0.15")
    cliq_p.add_argument("--prefix", default="")
    cliq_p.set_defaults(**sub_config)
    cliq_p.set_defaults(func=cmd_cliques)

    exp_p = commands.add_parser("export", help="write Graphviz DOT for an automaton")
    exp_p.add_argument("--model", help="PDFA or quotient JSON file, or fixture:<name>")
    exp_p.add_argument("--prune", action="store_true", default=False)
    exp_p.add_argument("--out", help="output path (stdout when omitted)")
    exp_p.set_defaults(**sub_config)
    exp_p.set_defaults(func=cmd_export)

    demo_p = commands.add_parser(
        "demo-prop17", help="recognizable-but-not-clique-regular demonstration"
    )
    demo_p.add_argument("--bound", type=int, default=21)
    demo_p.add_argument("--prefix", default="")
    demo_p.set_defaults(**sub_config)
    demo_p.set_defaults(func=cmd_demo_prop17)
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
