"""Hostile inputs to ``cli.main``: mutated documents and config files.

Each example runs one subcommand that reads a document (``compare``,
``quotient``, ``export`` or ``cliques``) on a bundled fixture and a config
file, either of which may be mutated: byte flips, truncation, deep nesting,
repeated keys, bytes that are not UTF-8 and numbers no float or int holds.
Whatever the input, the run ends with a documented exit code, a non-zero
one says why on an ``error:`` line, and nothing escapes as a traceback.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdfa_forge import parse_equivalence, pdfa_from_json, quotient, quotient_to_json
from pdfa_forge.bundled import fixture_text
from pdfa_forge.cli import main


class _Pairs(list):
    """A JSON object as its key-value pairs, so a key may repeat."""


class _Raw(str):
    """JSON text that goes into a document as it is."""


def _dump(value) -> str:
    if isinstance(value, _Raw):
        return value
    if isinstance(value, _Pairs):
        return "{" + ", ".join(f"{json.dumps(key)}: {_dump(item)}" for key, item in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_dump, value)) + "]"
    return json.dumps(value)


def _places(value):
    """``(container, index)`` of every value below ``value``, depth first."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield value, i
            yield from _places(item[1] if isinstance(value, _Pairs) else item)


def _put(container: list, i: int, new) -> None:
    container[i] = (container[i][0], new) if isinstance(container, _Pairs) else new


HUGE_NUMBERS = [
    "1" + "0" * 400, "1e400", "-1e400", "1e-400", "-0", "9" * 5000, "18446744073709551617",
]
NESTING_DEPTHS = [2, 60, 1000, 100_000]
SCALARS = [0, 1, -1, 0.5, 2.5, "a", "$", "", None, True, []]
# Not UTF-8: a lone continuation byte, a truncated sequence, an encoded
# surrogate, a code point above U+10FFFF, a UTF-16 byte order mark; and NUL.
BAD_BYTES = [b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\xff\xfe", b"\x00"]


@st.composite
def corrupted(draw, data: bytes) -> bytes:
    """``data`` after up to two byte-level mutations."""
    for kind in draw(st.lists(st.sampled_from(["flip", "truncate", "insert", "utf-16"]), max_size=2)):
        if not data:
            break
        if kind == "flip":
            i = draw(st.integers(0, len(data) - 1))
            data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
        elif kind == "truncate":
            data = data[: draw(st.integers(0, len(data) - 1))]
        elif kind == "insert":
            i = draw(st.integers(0, len(data)))
            data = data[:i] + draw(st.sampled_from(BAD_BYTES)) + data[i:]
        else:
            data = data.decode("utf-8", "replace").encode("utf-16")
    return data


@st.composite
def documents(draw, text: str) -> bytes:
    """``text``, a JSON document, with up to two of its values replaced by a
    huge number or deep nesting, or a key repeated; then corrupted."""
    doc = json.loads(text, object_pairs_hook=_Pairs)
    for kind in draw(st.lists(st.sampled_from(["huge", "nest", "repeat"]), max_size=2)):
        container, i = draw(st.sampled_from(list(_places(doc))))
        if kind == "huge":
            _put(container, i, _Raw(draw(st.sampled_from(HUGE_NUMBERS))))
        elif kind == "nest":
            depth = draw(st.sampled_from(NESTING_DEPTHS))
            opener, closer = draw(st.sampled_from([("[", "]"), ('{"a": ', "}")]))
            _put(container, i, _Raw(opener * depth + "0" + closer * depth))
        else:
            objects = {id(c): c for c, _ in _places(doc) if isinstance(c, _Pairs)}
            obj = draw(st.sampled_from(list(objects.values())))
            key = draw(st.sampled_from([key for key, _ in obj]))
            obj.insert(draw(st.integers(0, len(obj))), (key, draw(st.sampled_from(SCALARS))))
    return draw(corrupted(_dump(doc).encode()))


# Keys every run reads or converts: ``seed`` and ``log`` are global, and keys
# of other subcommands are converted though not used.
COMMON_CONFIG = ["# hostile", "seed = 7", "log = error", "max_rounds = 64", "timeout = 2.5",
                 "bound = 21", "renormalize = off"]


@st.composite
def configs(draw, lines: list[str]) -> bytes:
    """Config ``lines`` with a key given twice or a value replaced by a huge
    number, then corrupted."""
    lines = list(lines)
    for kind in draw(st.lists(st.sampled_from(["repeat", "huge"]), max_size=2)):
        i = draw(st.integers(1, len(lines) - 1))
        key = lines[i].partition("=")[0].strip()
        if kind == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        else:
            lines[i] = f"{key} = {draw(st.sampled_from(HUGE_NUMBERS))}"
    return draw(corrupted("\n".join(lines).encode() + b"\n"))


def _quotient_document() -> str:
    fig3a = pdfa_from_json(json.loads(fixture_text("fig3a")))
    return json.dumps(quotient_to_json(quotient(fig3a, parse_equivalence("quant:7"))))


# Subcommand: (argv with DOC for the document, its config keys, the
# documents it reads). Output goes to the run's own directory: --out-dir
# and --prefix are flags, which win over any config key.
COMMANDS = {
    "compare": (["compare", "DOC", "fixture:fig2a"], ["equiv = quant:3", "prune = off"],
                ["fig2a", "fig2b", "fig3a"]),
    "quotient": (["quotient", "--model", "DOC", "--prefix", "q-"],
                 ["equiv = quant:7", "prune = no"], ["fig2a", "fig3a"]),
    "export": (["export", "--model", "DOC"], ["prune = false"], ["fig3a", "quotient"]),
    "cliques": (["cliques", "DOC", "--prefix", "c-"], ["sim = vd:0.15"], ["fig3-dists"]),
}
TEXTS = {name: fixture_text(name) for name in ("fig2a", "fig2b", "fig3a", "fig3-dists")}
TEXTS["quotient"] = _quotient_document()


@st.composite
def runs(draw) -> tuple[list[str], bytes, bytes]:
    """A subcommand's argv, document and config; the document, the config
    or both are mutated, so a broken config does not hide the document."""
    argv, keys, sources = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
    text, lines = TEXTS[draw(st.sampled_from(sources))], COMMON_CONFIG + keys
    mutate = draw(st.sampled_from(["document", "config", "both"]))
    doc = draw(documents(text)) if mutate != "config" else text.encode()
    config = draw(configs(lines)) if mutate != "document" else "\n".join(lines).encode()
    return argv, doc, config


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@settings(deadline=None)
@given(runs())
@example((COMMANDS["compare"][0], TEXTS["fig2b"].encode(), b"equiv = quant:3\nequiv = quant:7\n"))
@example((COMMANDS["quotient"][0], b"[" * 100_000, b"equiv = quant:7\n"))
@example((COMMANDS["export"][0], b"\xff\xfe{}", b"prune = off\n"))
@example((COMMANDS["cliques"][0], b'[{"a": 1%s, "$": 0}]' % (b"0" * 400), b"sim = vd:0.1\n"))
@example((COMMANDS["compare"][0], TEXTS["fig2a"].encode(), b"equiv = quant:3\nseed = " + b"9" * 5000))
def test_mutated_inputs_end_in_a_documented_exit(workdir, run):
    argv, doc, config = run
    (workdir / "doc.json").write_bytes(doc)
    (workdir / "run.conf").write_bytes(config)
    argv = [str(workdir / "doc.json") if arg == "DOC" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", str(workdir / "run.conf"), "--out-dir", str(workdir / "out"), *argv])
    assert code in (0, 1, 2, 3), code
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code:
        assert any(line.startswith("error: ") for line in err.getvalue().splitlines()), (
            code, err.getvalue()
        )
