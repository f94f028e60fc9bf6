"""README's examples run as written and print what their comments say."""

import re
import shlex
from pathlib import Path

from pdfa_forge.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# What the CLI example block's comments promise, as the first line printed.
STATED = {
    "equivalent": "equivalent",
    'counterexample ""': 'counterexample ""',
    "3 partitions": "3 clique partition(s) under vd:0.15",
}


def readme_block(after: str, language: str) -> str:
    """The first ``language`` code block after the line ``after``."""
    text = README.read_text("utf-8")
    block = re.compile(rf"^```{language}\n(.*?)^```", re.S | re.M)
    return block.search(text, text.index(f"\n{after}\n")).group(1)


def test_the_library_tour_runs():
    exec(compile(readme_block("## Library tour", "python"), str(README), "exec"), {})


def test_the_cli_examples_print_what_their_comments_say(tmp_path, capsys):
    seen = set()
    for line in readme_block("Examples:", "sh").splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "pdfa-forge"
        # Every command writes into the temporary directory, never here.
        if argv[:1] == ["--out-dir"]:
            del argv[:2]
        assert main(["--out-dir", str(tmp_path), *argv]) == 0, line
        printed = capsys.readouterr().out.splitlines()
        if comment.strip():
            assert printed[0] == STATED[comment.strip()], line
            seen.add(comment.strip())
    assert seen == STATED.keys()
    assert {p.name for p in tmp_path.iterdir()} >= {
        "hypothesis.json", "report.json", "cliques.json", "prop17.json"
    }
