"""Packaging: the package runs on the standard library alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pdfa_forge
from pdfa_forge.automata import decode_json
from pdfa_forge.bundled import FIXTURE_NAMES, fixture_json, fixture_text

IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import pdfa_forge
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"pdfa_forge"})))
"""


def test_import_loads_only_the_standard_library():
    # Modules already loaded by a bare interpreter (site hooks may preload
    # third-party ones) are not counted against the package.
    src = str(Path(pdfa_forge.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert json.loads(result.stdout) == []


def test_every_bundled_fixture_decodes_strictly():
    # decode_json rejects what json.loads would take silently: a repeated
    # key or a non-finite constant.
    for name in FIXTURE_NAMES:
        assert fixture_json(name) == decode_json(fixture_text(name)) == json.loads(
            fixture_text(name)
        )
