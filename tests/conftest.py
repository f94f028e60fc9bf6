"""Shared fixtures: the running example automata and the HTTP LM stub."""

from __future__ import annotations

import pytest
from hypothesis import settings

from pdfa_forge import Pdfa, pdfa_from_json
from pdfa_forge.bundled import fixture_json

from helpers import LmServer

# ``pytest --hypothesis-profile=ci`` runs more examples, with no deadline, of
# the property tests that set neither; a local run keeps the default profile.
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def fig2a() -> Pdfa:
    return pdfa_from_json(fixture_json("fig2a"))


@pytest.fixture(scope="session")
def fig2b() -> Pdfa:
    return pdfa_from_json(fixture_json("fig2b"))


@pytest.fixture(scope="session")
def fig3a() -> Pdfa:
    return pdfa_from_json(fixture_json("fig3a"))


@pytest.fixture()
def lm_server():
    server = LmServer()
    yield server
    server.close()
