"""Bundled example automata and distribution sets.

These ship with the package so the CLI (``fixture:<name>`` model sources),
the documentation, and the test suite all refer to the same files.
"""

from __future__ import annotations

from importlib import resources

from .automata import decode_json

FIXTURE_NAMES = ("fig2a", "fig2b", "fig3a", "fig3-dists")


def fixture_text(name: str) -> str:
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; available: {FIXTURE_NAMES}")
    return (
        resources.files("pdfa_forge").joinpath("fixtures", f"{name}.json").read_text("utf-8")
    )


def fixture_json(name: str) -> dict:
    return decode_json(fixture_text(name))
