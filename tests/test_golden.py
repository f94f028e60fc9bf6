"""The learner reproduces the golden corpus: every pinned run's hypothesis,
trace, model requests and counts (see ``make_golden.py``)."""

import json

import pytest

from make_golden import GOLDEN, moved, runs

RUNS = runs()
CORPUS = json.loads(GOLDEN.read_text())


def test_the_corpus_pins_every_run():
    assert sorted(CORPUS) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_the_corpus(name):
    assert RUNS[name]() == CORPUS[name]


def test_check_names_each_moved_field():
    pinned = {"a": {"x": 1, "y": 2}, "b": {"x": 1}}
    computed = {"a": {"x": 1, "y": 3}, "c": {"x": 1}}
    assert moved(pinned, computed) == ["a: y", "b: x", "c: x"]
    assert moved(pinned, pinned) == []
