"""The learner reproduces the golden corpus: every pinned run's hypothesis,
trace, model requests and counts (see ``make_golden.py``)."""

import json

import pytest

from make_golden import GOLDEN, runs

RUNS = runs()
CORPUS = json.loads(GOLDEN.read_text())


def test_the_corpus_pins_every_run():
    assert sorted(CORPUS) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_the_corpus(name):
    assert RUNS[name]() == CORPUS[name]
