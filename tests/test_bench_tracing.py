"""The benchmark's tracing hooks still find the entry points they wrap.

``bench/tracing.py`` swaps learner, teacher and automata attributes by name
for timing wrappers. A rename in the package would pass every other test and
break ``bench/run.py --trace 1``, so the hooks are exercised here.
"""

import importlib.util
from pathlib import Path

from pdfa_forge import automata, learner, learn, parse_equivalence, teacher
from pdfa_forge.learner import ObservationTable
from pdfa_forge.models import PdfaLanguageModel, cached
from pdfa_forge.teacher import ExactOracle

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_swaps_the_hooks_in_and_restores_them(fig3a):
    tracing = load_tracing()
    names = [*tracing.TABLE_METHODS, *tracing.TABLE_PROPERTIES]
    before = {name: ObservationTable.__dict__[name] for name in names}
    functions = [(learner, "word_key"), (learner, "signature"),
                 (teacher, "signature"), (automata, "signature")]
    originals = [getattr(owner, attr) for owner, attr in functions]

    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert all(ObservationTable.__dict__[name] is not before[name] for name in names)
        equiv = parse_equivalence("quant:7")
        report = learn(cached(PdfaLanguageModel(fig3a)), equiv, ExactOracle(fig3a, equiv))
    assert report.converged
    assert tracer.calls["learner.build_hypothesis"] >= 1
    assert tracer.calls["words.word_key"] >= 1

    assert {name: ObservationTable.__dict__[name] for name in names} == before
    assert [getattr(owner, attr) for owner, attr in functions] == originals


def test_the_table_ships_only_what_learn_and_the_hooks_call():
    # Test-only helpers live in ``tests/helpers.py``; ``red`` is ``blue``'s
    # public twin.
    tracing = load_tracing()
    public = {name for name in vars(ObservationTable) if not name.startswith("_")}
    assert public == {*tracing.TABLE_METHODS, *tracing.TABLE_PROPERTIES, "red"}
