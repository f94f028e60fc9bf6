"""The three benchmark workloads.

Each workload is built from a seed, then runs *passes*: one pass performs
the workload's whole task list once, in a closed loop on the calling thread,
and returns the time of each task (raw, and at the reference speed of
``clock.TaskClock``), its deterministic counts and its outputs. A
pass is untraced (``tracer=None``) or traced (the caller has entered
``tracing.traced``); both return the same counts. ``verify`` checks a pass's
outputs afterwards, outside the traced block, so checking adds no spans.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass, field

from pdfa_forge import (
    CachedModel,
    ExactOracle,
    PdfaLanguageModel,
    RemoteModel,
    SamplingConfig,
    SamplingOracle,
    demo_recognizable_not_regular,
    enumerate_clique_partitions,
    is_triangular,
    isomorphic,
    learn,
    lm_equivalent,
    parse_equivalence,
    parse_similarity,
    pdfa_from_json,
    pdfa_to_json,
    quotient,
    quotient_from_json,
    quotient_to_json,
    realize,
    signature,
    string_tolerant,
)
from pdfa_forge import Pdfa

from clock import TaskClock
from inputs import blow_up, clustered_distributions, fingerprint, random_pdfa
from stub import LmStub
from tracing import TimedModel, TimedOracle, TracedCache, Tracer, Untraced

#: Injected per-request latency of the HTTP stub.
STUB_DELAY_S = 0.002
#: The stub's median round trip may exceed the delay by at most this. A
#: healthy round trip adds 1.3-2.3 ms of HTTP handling on a 2-vCPU host, more
#: when the host is busy; a reply stalled on delayed ACKs adds about 40 ms.
RTT_SLACK_S = 0.008
#: Warm-up queries sent to the stub during set-up.
WARMUP_QUERIES = 40


@dataclass
class PassResult:
    task_s: list[float]
    reference_s: list[float]
    counts: dict[str, int]
    outputs: list
    tracer: Tracer | None = None
    latencies_s: list[float] = field(default_factory=list)


class _Probe:
    """Collects what the proxies saw during one traced pass."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.models: list[TimedModel] = []
        self.caches: list[CachedModel] = []
        self.oracles: list[TimedOracle] = []

    def cache(self, model) -> CachedModel:
        if self.tracer is None:
            cache = CachedModel(model)
        else:
            timed = TimedModel(model, self.tracer)
            self.models.append(timed)
            cache = TracedCache(timed, self.tracer)
        self.caches.append(cache)
        return cache

    def oracle(self, oracle, cache: CachedModel):
        if self.tracer is None:
            return oracle
        timed = TimedOracle(oracle, cache, self.tracer)
        self.oracles.append(timed)
        return timed

    def counts(self) -> dict[str, int]:
        """Counts only the proxies can see; none when untraced."""
        if self.tracer is None:
            return {}
        out = {
            "models.rtt_samples": sum(len(m.latencies_s) for m in self.models),
            "models.errors": sum(m.errors for m in self.models),
        }
        if self.oracles:
            out.update({
                "teacher.check_calls": sum(o.calls for o in self.oracles),
                "teacher.mq_misses": sum(o.mq_misses for o in self.oracles),
                "teacher.mq_hits": sum(o.mq_hits for o in self.oracles),
                "teacher.cex_symbols": sum(o.cex_symbols for o in self.oracles),
            })
        return out

    def latencies(self) -> list[float]:
        return [s for m in self.models for s in m.latencies_s]


class _Learn:
    """Shared loop of the two learning workloads: learn every target once."""

    stub: LmStub | None = None

    def __init__(self, targets: list[Pdfa], spec_text: str):
        self.clock = TaskClock()
        self.targets = targets
        self.spec = parse_equivalence(spec_text)
        self.references = [quotient(t, self.spec) for t in targets]
        self.fingerprint = fingerprint(targets)

    def model_for(self, target: Pdfa):
        raise NotImplementedError

    def oracle_for(self, target: Pdfa, cache: CachedModel, tr):
        raise NotImplementedError

    def run_pass(self, tracer: Tracer | None) -> PassResult:
        tr = tracer or Untraced
        probe = _Probe(tracer)
        counts = dict.fromkeys(
            ["mq_misses", "mq_hits", "eq_queries", "learner.close_steps",
             "learner.consistent_steps", "learner.cex_updates", "learner.red_rows",
             "learner.blue_rows", "learner.suffixes", "learner.cells"], 0)
        requests_before = self.stub.requests if self.stub else 0
        outputs, task_s, reference_s = [], [], []

        def task(target):
            cache = probe.cache(self.model_for(target))
            oracle = probe.oracle(self.oracle_for(target, cache, tr), cache)
            return tr.call("learner", "learn", learn, cache, self.spec, oracle), cache

        for target in self.targets:
            if self.stub:
                self.stub.target = target
            before = self.stub.requests if self.stub else 0
            (report, cache), raw, speed = self.clock.time(task, target)
            # The stub's injected sleep takes the same time on any host; only
            # the rest of the task is scaled to the reference speed.
            slept = (self.stub.requests - before) * STUB_DELAY_S if self.stub else 0.0
            task_s.append(raw)
            reference_s.append(slept + (raw - slept) * speed)

            events = [e["event"] for e in report.events]
            red, blue, suffixes = report.table_history[-1] if report.table_history else (0, 0, 0)
            counts["mq_misses"] += report.mq_count
            counts["mq_hits"] += cache.hits
            counts["eq_queries"] += report.rounds
            counts["learner.close_steps"] += events.count("close")
            counts["learner.consistent_steps"] += events.count("consistent")
            counts["learner.cex_updates"] += events.count("counterexample")
            counts["learner.red_rows"] += red
            counts["learner.blue_rows"] += blue
            counts["learner.suffixes"] += suffixes
            counts["learner.cells"] += (red + blue) * suffixes
            outputs.append((report, cache.misses))
        counts["models.http_requests"] = (
            self.stub.requests - requests_before if self.stub else 0
        )
        counts.update(probe.counts())
        return PassResult(task_s, reference_s, counts, outputs, tracer, probe.latencies())

    def verify(self, result: PassResult) -> list[str]:
        """One message per target whose run did not converge to its quotient."""
        out = []
        for index, (report, misses) in enumerate(result.outputs):
            target = self.targets[index]
            if not report.converged or report.hypothesis is None:
                problems = [f"did not converge ({report.stop_reason})"]
            else:
                problems = []
                if report.mq_count != misses:
                    problems.append(f"report counts {report.mq_count} MQs, cache {misses}")
                if not isomorphic(report.hypothesis, self.references[index]):
                    problems.append("hypothesis is not isomorphic to the quotient")
                if lm_equivalent(realize(report.hypothesis), target, self.spec) is not None:
                    problems.append("realized hypothesis differs from the target")
            if problems:
                out.append(f"target {index} ({target.n_states} states): {'; '.join(problems)}")
        return out

    def close(self) -> None:
        if self.stub:
            self.stub.close()


class LearnTable(_Learn):
    """Exact oracle against in-process PDFA targets: table bookkeeping."""

    SIZES = {"full": [50] * 24 + [200] * 8, "tiny": [20] * 3 + [40]}

    def __init__(self, rng: random.Random, size: str):
        super().__init__([random_pdfa(rng, n) for n in self.SIZES[size]], "quant:20")

    def model_for(self, target):
        return PdfaLanguageModel(target)

    def oracle_for(self, target, cache, tr):
        return tr.call("teacher", "init", ExactOracle, target, self.spec)


class LearnRemote(_Learn):
    """Sampling oracle against targets behind the HTTP stub: round trips."""

    SIZES = {"full": [40] * 10, "tiny": [13] * 2}

    def __init__(self, rng: random.Random, size: str):
        super().__init__([random_pdfa(rng, n) for n in self.SIZES[size]], "quant:20")
        self.config = SamplingConfig(samples=1000, max_length=40, seed=0)
        self.stub = LmStub(self.targets[0], STUB_DELAY_S)
        try:
            self.remote = RemoteModel(self.stub.endpoint, self.targets[0].alphabet)
            self._warm_up()
        except BaseException:
            self.stub.close()
            raise

    def _warm_up(self) -> None:
        """Open the keep-alive connection and check the stub's round trip."""
        words = [("a",) * i for i in range(WARMUP_QUERIES)]
        rtts = []
        for word in words:
            start = time.perf_counter()
            self.remote.query(word)
            rtts.append(time.perf_counter() - start)
        p50 = statistics.median(rtts)
        if p50 > STUB_DELAY_S + RTT_SLACK_S:
            raise RuntimeError(
                f"stub round trip p50 {p50 * 1e3:.2f} ms exceeds the injected "
                f"{STUB_DELAY_S * 1e3:.1f} ms by more than {RTT_SLACK_S * 1e3:.1f} ms"
            )

    def model_for(self, target):
        return self.remote

    def oracle_for(self, target, cache, tr):
        return SamplingOracle(cache, self.spec, self.config)


class OfflineOps:
    """Automaton and tolerance operations on a blown-up PDFA; no learner."""

    SIZES = {"full": (400, 48, 400, 10), "tiny": (30, 5, 30, 6)}
    SPEC = "combo:quant:20+rank:2"
    CLIQUE_SIMILARITY = "vd:0.1"
    #: Quotient members differ by under one quant:20 bucket per symbol.
    CLOSENESS = "vd:0.05"
    CLOSENESS_LENGTH = 6

    stub = None

    def __init__(self, rng: random.Random, size: str):
        self.clock = TaskClock()
        n_states, copies, self.prop17_bound, n_dists = self.SIZES[size]
        self.spec = parse_equivalence(self.SPEC)
        self.minimal = realize(quotient(random_pdfa(rng, n_states), self.spec))
        self.blown = blow_up(rng, self.minimal, copies)
        self.reference = quotient(self.minimal, self.spec)
        self.wrong = quotient(self._mutant(rng), self.spec)
        self.reference_cex = lm_equivalent(realize(self.wrong), self.minimal, self.spec)
        self.dists = clustered_distributions(rng, self.minimal.alphabet, n_dists, 3, 0.06)
        self.clique_similarity = parse_similarity(self.CLIQUE_SIMILARITY)
        self.closeness = parse_similarity(self.CLOSENESS)
        self.reference_partitions = len(
            enumerate_clique_partitions(self.dists, self.clique_similarity)
        )
        self.reference_cliques = sum(
            is_triangular(n) for n in range(self.prop17_bound + 1)
        )
        self.fingerprint = fingerprint([self.minimal, self.blown], self.dists)

    def _mutant(self, rng: random.Random) -> Pdfa:
        """``minimal`` with one state's emission moved to another class."""
        m = self.minimal
        state = rng.randrange(1, m.n_states) if m.n_states > 1 else 0
        own = signature(m.emissions[state], self.spec)
        other = next(d for d in m.emissions if signature(d, self.spec) != own)
        emissions = list(m.emissions)
        emissions[state] = other
        return Pdfa(m.alphabet, m.initial, tuple(emissions), m.transitions)

    def run_pass(self, tracer: Tracer | None) -> PassResult:
        tr = tracer or Untraced
        probe = _Probe(tracer)
        blown, spec = self.blown, self.spec
        task_s, reference_s = [], []

        def task(layer, name, fn, *args):
            out, raw, speed = self.clock.time(tr.call, layer, name, fn, *args)
            task_s.append(raw)
            reference_s.append(raw * speed)
            return out

        q = task("automata", "quotient", quotient, blown, spec)
        realized = task("automata", "realize", realize, q)
        verdict = task("automata", "lm_equivalent", lm_equivalent, realized, blown, spec)
        accepted, counterexample = task("automata", "exact_check", self._exact_checks, q)
        pdfa_back, q_back = task("automata", "json_roundtrip", self._roundtrip, q)
        same = task("automata", "isomorphic", isomorphic, q, self.reference)
        close = task(
            "tolerance", "string_tolerant", string_tolerant,
            probe.cache(PdfaLanguageModel(blown)), probe.cache(PdfaLanguageModel(realized)),
            self.closeness, self.CLOSENESS_LENGTH,
        )
        separation = task(
            "tolerance", "prop17", demo_recognizable_not_regular, self.prop17_bound
        )
        partitions = task(
            "tolerance", "cliques", enumerate_clique_partitions,
            self.dists, self.clique_similarity,
        )

        outputs = {
            "quotient size": (q.n_states, self.reference.n_states),
            "quotient isomorphic to the minimal one": (same, True),
            "realized quotient equivalent to the input": (verdict, None),
            "exact oracle accepts the quotient": (accepted, None),
            "exact oracle counterexample": (counterexample, self.reference_cex),
            "PDFA JSON round trip": (pdfa_back == blown, True),
            "quotient JSON round trip": (q_back == q, True),
            "realized quotient tolerance-close to the input": (close, None),
            "prop17 tolerance": (separation.tolerant_up_to_bound, True),
            "prop17 clique_lower_bound": (separation.clique_lower_bound, self.reference_cliques),
            "clique partition count": (len(partitions), self.reference_partitions),
        }
        counts = {
            "mq_misses": sum(c.misses for c in probe.caches),
            "mq_hits": sum(c.hits for c in probe.caches),
            "eq_queries": 2,
            "automata.states_in": blown.n_states,
            "automata.states_out": q.n_states,
            "tolerance.partitions": len(partitions),
            "models.http_requests": 0,
        }
        counts.update(probe.counts())
        return PassResult(
            task_s, reference_s, counts, list(outputs.items()), tracer, probe.latencies()
        )

    def verify(self, result: PassResult) -> list[str]:
        """Each result equals the reference computed in set-up."""
        return [
            f"{name}: got {got!r}, expected {want!r}"
            for name, (got, want) in result.outputs
            if got != want
        ]

    def _exact_checks(self, q):
        oracle = ExactOracle(self.blown, self.spec)
        return oracle.check(q), oracle.check(self.wrong)

    def _roundtrip(self, q):
        pdfa_back = pdfa_from_json(json.loads(json.dumps(pdfa_to_json(self.blown))))
        q_back = quotient_from_json(json.loads(json.dumps(quotient_to_json(q))))
        return pdfa_back, q_back

    def close(self) -> None:
        pass


WORKLOADS = {
    "learn-table": LearnTable,
    "learn-remote": LearnRemote,
    "offline-ops": OfflineOps,
}
