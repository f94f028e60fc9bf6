"""CLI surface: subcommands, exit codes, emitted files, determinism."""

import json
import os
import subprocess
import sys

import pytest

from pdfa_forge import (
    lm_equivalent,
    parse_equivalence,
    pdfa_from_json,
    quotient_from_json,
    realize,
)
from pdfa_forge.bundled import fixture_json
from pdfa_forge.cli import main

from helpers import content_length_reply


def run_cli(*argv, out_dir=None):
    args = list(argv)
    if out_dir is not None:
        args = ["--out-dir", str(out_dir)] + args
    return main(args)


class TestLearnCommand:
    def test_collapsing_example(self, tmp_path, capsys):
        code = run_cli(
            "learn", "--model", "fixture:fig2a", "--equiv", "quant:3", "--eq", "exact",
            out_dir=tmp_path,
        )
        assert code == 0
        assert "learned 1 states" in capsys.readouterr().out
        hypothesis = quotient_from_json(
            json.loads((tmp_path / "hypothesis.json").read_text())
        )
        assert hypothesis.n_states == 1
        realization = pdfa_from_json(
            json.loads((tmp_path / "realization.json").read_text())
        )
        assert realization.n_states == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is True and report["states"] == 1
        trace_lines = (tmp_path / "trace.ndjson").read_text().splitlines()
        assert all(
            set(json.loads(line)) == {"event", "red", "blue", "suffixes", "classes"}
            for line in trace_lines
        )

    def test_three_state_example(self, tmp_path, capsys):
        code = run_cli(
            "learn", "--model", "fixture:fig3a", "--equiv", "quant:7", "--eq", "exact",
            out_dir=tmp_path,
        )
        assert code == 0
        assert "learned 3 states" in capsys.readouterr().out

    def test_emitted_realization_is_equivalent_to_target(self, tmp_path, fig3a):
        run_cli(
            "learn", "--model", "fixture:fig3a", "--equiv", "quant:7", "--eq", "exact",
            out_dir=tmp_path,
        )
        realized = pdfa_from_json(json.loads((tmp_path / "realization.json").read_text()))
        assert lm_equivalent(realized, fig3a, parse_equivalence("quant:7")) is None

    def test_round_limit_exit_code(self, tmp_path, capsys):
        code = run_cli(
            "learn", "--model", "builtin:m1", "--equiv", "exact",
            "--eq", "sample:400:40:7", "--max-rounds", "3",
            out_dir=tmp_path,
        )
        assert code == 3
        assert "did not converge" in capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is False

    def test_exhaustive_oracle_spec(self, tmp_path):
        code = run_cli(
            "learn", "--model", "fixture:fig3a", "--equiv", "quant:7",
            "--eq", "exhaustive:10", out_dir=tmp_path,
        )
        assert code == 0

    def test_sampling_seed_falls_back_to_global_seed(self, tmp_path):
        code = run_cli(
            "--seed", "9", "learn", "--model", "fixture:fig2b", "--equiv", "quant:3",
            "--eq", "sample:50:10", out_dir=tmp_path,
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "seed=9" in report["oracle"]

    def test_byte_identical_reruns(self, tmp_path):
        first, second = tmp_path / "one", tmp_path / "two"
        for target in (first, second):
            code = run_cli(
                "--seed", "5", "learn", "--model", "fixture:fig2a",
                "--equiv", "quant:10", "--eq", "exact", out_dir=target,
            )
            assert code == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestQuotientCommand:
    def test_quotient_files(self, tmp_path, capsys):
        code = run_cli(
            "quotient", "--model", "fixture:fig3a", "--equiv", "quant:7",
            out_dir=tmp_path,
        )
        assert code == 0
        assert "3 states" in capsys.readouterr().out
        h = quotient_from_json(json.loads((tmp_path / "quotient.json").read_text()))
        assert h.equivalence == "quant:7"
        assert (tmp_path / "quotient.dot").read_text().startswith("digraph")

    def test_emitted_quotient_realizes(self, tmp_path):
        run_cli(
            "quotient", "--model", "fixture:fig2a", "--equiv", "quant:3",
            out_dir=tmp_path,
        )
        h = quotient_from_json(json.loads((tmp_path / "quotient.json").read_text()))
        assert realize(h).n_states == 1


class TestCompareCommand:
    def test_equivalent_verdict(self, capsys):
        code = run_cli("compare", "fixture:fig2a", "fixture:fig2b", "--equiv", "quant:3")
        assert code == 0
        assert capsys.readouterr().out.strip() == "equivalent"

    def test_counterexample_is_the_empty_word(self, capsys):
        code = run_cli("compare", "fixture:fig2a", "fixture:fig2b", "--equiv", "exact")
        assert code == 0
        assert capsys.readouterr().out.strip() == 'counterexample ""'

    def test_file_arguments(self, tmp_path, capsys, fig2a):
        from pdfa_forge import pdfa_to_json

        path = tmp_path / "model.json"
        path.write_text(json.dumps(pdfa_to_json(fig2a)))
        code = run_cli("compare", str(path), "fixture:fig2a", "--equiv", "exact")
        assert code == 0
        assert capsys.readouterr().out.strip() == "equivalent"


class TestCliquesCommand:
    def test_three_partitions(self, tmp_path, capsys):
        code = run_cli(
            "cliques", "fixture:fig3-dists", "--sim", "vd:0.15", out_dir=tmp_path,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 clique partition(s)" in out
        payload = json.loads((tmp_path / "cliques.json").read_text())
        assert payload["similarity"] == "vd:0.15"
        assert len(payload["partitions"]) == 3
        assert sorted(map(sorted, payload["partitions"])) == [
            [[0], [1], [2]],
            [[0, 1], [2]],
            [[0, 2], [1]],
        ]

    @pytest.mark.parametrize("value", ["0.5", True, None])
    def test_probabilities_that_are_not_numbers_are_io_errors(self, tmp_path, capsys, value):
        path = tmp_path / "dists.json"
        path.write_text(json.dumps([{"a": 0.5, "$": 0.5}, {"a": value, "$": 0.5}]))
        code = run_cli("cliques", str(path), "--sim", "vd:0.15", out_dir=tmp_path)
        assert code == 2
        assert "is not a number" in capsys.readouterr().err

    def test_string_alphabet_is_an_io_error(self, tmp_path, capsys):
        # A string is iterable, so it would otherwise be split into symbols.
        path = tmp_path / "dists.json"
        path.write_text(json.dumps({"alphabet": "ab", "distributions": [
            {"a": 0.5, "b": 0.25, "$": 0.25}, {"a": 0.25, "b": 0.5, "$": 0.25},
        ]}))
        code = run_cli("cliques", str(path), "--sim", "vd:0.15", out_dir=tmp_path)
        assert code == 2
        assert "'alphabet' must be a list of symbols, got str" in capsys.readouterr().err

    def test_bare_list_input(self, tmp_path, capsys):
        path = tmp_path / "dists.json"
        path.write_text(json.dumps([{"a": 0.5, "$": 0.5}, {"a": 0.4, "$": 0.6}]))
        code = run_cli("cliques", str(path), "--sim", "vd:0.15", out_dir=tmp_path)
        assert code == 0
        assert "2 clique partition(s)" in capsys.readouterr().out


class TestExportCommand:
    def test_dot_on_stdout(self, capsys):
        code = run_cli("export", "--model", "fixture:fig2b")
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") and '"a/0.5"' in out

    def test_dot_to_file(self, tmp_path):
        target = tmp_path / "b.dot"
        code = run_cli("export", "--model", "fixture:fig2b", "--out", str(target))
        assert code == 0
        assert '"a/0.5"' in target.read_text()

    def test_quotient_documents_export_too(self, tmp_path):
        run_cli("quotient", "--model", "fixture:fig3a", "--equiv", "quant:7",
                out_dir=tmp_path)
        code = run_cli("export", "--model", str(tmp_path / "quotient.json"))
        assert code == 0

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("equivalence", None, "'equivalence' must be a string"),
            ("signature", 5, "malformed class signature"),
        ],
    )
    def test_malformed_quotient_document_is_an_io_error(
        self, tmp_path, capsys, field, value, message
    ):
        run_cli("quotient", "--model", "fixture:fig3a", "--equiv", "quant:7",
                out_dir=tmp_path)
        path = tmp_path / "quotient.json"
        doc = json.loads(path.read_text())
        (doc if field == "equivalence" else doc["states"][0])[field] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("export", "--model", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestDemoCommand:
    def test_bound_21(self, tmp_path, capsys):
        code = run_cli("demo-prop17", "--bound", "21", out_dir=tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "clique lower bound 6" in out
        payload = json.loads((tmp_path / "prop17.json").read_text())
        assert payload["tolerant_up_to_bound"] is True
        assert payload["marked_words"] == ["a", "aaa", "aaaaaa",
                                           "a" * 10, "a" * 15, "a" * 21]

    def test_a_bound_above_the_cap_is_a_configuration_error(self, tmp_path, capsys):
        from pdfa_forge.tolerance import MAX_DEMO_BOUND

        code = run_cli("demo-prop17", "--bound", str(MAX_DEMO_BOUND + 1), out_dir=tmp_path)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: bound must be <= {MAX_DEMO_BOUND}, got {MAX_DEMO_BOUND + 1}\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestConfigAndErrors:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("# compare settings\nequiv = quant:3\n")
        code = run_cli(
            "--config", str(config), "compare", "fixture:fig2a", "fixture:fig2b"
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "equivalent"

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("equiv = quant:3\n")
        code = run_cli(
            "--config", str(config), "compare", "fixture:fig2a", "fixture:fig2b",
            "--equiv", "exact",
        )
        assert code == 0
        assert "counterexample" in capsys.readouterr().out

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("nonsense = 3\n")
        code = run_cli("--config", str(config), "compare", "fixture:fig2a", "fixture:fig2b")
        assert code == 1

    @pytest.mark.parametrize("line, expected", [
        ("prune = ture", 1),
        ("renormalize = maybe", 1),
        ("prune =", 1),
        ("prune = OFF", 0),
        ("renormalize = Yes", 0),
    ])
    def test_config_booleans_accept_only_known_words(self, tmp_path, capsys, line, expected):
        config = tmp_path / "run.conf"
        config.write_text(f"equiv = quant:3\n{line}\n")
        code = run_cli("--config", str(config), "compare", "fixture:fig2a", "fixture:fig2b")
        assert code == expected

    def test_a_key_given_twice_is_a_configuration_error(self, tmp_path, capsys):
        # The last value used to win silently; "max-rounds" and "max_rounds"
        # are one key.
        config = tmp_path / "run.conf"
        config.write_text("equiv = quant:3\nprune = off\n# again\nequiv = quant:7\n")
        code = run_cli("--config", str(config), "compare", "fixture:fig2a", "fixture:fig2b")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {config}:4: config key 'equiv' given again (first on line 1)\n"
        )
        config.write_text("max-rounds = 3\nmax_rounds = 3\n")
        assert run_cli("--config", str(config), "compare", "fixture:fig2a", "fixture:fig2b") == 1
        assert "config key 'max_rounds' given again (first on line 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("line, argv", [
        ("out_dir = o\0ut", ["quotient", "--model", "fixture:fig2a", "--equiv", "quant:3"]),
        ("prefix = p\0", ["quotient", "--model", "fixture:fig2a", "--equiv", "quant:3"]),
        ("out = o\0ut.dot", ["export", "--model", "fixture:fig2a"]),
    ], ids=["out_dir", "prefix", "out"])
    def test_an_output_path_with_a_nul_is_an_io_error(self, tmp_path, capsys, monkeypatch, line, argv):
        # A NUL cannot come from the command line, only from a config file;
        # the path functions raise ValueError for it, not OSError.
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.conf"
        config.write_text(line + "\n")
        assert run_cli("--config", str(config), *argv) == 2
        assert capsys.readouterr().err.startswith("error: cannot ")
        assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]

    def test_a_document_path_with_a_nul_is_unreadable(self, tmp_path, capsys):
        # Not "not valid JSON": the path is at fault, not the document.
        config = tmp_path / "run.conf"
        config.write_text("model = a\0b\n")
        code = run_cli("--config", str(config), "quotient", "--equiv", "quant:3", out_dir=tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot read a\0b: ")

    def test_config_file_that_is_not_utf8_is_an_io_error(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_bytes(b"equiv = quant:3\n\xff\n")
        code = run_cli("--config", str(config), "compare", "fixture:fig2a", "fixture:fig2b")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot read config file: ")

    def test_bad_equivalence_spec_is_config_error(self, capsys):
        code = run_cli("compare", "fixture:fig2a", "fixture:fig2b", "--equiv", "quant:zero")
        assert code == 1

    def test_missing_model_file_is_io_error(self, tmp_path):
        code = run_cli("compare", str(tmp_path / "missing.json"), "fixture:fig2a",
                       "--equiv", "exact")
        assert code == 2

    def test_exact_oracle_needs_a_pdfa_backed_model(self, tmp_path):
        code = run_cli(
            "learn", "--model", "builtin:m1", "--equiv", "exact", "--eq", "exact",
            out_dir=tmp_path,
        )
        assert code == 1

    @pytest.mark.parametrize("flags", [
        ("--eq", "exhaustive:-1"),
        ("--eq", "sample:0:5"),
        ("--eq", "sample:10:-1"),
        ("--max-rounds", "-2"),
        ("--max-cells", "-5"),
    ])
    def test_out_of_range_limits_are_configuration_errors(self, tmp_path, capsys, flags):
        # Each of these used to run (and accept a wrong hypothesis, or stop
        # with "did not converge") or die with a traceback.
        code = run_cli(
            "learn", "--model", "fixture:fig2a", "--equiv", "quant:10", *flags,
            out_dir=tmp_path,
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {flags[0]}")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags, message", [
        *[(("--eq", spec), f"bad --eq spec {spec!r}") for spec in (
            "foo", "sample:10", "sample:a:5", "sample:1:2:3:4", "exhaustive", "exhaustive:1:2",
        )],
        (("--model", "fixture:nope"), "unknown fixture 'nope'"),
        (("--model", "builtin:m9"), "unknown builtin model 'm9'"),
    ])
    def test_bad_eq_specs_and_unknown_sources_are_configuration_errors(
        self, tmp_path, capsys, flags, message
    ):
        # A repeated flag's last value wins, so ``flags`` replaces a valid one.
        code = run_cli(
            "learn", "--model", "builtin:m1", "--equiv", "quant:10", "--eq", "exhaustive:3",
            *flags, out_dir=tmp_path,
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not any(tmp_path.iterdir())

    def test_remote_source_needs_alphabet(self, tmp_path):
        code = run_cli(
            "learn", "--model", "http://127.0.0.1:1", "--equiv", "exact",
            out_dir=tmp_path,
        )
        assert code == 1

    @pytest.mark.parametrize("symbol", ["$", "z"])
    def test_transition_outside_the_alphabet_is_an_io_error(self, tmp_path, capsys, symbol):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "alphabet": ["a"], "initial": 0,
            "states": [{"id": 0, "dist": {"a": 0.5, "$": 0.5}}],
            "transitions": [
                {"from": 0, "symbol": "a", "to": 0},
                {"from": 0, "symbol": symbol, "to": 0},
            ],
        }))
        code = run_cli("compare", str(bad), "fixture:fig2a", "--equiv", "exact")
        assert code == 2
        assert f"symbol {symbol!r} outside alphabet" in capsys.readouterr().err

    def test_malformed_model_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "alphabet": ["a"], "initial": 0,
            "states": [{"id": 0, "dist": {"a": 0.5, "$": 0.5}}],
            "transitions": [],
        }))
        code = run_cli("compare", str(bad), "fixture:fig2a", "--equiv", "exact")
        assert code == 2


class TestOptionTable:
    """Config keys are exactly the flag names; each parser reads only its own."""

    def write_config(self, tmp_path, text):
        config = tmp_path / "run.conf"
        config.write_text(text)
        return str(config)

    @pytest.mark.parametrize("flags", [
        ("--timeout", "3"),
        ("--alphabet", "a"),
        ("--renormalize",),
        ("--max-query-length", "3"),
    ])
    def test_quotient_takes_no_remote_model_flags(self, tmp_path, capsys, flags):
        # quotient reads a file or fixture, so a remote-model flag could have no effect.
        with pytest.raises(SystemExit) as exc:
            run_cli("quotient", "--model", "fixture:fig3a", "--equiv", "quant:7", *flags,
                    out_dir=tmp_path)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["fixture:fig3a", "builtin:m1", "file"])
    @pytest.mark.parametrize("flags, named", [
        (("--alphabet", "zz", "--timeout", "-5", "--max-query-length", "0"),
         "--alphabet, --timeout, --max-query-length"),
        (("--renormalize",), "--renormalize"),
        (("--timeout", "10"), "--timeout"),
    ])
    def test_learn_rejects_remote_model_flags_for_other_models(
        self, tmp_path, capsys, model, flags, named
    ):
        # The run would ignore them, even values a remote model rejects.
        if model == "file":
            model = str(tmp_path / "fig3a.json")
            (tmp_path / "fig3a.json").write_text(json.dumps(fixture_json("fig3a")))
        out = tmp_path / "out"
        code = run_cli("learn", "--model", model, "--equiv", "quant:7", "--eq", "exhaustive:3",
                       *flags, out_dir=out)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {model!r} is no remote (http/https) model; drop {named}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "alphabet = a", "timeout = 3", "renormalize = no", "max_query_length = 5",
    ])
    def test_learn_rejects_remote_model_config_keys_for_other_models(
        self, tmp_path, capsys, line
    ):
        config = self.write_config(tmp_path, line + "\n")
        code = run_cli("--config", config, "learn", "--model", "fixture:fig3a",
                       "--equiv", "quant:7", out_dir=tmp_path / "out")
        assert code == 1
        flag = "--" + line.split(" =")[0].replace("_", "-")
        assert capsys.readouterr().err.endswith(f"drop {flag}\n")

    def test_key_without_a_flag_is_unknown(self, tmp_path, capsys):
        config = self.write_config(tmp_path, "max_len = 3\n")
        code = run_cli("--config", config, "compare", "fixture:fig2a", "fixture:fig2b")
        assert code == 1
        assert "unknown config key 'max_len'" in capsys.readouterr().err

    def test_out_key_sets_the_export_target(self, tmp_path):
        target = tmp_path / "f.dot"
        config = self.write_config(tmp_path, f"out = {target}\n")
        assert run_cli("--config", config, "export", "--model", "fixture:fig2b") == 0
        assert target.read_text().startswith("digraph")

    def test_keys_for_other_subcommands_are_ignored(self, tmp_path, capsys):
        config = self.write_config(tmp_path, "sim = vd:0.1\nequiv = quant:3\nout = x.dot\n")
        code = run_cli("--config", config, "compare", "fixture:fig2a", "fixture:fig2b")
        assert code == 0
        assert capsys.readouterr().out.strip() == "equivalent"

    def test_global_keys_reach_the_subcommand(self, tmp_path):
        config = self.write_config(tmp_path, f"seed = 9\nout-dir = {tmp_path / 'out'}\n")
        code = run_cli("--config", config, "learn", "--model", "fixture:fig2b",
                       "--equiv", "quant:3", "--eq", "sample:50:10")
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "seed=9" in report["oracle"]

    @pytest.mark.parametrize("argv", [("quotient", "--equiv", "quant:3"), ("export",)])
    def test_missing_model_is_a_configuration_error(self, tmp_path, capsys, argv):
        assert run_cli(*argv, out_dir=tmp_path) == 1
        assert capsys.readouterr().err == "error: --model is required\n"

    def test_nan_similarity_threshold_is_a_configuration_error(self, tmp_path, capsys):
        code = run_cli("cliques", "fixture:fig3-dists", "--sim", "vd:nan", out_dir=tmp_path)
        assert code == 1
        assert "threshold must be >= 0, got nan" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_document_that_is_not_an_object_is_an_io_error(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text("3")
        assert run_cli("export", "--model", str(path)) == 2
        assert "automaton document must be a JSON object, got int" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000],
                             ids=["not-utf-8", "nested-too-deeply"])
    @pytest.mark.parametrize("argv", [
        ["compare", "DOC", "fixture:fig2a", "--equiv", "quant:3"],
        ["quotient", "--model", "DOC", "--equiv", "quant:3"],
        ["export", "--model", "DOC"],
        ["cliques", "DOC", "--sim", "vd:0.1"],
    ], ids=lambda argv: argv[0])
    def test_unreadable_document_is_an_io_error(self, tmp_path, capsys, content, argv):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        code = run_cli(*[str(path) if arg == "DOC" else arg for arg in argv], out_dir=tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path} is not valid JSON: ")
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    @pytest.mark.parametrize("dist, message", [
        ('{"a": 1%s, "$": 0}' % ("0" * 400), "probability of 'a' out of [0,1]: too large"),
        ('{"a": 0.9, "$": 0.5, "a": 0.5}', "is not valid JSON: duplicate key 'a'"),
        ('{"a": NaN, "$": 0.5}', "is not valid JSON: NaN is not a JSON number"),
        ('{"a": 0.5, "$": -Infinity}', "is not valid JSON: -Infinity is not a JSON number"),
    ], ids=["huge-integer", "duplicate-key", "nan", "infinity"])
    @pytest.mark.parametrize("argv", [
        ["compare", "DOC", "fixture:fig2a", "--equiv", "quant:3"],
        ["quotient", "--model", "DOC", "--equiv", "quant:3"],
        ["export", "--model", "DOC"],
        ["cliques", "DOC", "--sim", "vd:0.1"],
    ], ids=lambda argv: argv[0])
    def test_a_distribution_json_cannot_hold_is_an_io_error(
        self, tmp_path, capsys, dist, message, argv
    ):
        path = tmp_path / "doc.json"
        if argv[0] == "cliques":
            path.write_text(f"[{dist}]")
        else:
            path.write_text(
                '{"alphabet": ["a"], "initial": 0, "states": [{"id": 0, "dist": %s}], '
                '"transitions": [{"from": 0, "symbol": "a", "to": 0}]}' % dist
            )
        code = run_cli(*[str(path) if arg == "DOC" else arg for arg in argv], out_dir=tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_a_repeated_document_key_is_an_io_error(self, tmp_path, capsys):
        # The last "initial" would name the one state; the first names none.
        path = tmp_path / "doc.json"
        path.write_text(
            '{"alphabet": ["a"], "initial": 5, "initial": 0, '
            '"states": [{"id": 0, "dist": {"a": 0.5, "$": 0.5}}], '
            '"transitions": [{"from": 0, "symbol": "a", "to": 0}]}'
        )
        assert run_cli("quotient", "--model", str(path), "--equiv", "quant:3", out_dir=tmp_path) == 2
        assert capsys.readouterr().err == f"error: {path} is not valid JSON: duplicate key 'initial'\n"


class TestRemoteModelSource:
    def test_learn_from_http_endpoint(self, tmp_path, lm_server, fig3a, capsys):
        lm_server.serve_pdfa(fig3a)
        code = run_cli(
            "learn", "--model", lm_server.endpoint, "--alphabet", "a",
            "--equiv", "quant:7", "--eq", "exhaustive:8",
            out_dir=tmp_path,
        )
        assert code == 0
        assert "learned 3 states" in capsys.readouterr().out

    def test_deeply_nested_reply_is_a_network_error(self, tmp_path, lm_server, capsys):
        lm_server.set_behavior(lambda path, body: (200, {}))
        deep = b'{"probs":' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        lm_server.reply = lambda status, data: content_length_reply(status, deep)
        code = run_cli(
            "learn", "--model", lm_server.endpoint, "--alphabet", "a",
            "--equiv", "quant:3", "--eq", "exhaustive:3",
            out_dir=tmp_path,
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: malformed response body: ")

    @pytest.mark.parametrize("body, message", [
        (b'{"probs": {"a": 1%s, "$": 0}}' % (b"0" * 400), "probability of 'a' is too large"),
        (b'{"probs": {"a": 0.9, "$": 0.5, "a": 0.5}}', "malformed response body: duplicate key"),
    ], ids=["huge-integer", "duplicate-key"])
    def test_a_reply_json_cannot_hold_is_a_network_error(
        self, tmp_path, lm_server, capsys, body, message
    ):
        lm_server.set_behavior(lambda path, body: (200, {}))
        lm_server.reply = lambda status, data: content_length_reply(status, body)
        code = run_cli(
            "learn", "--model", lm_server.endpoint, "--alphabet", "a",
            "--equiv", "quant:3", "--eq", "exhaustive:3",
            out_dir=tmp_path,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_unreachable_endpoint_is_a_network_error(self, tmp_path):
        code = run_cli(
            "learn", "--model", "http://127.0.0.1:9", "--alphabet", "a",
            "--equiv", "quant:3", "--eq", "exhaustive:3", "--timeout", "0.2",
            out_dir=tmp_path,
        )
        assert code == 2

    def test_malformed_endpoint_is_a_configuration_error(self, tmp_path):
        code = run_cli(
            "learn", "--model", "http://127.0.0.1:notaport", "--alphabet", "a",
            "--equiv", "quant:3", "--eq", "exhaustive:3",
            out_dir=tmp_path,
        )
        assert code == 1

    @pytest.mark.parametrize("symbols", ["a,a", "a,$", ",", ",,"])
    def test_invalid_alphabet_is_a_configuration_error(self, tmp_path, capsys, symbols):
        code = run_cli(
            "learn", "--model", "http://127.0.0.1:9", "--alphabet", symbols,
            "--equiv", "quant:3", "--eq", "exhaustive:3",
            out_dir=tmp_path,
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_positive_timeout_is_a_configuration_error(self, tmp_path):
        code = run_cli(
            "learn", "--model", "http://127.0.0.1:9", "--alphabet", "a",
            "--equiv", "quant:3", "--eq", "exhaustive:3", "--timeout", "0",
            out_dir=tmp_path,
        )
        assert code == 1


def test_a_non_integer_state_reference_is_an_io_error(tmp_path, capsys):
    doc = fixture_json("fig2a")
    doc["initial"] = False
    path = tmp_path / "bool_initial.json"
    path.write_text(json.dumps(doc))
    assert run_cli("compare", str(path), "fixture:fig2b", "--equiv", "exact") == 2
    assert "'initial' must be an integer state id, got False" in capsys.readouterr().err


class TestPruneFlag:
    def write_unreachable(self, tmp_path):
        doc = {
            "alphabet": ["a"],
            "initial": 0,
            "states": [
                {"id": 0, "dist": {"a": 0.5, "$": 0.5}},
                {"id": 1, "dist": {"a": 0.4, "$": 0.6}},
            ],
            "transitions": [
                {"from": 0, "symbol": "a", "to": 0},
                {"from": 1, "symbol": "a", "to": 0},
            ],
        }
        path = tmp_path / "orphan.json"
        path.write_text(json.dumps(doc))
        return path

    def test_unreachable_states_are_rejected_by_default(self, tmp_path):
        path = self.write_unreachable(tmp_path)
        assert run_cli("compare", str(path), "fixture:fig2b", "--equiv", "exact") == 2

    def test_prune_opts_in(self, tmp_path, capsys):
        path = self.write_unreachable(tmp_path)
        code = run_cli(
            "compare", str(path), "fixture:fig2b", "--equiv", "exact", "--prune"
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "equivalent"


def test_console_script_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "pdfa_forge.cli", "--out-dir", str(tmp_path),
         "quotient", "--model", "fixture:fig2a", "--equiv", "quant:3"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "1 states" in result.stdout


def test_outputs_identical_across_processes_and_hash_seeds(tmp_path):
    # Set iteration order varies with PYTHONHASHSEED; emitted files must not.
    import os

    dirs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"seed{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        result = subprocess.run(
            [sys.executable, "-m", "pdfa_forge.cli", "--out-dir", str(out),
             "--seed", "5", "learn", "--model", "fixture:fig2a",
             "--equiv", "quant:10", "--eq", "exact"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        dirs.append(out)
    first, second = dirs
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_every_output_is_independent_of_the_hash_seed(tmp_path):
    # The test above covers one command; here each hash seed runs every
    # command below in one fresh process.
    commands = [
        ["learn", "--model", "fixture:fig3a", "--equiv", "quant:7", "--eq", "sample:300:12"],
        ["learn", "--model", "fixture:fig2a", "--equiv", "rank:2", "--eq", "exhaustive:6"],
        ["learn", "--model", "builtin:m1", "--equiv", "exact", "--eq", "sample:200:30",
         "--max-cells", "400"],
        ["cliques", "fixture:fig3-dists", "--sim", "vd:0.15"],
        ["quotient", "--model", "fixture:fig2b", "--equiv", "combo:quant:3+top:1"],
    ]
    script = (
        "import json, sys\n"
        "from pdfa_forge.cli import main\n"
        "out, commands = sys.argv[1], json.loads(sys.argv[2])\n"
        "for i, argv in enumerate(commands):\n"
        "    assert main(['--out-dir', f'{out}/{i}', *argv]) == 0, argv\n"
    )
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"seed{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        result = subprocess.run(
            [sys.executable, "-c", script, str(out), json.dumps(commands)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        outputs.append({
            path.relative_to(out): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()
        })
    assert len(outputs[0]) == 21
    assert outputs[0] == outputs[1]
