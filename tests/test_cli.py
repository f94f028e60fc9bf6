"""CLI surface: subcommands, exit codes, emitted files, determinism."""

import json
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
