"""``repro lint`` through the CLI: exit codes, --json, the summary."""

from __future__ import annotations

import json

from repro.cli import main

_VIOLATION = "import os\ntoken = os.urandom(8)\n"
_CLEAN = "import numpy as np\nrng = np.random.default_rng(7)\n"


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(_CLEAN)
        assert main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(_VIOLATION)
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out and "os.urandom" in out

    def test_unknown_rule_code_exits_two(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(_CLEAN)
        assert main(["lint", str(tmp_path), "--select", "RL999"]) == 2
        assert "unknown rule codes" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "definitely/not/here"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_ignore_silences_the_rule(self, tmp_path):
        (tmp_path / "bad.py").write_text(_VIOLATION)
        assert main(["lint", str(tmp_path), "--ignore", "RL001"]) == 0

    def test_select_narrows_the_run(self, tmp_path):
        (tmp_path / "bad.py").write_text(_VIOLATION)
        assert main(["lint", str(tmp_path), "--select", "RL002"]) == 0
        assert main(["lint", str(tmp_path), "--select", "RL001,RL002"]) == 1


class TestJson:
    def test_json_document(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(_VIOLATION)
        assert main(["lint", str(tmp_path), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and doc["files"] == 1
        assert doc["findings"][0]["rule"] == "RL001"

    def test_json_clean(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(_CLEAN)
        assert main(["lint", str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


class TestListRules:
    def test_lists_every_contract(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
            assert code in out
        assert "contract:" in out and "backstops:" in out


class TestStepSummary:
    def test_summary_appended_when_env_set(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "bad.py").write_text(_VIOLATION)
        target = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(target))
        assert main(["lint", str(tmp_path)]) == 1
        capsys.readouterr()
        summary = target.read_text()
        assert "| rule | contract | findings |" in summary
        assert "Gate failed" in summary

    def test_no_summary_without_env(self, tmp_path, monkeypatch):
        (tmp_path / "ok.py").write_text(_CLEAN)
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        assert main(["lint", str(tmp_path)]) == 0


class TestRepoGate:
    def test_the_ci_invocation_passes_on_the_merged_tree(self, repo_root, capsys):
        # Exactly what .github/workflows/ci.yml runs (blocking).
        paths = ("src", "benchmarks", "examples", "perfbench")
        assert main(["lint", *(str(repo_root / p) for p in paths)]) == 0
        assert "clean" in capsys.readouterr().out
