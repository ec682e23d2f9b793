"""The linter against the real tree: clean now, loud on regression.

Two halves:

* the merged tree lints clean — ``repro lint src benchmarks`` (the CI
  gate) must exit 0, so this suite fails the moment a PR introduces a
  violation without fixing or annotating it;
* *mutation* checks — textually deleting any single ``with self._lock``
  / ``with self._lazy_lock`` guard in ``abft/base.py`` or the
  ``unlink()`` call in ``faults/parallel.py`` must produce an RL002 /
  RL003 finding.  This is the acceptance property of the rules: the
  gate stays armed even when the only lexical evidence of the contract
  is removed.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_source

_GUARD_RE = re.compile(r"^(\s*)with self\._(?:lazy_)?lock:\s*(?:#.*)?$")


def _delete_guard(source: str, occurrence: int) -> str:
    """Remove the Nth ``with self.<lock>:`` line, dedenting its body."""
    lines = source.splitlines(keepends=True)
    seen = -1
    for i, line in enumerate(lines):
        match = _GUARD_RE.match(line)
        if match is None:
            continue
        seen += 1
        if seen != occurrence:
            continue
        indent = len(match.group(1))
        del lines[i]
        j = i
        while j < len(lines):
            body_line = lines[j]
            if body_line.strip() == "":
                j += 1
                continue
            if len(body_line) - len(body_line.lstrip()) <= indent:
                break
            lines[j] = body_line.replace(" " * (indent + 4), " " * indent, 1)
            j += 1
        return "".join(lines)
    raise AssertionError(f"guard occurrence {occurrence} not found")


def _guard_count(path: Path) -> int:
    return sum(
        1 for line in path.read_text().splitlines() if _GUARD_RE.match(line)
    )


class TestTreeIsClean:
    def test_src_and_benchmarks_lint_clean(self, repo_root, repo_config):
        result = lint_paths(
            [repo_root / "src", repo_root / "benchmarks"], repo_config
        )
        assert result.findings == (), [f.render() for f in result.findings]
        assert result.n_files > 100  # the whole engine, not a subset

    def test_examples_lint_clean(self, repo_root, repo_config):
        result = lint_paths([repo_root / "examples"], repo_config)
        assert result.findings == (), [f.render() for f in result.findings]


class TestGuardDeletionRegression:
    def test_base_py_has_the_expected_guards(self, repo_root):
        assert _guard_count(repo_root / "src" / "repro" / "abft" / "base.py") == 5

    @pytest.mark.parametrize("occurrence", range(5))
    def test_deleting_any_lock_guard_in_base_trips_rl002(
        self, repo_root, repo_config, occurrence
    ):
        path = repo_root / "src" / "repro" / "abft" / "base.py"
        mutated = _delete_guard(path.read_text(), occurrence)
        found = lint_source(mutated, path=str(path), config=repo_config)
        assert any(f.rule == "RL002" for f in found), (
            f"deleting lock guard #{occurrence} went undetected"
        )

    def test_deleting_unlink_in_parallel_trips_rl003(self, repo_root, repo_config):
        path = repo_root / "src" / "repro" / "faults" / "parallel.py"
        source = path.read_text()
        mutated = source.replace("            shm.unlink()", "            pass")
        assert mutated != source, "expected shm.unlink() call in _gather_shards"
        found = lint_source(mutated, path=str(path), config=repo_config)
        assert any(f.rule == "RL003" for f in found)

    def test_unguarding_synthesized_memo_trips_rl002(self, repo_root, repo_config):
        path = repo_root / "src" / "repro" / "api" / "session.py"
        mutated = _delete_guard(path.read_text(), 0)
        found = lint_source(mutated, path=str(path), config=repo_config)
        assert any(
            f.rule == "RL002" and "_synthesized" in f.message for f in found
        )

    @pytest.mark.parametrize("occurrence", (1, 2))
    def test_unguarding_held_states_trips_rl002(
        self, repo_root, repo_config, occurrence
    ):
        # Guards 1 and 2 in session.py are the held-state memo's read
        # and publish in ProtectedSession._layer_state.
        path = repo_root / "src" / "repro" / "api" / "session.py"
        assert _guard_count(path) == 3
        mutated = _delete_guard(path.read_text(), occurrence)
        found = lint_source(mutated, path=str(path), config=repo_config)
        assert any(f.rule == "RL002" and "_held" in f.message for f in found)

    @pytest.mark.parametrize("occurrence", (1, 2))
    def test_unguarding_recorded_states_trips_rl002(
        self, repo_root, repo_config, occurrence
    ):
        # Guards 1 and 2 in inference.py are the operand record's read
        # (ProtectedInference.recorded_layer) and its commit (run).
        path = repo_root / "src" / "repro" / "nn" / "inference.py"
        assert _guard_count(path) == 3
        mutated = _delete_guard(path.read_text(), occurrence)
        found = lint_source(mutated, path=str(path), config=repo_config)
        assert any(
            f.rule == "RL002" and "_recorded_states" in f.message
            for f in found
        )

    def test_removing_all_entry_trips_rl006(self, repo_root, repo_config):
        path = repo_root / "src" / "repro" / "__init__.py"
        source = path.read_text()
        mutated = source.replace('from .gpu import GPUSpec, get_gpu, list_gpus',
                                 'from .gpu import get_gpu, list_gpus')
        assert mutated != source
        found = lint_source(mutated, path=str(path), config=repo_config)
        assert any(
            f.rule == "RL006" and "GPUSpec" in f.message for f in found
        )
