"""Configuration of the invariant linter: ``[tool.repro.analysis]``.

The rule set, path exclusions, and the per-rule knobs all live in
``pyproject.toml`` under ``[tool.repro.analysis]`` so the configuration
rides the repo like the ruff config does.  Loading prefers the standard
:mod:`tomllib` parser (Python 3.11+); on 3.10 — which CI's matrix still
runs — a deliberately minimal fallback parser handles the subset this
section uses (string/bool scalars and arrays of strings, one table).

Unknown keys in the section raise :class:`~repro.errors.
ConfigurationError` rather than being silently dropped: a typo'd knob
that quietly disables a gate is exactly the failure mode this linter
exists to prevent.
"""

from __future__ import annotations

import ast as _pyast
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..errors import ConfigurationError

#: The pyproject table the linter reads.
SECTION = ("tool", "repro", "analysis")

#: Default prepared-state accessor attributes RL004 treats as read-only.
DEFAULT_RL004_ATTRS = (
    "c_clean", "a_pad", "b_pad", "b_wide", "clean_reductions"
)

#: Default module-path fragments RL005 (determinism of record/verdict
#: assembly) applies to: fault drawing, campaign records, and verdict
#: rendering all live under these packages.
DEFAULT_RL005_PATHS = ("repro/faults", "repro/abft")

#: Modules whose ``__all__`` must be *complete* (every public from-import
#: listed), not merely resolvable.  The root package is the enforced
#: supported surface (see tests/test_doctests.py).
DEFAULT_RL006_COMPLETE = ("repro",)


@dataclass(frozen=True)
class AnalysisConfig:
    """Resolved linter configuration."""

    #: Rule codes to run (default: every registered rule).
    select: tuple[str, ...] = ()
    #: Rule codes to drop from ``select``.
    ignore: tuple[str, ...] = ()
    #: Path fragments excluded from linting (posix, substring match).
    exclude: tuple[str, ...] = ("__pycache__/", "/tests/", "/.git/")
    #: Function names inside which RL004 permits prepared-state mutation.
    rl004_allow: tuple[str, ...] = ()
    #: Accessor attributes RL004 protects.
    rl004_attrs: tuple[str, ...] = DEFAULT_RL004_ATTRS
    #: Module-path fragments RL005 applies to.
    rl005_paths: tuple[str, ...] = DEFAULT_RL005_PATHS
    #: Dotted module names whose ``__all__`` must be complete (RL006).
    rl006_complete: tuple[str, ...] = DEFAULT_RL006_COMPLETE

    def enabled(self) -> tuple[str, ...]:
        """The codes to run: ``select`` (or all) minus ``ignore``."""
        from .core import all_codes

        codes = self.select or all_codes()
        unknown = [c for c in (*codes, *self.ignore) if c not in all_codes()]
        if unknown:
            raise ConfigurationError(
                f"unknown rule codes {sorted(set(unknown))}; "
                f"known rules are {list(all_codes())}"
            )
        return tuple(c for c in codes if c not in self.ignore)

    def excluded(self, posix_path: str) -> bool:
        """Whether a file path is excluded from linting."""
        return any(fragment in posix_path for fragment in self.exclude)

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "AnalysisConfig":
        """Build from the raw ``[tool.repro.analysis]`` table."""
        known = {f.name: f for f in fields(cls)}
        kwargs: dict[str, Any] = {}
        for raw_key, value in data.items():
            key = raw_key.replace("-", "_")
            if key not in known:
                raise ConfigurationError(
                    f"[tool.repro.analysis] has no option {raw_key!r}; "
                    f"known options are {sorted(known)}"
                )
            if not (
                isinstance(value, (list, tuple))
                and all(isinstance(v, str) for v in value)
            ):
                raise ConfigurationError(
                    f"[tool.repro.analysis] {raw_key} must be an array "
                    f"of strings, got {value!r}"
                )
            kwargs[key] = tuple(value)
        return cls(**kwargs)

    @classmethod
    def load(cls, start: "str | Path | None" = None) -> "AnalysisConfig":
        """Find and read ``pyproject.toml`` at/above ``start`` (or cwd).

        A missing file or a file without the section yields the
        defaults; a malformed section raises.
        """
        base = Path(start) if start is not None else Path.cwd()
        if base.is_file():
            base = base.parent
        for directory in (base, *base.parents):
            candidate = directory / "pyproject.toml"
            if candidate.is_file():
                return cls.from_pyproject(candidate)
        return cls()

    @classmethod
    def from_pyproject(cls, path: "str | Path") -> "AnalysisConfig":
        """Read the section out of one concrete ``pyproject.toml``."""
        text = Path(path).read_text(encoding="utf-8")
        table = _load_section(text)
        if table is None:
            return cls()
        return cls.from_mapping(table)

    def with_overrides(
        self,
        select: Sequence[str] | None = None,
        ignore: Sequence[str] | None = None,
    ) -> "AnalysisConfig":
        """CLI-flag overrides layered over the file configuration."""
        updated = self
        if select is not None:
            updated = replace(updated, select=tuple(select))
        if ignore is not None:
            updated = replace(updated, ignore=tuple(ignore))
        return updated


# ----------------------------------------------------------------------
# TOML section extraction (tomllib when available, minimal fallback)
# ----------------------------------------------------------------------
def _load_section(text: str) -> dict[str, Any] | None:
    """The raw ``[tool.repro.analysis]`` table of a pyproject text."""
    try:
        import tomllib  # Python 3.11+
    except ImportError:  # pragma: no cover - exercised on py3.10 CI
        return _parse_section_minimal(text)
    data = tomllib.loads(text)
    table: Any = data
    for key in SECTION:
        if not isinstance(table, dict) or key not in table:
            return None
        table = table[key]
    return table if isinstance(table, dict) else None


_HEADER_RE = re.compile(r"^\s*\[(?P<name>[^\]]+)\]\s*(#.*)?$")
_KEY_RE = re.compile(r"^(?P<key>[A-Za-z0-9_-]+)\s*=\s*(?P<value>.+)$", re.S)


def _parse_section_minimal(text: str) -> dict[str, Any] | None:
    """Fallback parser for the one table the linter needs.

    Handles exactly the shapes this section uses — ``key = "str"``,
    ``key = true``, and (possibly multi-line) ``key = ["a", "b"]`` —
    by splitting the section into ``key = value`` chunks and evaluating
    each value as a Python literal (TOML strings and string arrays are
    literal-compatible; ``true``/``false`` are mapped first).  Anything
    richer raises rather than guessing.
    """
    section_lines: list[str] | None = None
    collected: list[str] = []
    for line in text.splitlines():
        header = _HEADER_RE.match(line)
        if header is not None:
            if section_lines is not None:
                break
            if header.group("name").strip() == ".".join(SECTION):
                section_lines = collected
            continue
        if section_lines is not None:
            stripped = line.split("#", 1)[0].rstrip()
            if stripped:
                collected.append(stripped)
    if section_lines is None:
        return None

    table: dict[str, Any] = {}
    chunk: list[str] = []
    for line in [*collected, None]:
        starts_key = line is not None and _KEY_RE.match(line) is not None
        if (starts_key or line is None) and chunk:
            match = _KEY_RE.match("\n".join(chunk))
            if match is None:
                raise ConfigurationError(
                    f"[tool.repro.analysis] fallback parser cannot read: "
                    f"{' '.join(chunk)!r}"
                )
            table[match.group("key")] = _literal(match.group("value"))
            chunk = []
        if line is not None:
            chunk.append(line)
    return table


def _literal(value: str) -> Any:
    normalized = re.sub(r"\btrue\b", "True", re.sub(r"\bfalse\b", "False", value))
    try:
        return _pyast.literal_eval(normalized.strip())
    except (ValueError, SyntaxError) as exc:
        raise ConfigurationError(
            f"[tool.repro.analysis] fallback parser cannot evaluate "
            f"{value.strip()!r} (use plain strings, booleans, or string "
            f"arrays): {exc}"
        ) from None
