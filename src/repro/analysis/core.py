"""Core of the AST invariant linter: findings, rules, the registry.

The linter enforces *contracts*, not style: every rule in
:mod:`repro.analysis.rules` guards an invariant the engine's
correctness arguments depend on (DESIGN.md §9) — worker-count-invariant
RNG streams, lock discipline around shared mutable state, shared-memory
segment lifecycle, read-only prepared state, deterministic verdict
assembly, and a truthful ``repro.__all__``.  Each rule is an AST pass
over one module; the engine (:mod:`repro.analysis.engine`) parses each
file once and hands every selected rule the same
:class:`ModuleContext`.

Rules are registered by the :func:`register` decorator and looked up by
code (``RL001`` ... ``RL006``); ``RL000`` is reserved for the linter's
own diagnostics (syntax errors, malformed suppression comments) and is
neither selectable nor suppressible.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import AnalysisConfig

#: Code under which the linter reports its own problems (unparseable
#: file, malformed ignore comment).  Not a registered rule: it cannot
#: be deselected or suppressed.
META_CODE = "RL000"


@dataclass(frozen=True, order=True)
class Finding:
    """One invariant violation, anchored to a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """The conventional ``path:line:col: CODE message`` line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        """JSON-ready representation (the ``--json`` reporter's row)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class ModuleContext:
    """Everything a rule needs to check one parsed module."""

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.Module,
        config: "AnalysisConfig",
    ) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.config = config

    @property
    def module_name(self) -> str:
        """Dotted module name derived from the file path.

        ``src/repro/faults/parallel.py`` → ``repro.faults.parallel``;
        an ``__init__.py`` names its package.  Paths outside a ``src``
        layout fall back to the stem, which is what fixture files in
        tests resolve to.
        """
        parts = self.path.replace("\\", "/").split("/")
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][: -len(".py")]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        if "src" in parts:
            parts = parts[parts.index("src") + 1 :]
        elif "repro" in parts:
            parts = parts[parts.index("repro") :]
        else:
            parts = parts[-1:] if parts else []
        return ".".join(p for p in parts if p)


class Rule(abc.ABC):
    """One statically checkable contract.

    Subclasses set the identifying ``code`` (``RLxxx``), a kebab-case
    ``name``, a one-line ``contract`` (the invariant guarded — surfaced
    by ``repro lint --list-rules`` and the step-summary table), and
    ``backstops`` (the dynamic test suite the rule complements).
    """

    code: str = "RL000"
    name: str = "abstract"
    contract: str = ""
    backstops: str = ""

    @abc.abstractmethod
    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield every violation of this rule in one module."""

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        """A finding of this rule anchored at ``node``."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.code,
            message=message,
        )


#: Registry of selectable rules, keyed by code.
RULES: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (import-time)."""
    if cls.code in RULES or cls.code == META_CODE:
        raise ValueError(f"duplicate or reserved rule code {cls.code!r}")
    RULES[cls.code] = cls
    return cls


def all_codes() -> tuple[str, ...]:
    """Every registered rule code, sorted."""
    return tuple(sorted(RULES))


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
class ImportMap:
    """Resolves names in one module back to dotted import paths.

    Tracks ``import numpy as np`` / ``from numpy import random as r`` /
    ``from numpy.random import default_rng`` style bindings so rules can
    ask what ``np.random.seed`` or a bare ``default_rng`` call actually
    refers to, without caring how the module spelled the import.
    """

    def __init__(self, tree: ast.Module) -> None:
        #: local name -> dotted module ("np" -> "numpy")
        self.modules: dict[str, str] = {}
        #: local name -> dotted member ("default_rng" -> "numpy.random.default_rng")
        self.members: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.modules[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.members[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted path of an expression, or None if it isn't import-rooted.

        ``np.random.seed`` → ``numpy.random.seed`` (given ``import
        numpy as np``); a bare ``default_rng`` → its from-import path;
        anything rooted at a non-import name resolves to None.
        """
        chain: list[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        chain.reverse()
        base = node.id
        if base in self.modules:
            return ".".join([self.modules[base], *chain])
        if base in self.members:
            return ".".join([self.members[base], *chain])
        return None


def walk_functions(
    tree: ast.AST,
) -> Iterator["ast.FunctionDef | ast.AsyncFunctionDef"]:
    """Every function/method definition in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def literal_str_elements(node: ast.expr) -> list[tuple[str, ast.expr]] | None:
    """``(value, element_node)`` pairs of a static string list/tuple.

    Returns None when the expression is not a list/tuple of plain
    string constants — the caller decides whether that is itself a
    violation (RL006 requires ``__all__`` to be static).
    """
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    out: list[tuple[str, ast.expr]] = []
    for element in node.elts:
        if not (
            isinstance(element, ast.Constant) and isinstance(element.value, str)
        ):
            return None
        out.append((element.value, element))
    return out
