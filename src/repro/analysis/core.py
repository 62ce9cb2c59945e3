"""The invariant-lint framework: findings, pragmas, rule registry, drivers.

``repro.analysis`` is a project-specific static-analysis pass: a small set
of AST rules (ruff-style ``REPnnn`` codes) that turn the repo's
load-bearing *conventions* — COW mutation discipline, seeded-RNG-only
randomness, no wall-clock in simulation paths, deepcopy confined to the
golden oracles, deterministic iteration feeding scheduling decisions, one
audited snapshot site — into a CI gate.  The type system cannot see any of
these; before this pass they were enforced by code review and caught (late)
by golden-trace divergence.

This module is the framework; the rules live in :mod:`rules_cow`,
:mod:`rules_determinism`, :mod:`rules_hygiene`, :mod:`rules_token` and
:mod:`rules_provenance`, and the command-line front end in :mod:`cli`
(``python -m repro.analysis``).

Suppression pragmas
-------------------
A finding on line *L* is suppressed by a ``# repro: <CODE>-exempt`` comment
on that physical line, optionally followed by ``--`` and a justification::

    started = wallclock.perf_counter()  # repro: REP003-exempt -- metered overhead

Multiple codes may be exempted on one line (``REP003-exempt,REP004-exempt``).
Fixture files can impersonate a real module for rule-scoping purposes with a
file-level pragma (anywhere in the file, conventionally line 1)::

    # repro: lint-as=src/repro/simulator/engine.py

so the path-scoped rules (REP001 only fires in the engine/federation, REP004
allowlists the oracles, ...) can be exercised on files living under
``tests/fixtures/analysis/``.  That directory is excluded from directory
discovery by default — its files are deliberate violations — but explicitly
listed files are always analyzed, exclusion or not.
"""

from __future__ import annotations

import abc
import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Finding",
    "Module",
    "Rule",
    "AnalysisReport",
    "all_rules",
    "register_rule",
    "rule_codes",
    "select_rules",
    "load_module",
    "iter_python_files",
    "analyze_paths",
    "ImportMap",
    "dotted_name",
]

#: Schema version stamped into the JSON output.
JSON_SCHEMA_VERSION = 1

#: Directory names never descended into during discovery.
_SKIP_DIR_NAMES = {"__pycache__", ".git", ".venv", "build", "dist", ".mypy_cache"}

#: Path fragments excluded from *directory* discovery (explicit file
#: arguments bypass this): the analysis fixtures are deliberate violations.
_DEFAULT_EXCLUDE_FRAGMENTS = ("tests/fixtures/analysis",)

_PRAGMA_RE = re.compile(r"#\s*repro:\s*([^\n]*)")
_EXEMPT_RE = re.compile(r"([A-Za-z][A-Za-z0-9]*)-exempt\b")
_LINT_AS_RE = re.compile(r"#\s*repro:\s*lint-as\s*=\s*(\S+)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


# --------------------------------------------------------------------------- #
# Module model
# --------------------------------------------------------------------------- #
@dataclass
class Module:
    """One parsed source file plus everything rules need to scope and check.

    ``scope_path`` is the path rules match against — normally the file's own
    (posix-normalized) path, but a ``lint-as=`` pragma replaces it so fixture
    files can exercise path-scoped rules.  ``path`` is always the real file,
    used for reporting.
    """

    path: str
    source: str
    tree: ast.Module
    scope_path: PurePosixPath
    #: line number -> set of exempted codes (upper-cased).
    exemptions: Dict[int, Set[str]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def is_exempt(self, line: int, code: str) -> bool:
        return code.upper() in self.exemptions.get(line, ())

    @property
    def scope_parts(self) -> Tuple[str, ...]:
        return self.scope_path.parts

    @property
    def in_src_repro(self) -> bool:
        """Inside the ``repro`` package proper (not tests/benchmarks/examples)."""
        parts = self.scope_parts
        return "repro" in parts and not self.is_test

    @property
    def is_test(self) -> bool:
        parts = self.scope_parts
        if "tests" in parts or "conftest.py" in parts:
            return True
        return self.scope_path.name.startswith("test_")

    def scope_endswith(self, *suffixes: str) -> bool:
        """True if the scope path ends with any of the given posix suffixes."""
        text = self.scope_path.as_posix()
        return any(text == s or text.endswith("/" + s) for s in suffixes)


def _parse_pragmas(source: str) -> Tuple[Dict[int, Set[str]], Optional[str]]:
    # Tokenize instead of scanning raw lines so pragma-shaped text inside
    # string literals (e.g. this framework's own docstrings) never counts.
    exemptions: Dict[int, Set[str]] = {}
    lint_as: Optional[str] = None
    reader = io.StringIO(source).readline
    try:
        tokens = list(tokenize.generate_tokens(reader))
    except tokenize.TokenError:  # pragma: no cover - ast.parse catches first
        tokens = []
    for token in tokens:
        if token.type != tokenize.COMMENT or "repro:" not in token.string:
            continue
        lineno = token.start[0]
        as_match = _LINT_AS_RE.search(token.string)
        if as_match:
            lint_as = as_match.group(1)
        pragma = _PRAGMA_RE.search(token.string)
        if pragma is None:
            continue
        codes = {m.group(1).upper() for m in _EXEMPT_RE.finditer(pragma.group(1))}
        if codes:
            exemptions.setdefault(lineno, set()).update(codes)
    return exemptions, lint_as


def load_module(path: str | Path) -> Module:
    """Parse one file into a :class:`Module` (raises ``SyntaxError`` as-is)."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    exemptions, lint_as = _parse_pragmas(source)
    scope = PurePosixPath(lint_as) if lint_as else PurePosixPath(path.as_posix())
    return Module(
        path=str(path), source=source, tree=tree, scope_path=scope, exemptions=exemptions
    )


# --------------------------------------------------------------------------- #
# Rules
# --------------------------------------------------------------------------- #
class Rule(abc.ABC):
    """One invariant, one ``REPnnn`` code.

    Subclasses are registered via :func:`register_rule` (applied as a class
    decorator in the rule modules) and instantiated fresh per run — rules
    must not keep cross-file state beyond one :meth:`check` call.
    """

    #: ``REPnnn`` identifier used by --select/--ignore and pragmas.
    code: str = "REP000"
    #: Short kebab-case rule name.
    name: str = "base"
    #: One-line description shown by ``--list-rules``.
    summary: str = ""

    def applies(self, module: Module) -> bool:
        """Whether this rule runs on ``module`` at all (path scoping)."""
        return True

    @abc.abstractmethod
    def check(self, module: Module) -> List[Finding]:
        """All violations in ``module`` (pragma filtering happens outside)."""

    # Helper shared by every rule -------------------------------------- #
    def finding(self, module: Module, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry (by code)."""
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def _ensure_rules_loaded() -> None:
    # Rule modules self-register on import; imported lazily so `core` has no
    # import-time dependency on them (they import helpers from here).
    from repro.analysis import (  # noqa: F401
        rules_cow,
        rules_determinism,
        rules_hygiene,
        rules_provenance,
        rules_token,
    )


def all_rules() -> Dict[str, Type[Rule]]:
    _ensure_rules_loaded()
    return dict(sorted(_REGISTRY.items()))


def rule_codes() -> List[str]:
    return sorted(all_rules())


def select_rules(
    select: Optional[Iterable[str]] = None, ignore: Optional[Iterable[str]] = None
) -> List[Rule]:
    """Instantiate the rule set after --select/--ignore filtering.

    Unknown codes raise ``ValueError`` (a typo silently disabling a gate is
    exactly the failure mode this tool exists to prevent).
    """
    registry = all_rules()
    chosen = {c.upper() for c in select} if select else set(registry)
    ignored = {c.upper() for c in ignore} if ignore else set()
    unknown = sorted((chosen | ignored) - set(registry))
    if unknown:
        raise ValueError(
            f"unknown rule code(s) {unknown}; available: {sorted(registry)}"
        )
    return [registry[code]() for code in sorted(chosen - ignored)]


# --------------------------------------------------------------------------- #
# Discovery and the analysis driver
# --------------------------------------------------------------------------- #
def iter_python_files(
    paths: Sequence[str | Path], use_default_excludes: bool = True
) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list.

    Directory walks skip cache/VCS dirs and (by default) the deliberate-
    violation fixture tree; paths given *explicitly* are always included.
    """
    out: List[Path] = []
    seen: Set[Path] = set()

    def _add(candidate: Path) -> None:
        resolved = candidate.resolve()
        if resolved not in seen:
            seen.add(resolved)
            out.append(candidate)

    for raw in paths:
        path = Path(raw)
        if path.is_file():
            _add(path)
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for file in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIR_NAMES for part in file.parts):
                continue
            posix = file.as_posix()
            if use_default_excludes and any(
                fragment in posix for fragment in _DEFAULT_EXCLUDE_FRAGMENTS
            ):
                continue
            _add(file)
    return sorted(out, key=lambda p: p.as_posix())


@dataclass
class AnalysisReport:
    """The outcome of one analysis run over a set of files."""

    findings: List[Finding]
    files_scanned: int

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.code] = out.get(finding.code, 0) + 1
        return dict(sorted(out.items()))

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": JSON_SCHEMA_VERSION,
            "files_scanned": self.files_scanned,
            "counts": self.counts,
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def analyze_module(module: Module, rules: Sequence[Rule]) -> List[Finding]:
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies(module):
            continue
        for finding in rule.check(module):
            if not module.is_exempt(finding.line, finding.code):
                findings.append(finding)
    return findings


def analyze_paths(
    paths: Sequence[str | Path],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    use_default_excludes: bool = True,
) -> AnalysisReport:
    """Run the (filtered) rule set over every Python file under ``paths``.

    Unparseable files surface as ``REP000`` findings: a syntax error in a
    gated tree must fail the gate, not crash it.
    """
    rules = select_rules(select, ignore)
    findings: List[Finding] = []
    files = iter_python_files(paths, use_default_excludes=use_default_excludes)
    for file in files:
        try:
            module = load_module(file)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=str(file),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    code="REP000",
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        findings.extend(analyze_module(module, rules))
    return AnalysisReport(findings=sorted(findings), files_scanned=len(files))


# --------------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------------- #
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ImportMap:
    """Alias -> fully-qualified module/name map for one module.

    Resolves ``import time as wallclock`` / ``from datetime import datetime``
    so rules can match calls by canonical name (``time.perf_counter``,
    ``datetime.datetime.now``) regardless of local spelling.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[name] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name
                    self.aliases[name] = f"{node.module}.{alias.name}"

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Canonicalize the head of a dotted name through the alias map."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target


def annotation_mentions(annotation: Optional[ast.AST], names: Mapping[str, object] | Set[str]) -> bool:
    """Whether an annotation expression references any of the given names."""
    if annotation is None:
        return False
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return False
    return any(re.search(rf"\b{re.escape(str(n))}\b", text) for n in names)
