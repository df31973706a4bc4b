"""The lint engine: file collection, checker dispatch, output, exit codes.

Exit-code contract: 0 = clean (every finding fixed or baselined), 1 = at
least one non-baselined finding, 2 = usage error (unknown checker code,
unreadable path, broken baseline).

The engine runs two passes.  The per-file pass parses each collected file
once and runs the RL001..RL007 checkers against its AST.  When any project
checker (RL008..RL010, RL012) is selected -- or ``--graph`` asks for the import
graph artifact -- the same parsed contexts feed the index pass
(``repro.lint.project.ProjectIndex``) and the project checkers run against
the whole-program index.  Pragmas, fingerprints, the baseline and the JSON
output treat both kinds of finding identically.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.base import Checker, FileContext
from repro.lint.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline_entries,
    stale_entries,
)
from repro.lint.checkers import ALL_CHECKERS, CHECKERS_BY_CODE, PROJECT_CHECKERS
from repro.lint.findings import Finding, assign_occurrences
from repro.lint.pragmas import PRAGMA_CODE, parse_pragmas, pragma_findings
from repro.lint.project import ProjectChecker, ProjectIndex

JSON_SCHEMA = "repro-lint-v2"

#: Directory basenames never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".cache", ".venv", "results"}


class UsageError(ValueError):
    """A problem with how the linter was invoked (exit code 2)."""


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: baseline entries whose fingerprint matched no current finding
    stale_baseline: List[BaselineEntry] = field(default_factory=list)

    @property
    def new_findings(self) -> List[Finding]:
        """Findings NOT excused by the baseline (these fail the run)."""
        return [f for f in self.findings if not f.baselined]

    @property
    def exit_code(self) -> int:
        return 1 if self.new_findings else 0

    def to_dict(self) -> dict:
        return {
            "schema": JSON_SCHEMA,
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "stale_baseline": [e.to_dict() for e in self.stale_baseline],
            "counts": {
                "total": len(self.findings),
                "new": len(self.new_findings),
                "baselined": len(self.findings) - len(self.new_findings),
                "stale_baseline": len(self.stale_baseline),
            },
        }


def find_repo_root(start: Optional[Path] = None) -> Path:
    """Nearest ancestor of ``start`` containing pyproject.toml."""
    current = Path(start) if start is not None else Path.cwd()
    current = current.resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return current


def collect_files(paths: Sequence[Path], root: Path) -> List[Path]:
    """Every ``*.py`` under ``paths``, sorted, skipping cache/result dirs."""
    seen: Set[Path] = set()
    for path in paths:
        path = Path(path)
        if not path.is_absolute():
            path = root / path
        if not path.exists():
            raise UsageError(f"path does not exist: {path}")
        if path.is_file():
            if path.suffix == ".py":
                seen.add(path.resolve())
            continue
        for candidate in path.rglob("*.py"):
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            seen.add(candidate.resolve())
    return sorted(seen)


def _known_codes() -> List[str]:
    return [c.code for c in [*ALL_CHECKERS, *PROJECT_CHECKERS]]


def _validate_codes(codes: Iterable[str], allow_pragma: bool = False) -> None:
    unknown = [
        code
        for code in codes
        if code not in CHECKERS_BY_CODE and not (allow_pragma and code == PRAGMA_CODE)
    ]
    if unknown:
        raise UsageError(
            f"unknown checker code(s) {', '.join(unknown)}; "
            f"available: {', '.join(_known_codes())}"
        )


def resolve_checkers(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Checker]:
    """Instantiate the requested per-file checkers (all by default)."""
    if select:
        _validate_codes(select)
    if ignore:
        _validate_codes(ignore, allow_pragma=True)
    codes = [c.code for c in ALL_CHECKERS]
    if select:
        codes = [code for code in codes if code in set(select)]
    if ignore:
        codes = [code for code in codes if code not in set(ignore)]
    return [CHECKERS_BY_CODE[code]() for code in codes]  # type: ignore[misc]


def resolve_project_checkers(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[ProjectChecker]:
    """Instantiate the requested project checkers (all by default)."""
    if select:
        _validate_codes(select)
    if ignore:
        _validate_codes(ignore, allow_pragma=True)
    codes = [c.code for c in PROJECT_CHECKERS]
    if select:
        codes = [code for code in codes if code in set(select)]
    if ignore:
        codes = [code for code in codes if code not in set(ignore)]
    return [CHECKERS_BY_CODE[code]() for code in codes]  # type: ignore[misc]


def _module_rel(rel: str) -> str:
    return rel[len("src/"):] if rel.startswith("src/") else rel


def load_context(
    path: Path, root: Path
) -> Tuple[Optional[FileContext], List[Finding]]:
    """Parse one file into a FileContext (None + an RL000 on syntax errors)."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as error:
        raise UsageError(f"cannot read {path}: {error}") from error
    rel = (
        path.resolve().relative_to(root).as_posix()
        if path.resolve().is_relative_to(root)
        else path.as_posix()
    )
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return None, [
            Finding(
                code=PRAGMA_CODE,
                path=rel,
                line=error.lineno or 1,
                col=error.offset or 0,
                message=f"file does not parse: {error.msg}",
            )
        ]
    pragmas = parse_pragmas(source)
    ctx = FileContext(
        path=path,
        rel=rel,
        module_rel=_module_rel(rel),
        source=source,
        tree=tree,
        pragmas=pragmas,
    )
    return ctx, list(pragma_findings(rel, source, pragmas))


def check_context(ctx: FileContext, checkers: Sequence[Checker]) -> List[Finding]:
    """Per-file checker findings for one parsed context (pragmas applied)."""
    findings: List[Finding] = []
    for checker in checkers:
        if not checker.applies_to(ctx):
            continue
        for finding in checker.check(ctx):
            if ctx.pragmas.suppressed(finding.line, finding.code):
                continue
            findings.append(finding)
    return findings


def lint_file(
    path: Path, root: Path, checkers: Sequence[Checker]
) -> List[Finding]:
    """All per-file findings (pragma problems included) for one file."""
    ctx, findings = load_context(path, root)
    if ctx is not None:
        findings.extend(check_context(ctx, checkers))
    return assign_occurrences(findings)


def run_lint(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    baseline_path: Optional[Path] = None,
    use_baseline: bool = True,
    graph_path: Optional[Path] = None,
) -> LintResult:
    """Lint ``paths`` and apply the baseline; the engine's main entry.

    ``graph_path`` additionally writes the internal import graph artifact
    (schema ``repro-lint-graph-v1``), building the index even when no
    project checker is selected.
    """
    root = find_repo_root() if root is None else Path(root).resolve()
    file_checkers = resolve_checkers(select=select, ignore=ignore)
    project_checkers = resolve_project_checkers(select=select, ignore=ignore)
    files = collect_files(paths, root)
    findings: List[Finding] = []
    contexts: List[FileContext] = []
    for path in files:
        ctx, file_findings = load_context(path, root)
        findings.extend(file_findings)
        if ctx is None:
            continue
        contexts.append(ctx)
        findings.extend(check_context(ctx, file_checkers))
    if project_checkers or graph_path is not None:
        index = ProjectIndex.build(contexts, root)
        if graph_path is not None:
            graph_path = Path(graph_path)
            graph_path.write_text(
                json.dumps(index.graph_dict(), indent=2, sort_keys=True) + "\n"
            )
        pragmas_by_rel: Dict[str, FileContext] = {ctx.rel: ctx for ctx in contexts}
        for checker in project_checkers:
            for finding in checker.check_project(index):
                ctx = pragmas_by_rel.get(finding.path)
                if ctx is not None and ctx.pragmas.suppressed(
                    finding.line, finding.code
                ):
                    continue
                findings.append(finding)
    findings = assign_occurrences(findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    stale: List[BaselineEntry] = []
    if use_baseline:
        if baseline_path is None:
            from repro.lint.baseline import DEFAULT_BASELINE_NAME

            baseline_path = root / DEFAULT_BASELINE_NAME
        try:
            entries = load_baseline_entries(baseline_path)
        except ValueError as error:
            raise UsageError(str(error)) from error
        findings = apply_baseline(findings, {e.fingerprint for e in entries})
        stale = stale_entries(entries, findings)
    return LintResult(
        findings=findings, files_checked=len(files), stale_baseline=stale
    )


def format_result(result: LintResult, fmt: str = "text") -> str:
    """Render a LintResult as ``text`` or ``json``."""
    if fmt == "json":
        return json.dumps(result.to_dict(), indent=2, sort_keys=True)
    lines = [f.format_text() for f in result.findings]
    new = len(result.new_findings)
    baselined = len(result.findings) - new
    summary = (
        f"{result.files_checked} files checked: "
        f"{new} finding{'s' if new != 1 else ''}"
    )
    if baselined:
        summary += f" ({baselined} baselined)"
    if result.stale_baseline:
        for entry in result.stale_baseline:
            lines.append(
                f"{entry.path}: stale baseline entry {entry.code} "
                f"({entry.fingerprint[:12]}...) matches no finding"
            )
        summary += (
            f"; {len(result.stale_baseline)} stale baseline "
            f"entr{'ies' if len(result.stale_baseline) != 1 else 'y'} "
            f"(run --prune-baseline)"
        )
    lines.append(summary)
    return "\n".join(lines)
