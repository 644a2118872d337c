"""Rule framework for the project linter.

The linter is a multi-pass, rule-based static checker for the known
classes of bugs the compiler cannot see: nondeterminism sources (the
repo's bit-reproducibility guarantee), hot-path allocation regressions,
and project-convention violations.  Each rule is a small object with an
id, a category, a severity and a `check` generator; rules register
themselves in a global registry at import time (tools/lint/rules/).

Waivers
-------
A finding is suppressed by a comment on the flagged line or in the
comment block immediately above it:

  * ``lint: ok(rule-id)`` — waives exactly that rule, any category.
    Always include a justification after an em-dash.

Severities
----------
``error`` findings fail the run (exit 1); ``warning`` findings are
reported but do not affect the exit status.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
from typing import Callable, Iterable, Iterator

SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}

WAIVER_RE = re.compile(r"lint:\s*ok\(([\w-]+)\)")


@dataclasses.dataclass(frozen=True)
class Finding:
    rule_id: str
    severity: str  # "error" | "warning"
    path: str
    line: int
    message: str
    snippet: str

    def text(self) -> str:
        return (f"{self.path}:{self.line}: [{self.rule_id}/{self.severity}] "
                f"{self.message}: {self.snippet}")

    def github(self) -> str:
        # GitHub workflow-command annotation (shows inline on the PR diff).
        level = "error" if self.severity == "error" else "warning"
        msg = f"[{self.rule_id}] {self.message}"
        return f"::{level} file={self.path},line={self.line}::{msg}"

    def as_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class SelfTestCase:
    """One self-test snippet: `path` places it for dir-scoped rules."""
    path: str
    source: str
    expect_hit: bool


@dataclasses.dataclass
class Rule:
    id: str
    category: str  # "determinism" | "hotpath" | "project"
    severity: str  # "error" | "warning"
    description: str
    # check(path, raw_lines, code_lines, ctx) -> iterator of
    # (lineno, message); `code_lines` are comment-stripped.
    check: Callable[
        [pathlib.PurePath, list[str], list[str], dict],
        Iterator[tuple[int, str]]]
    # Optional whole-tree pass run before any check() (cross-file state,
    # e.g. container member names declared in headers, iterated in .cpp).
    prepare: Callable[[list[tuple[pathlib.PurePath, list[str]]], dict],
                      None] | None = None
    self_tests: list[SelfTestCase] = dataclasses.field(default_factory=list)


_REGISTRY: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id: {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule


def all_rules() -> list[Rule]:
    return [r for _, r in sorted(_REGISTRY.items())]


def get_rule(rule_id: str) -> Rule | None:
    return _REGISTRY.get(rule_id)


_STRING_LIT = re.compile(r'"(?:[^"\\]|\\.)*"' r"|'(?:[^'\\]|\\.)*'")


def strip_comments(line: str) -> str:
    """Remove /* */ and // comments and blank out string/char literal
    contents (approximate: the sources do not use multi-line /* */
    blocks mid-statement).  Literal stripping keeps keywords inside
    assertion messages ("delete past the valid prefix") from tripping
    the code-pattern rules; it runs before the // split so a URL inside
    a string is not mistaken for a comment."""
    line = re.sub(r"/\*.*?\*/", "", line)
    line = _STRING_LIT.sub('""', line)
    return line.split("//", 1)[0]


def waivers_for_line(raw_lines: list[str], lineno: int) -> set[str]:
    """Rule-ids waived for the flagged line: its own trailing comment
    plus the contiguous comment block immediately above it."""
    rule_ids = set(WAIVER_RE.findall(raw_lines[lineno - 1]))
    i = lineno - 2
    while i >= 0 and raw_lines[i].lstrip().startswith("//"):
        rule_ids.update(WAIVER_RE.findall(raw_lines[i]))
        i -= 1
    return rule_ids


def is_waived(rule: Rule, raw_lines: list[str], lineno: int) -> bool:
    return rule.id in waivers_for_line(raw_lines, lineno)


def collect_files(roots: list[pathlib.Path]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(p for p in sorted(root.rglob("*"))
                         if p.suffix in SOURCE_SUFFIXES)
        else:
            raise FileNotFoundError(str(root))
    return files


def run_rules(file_lines: list[tuple[pathlib.PurePath, list[str]]],
              rules: Iterable[Rule]) -> list[Finding]:
    """Run every rule over every (path, lines) pair.  Pure function of
    its inputs — the self-test drives it on synthetic sources."""
    ctx: dict = {}
    stripped = [(path, lines, [strip_comments(l) for l in lines])
                for path, lines in file_lines]
    rules = list(rules)
    for rule in rules:
        if rule.prepare is not None:
            rule.prepare(file_lines, ctx)
    findings: list[Finding] = []
    for path, raw_lines, code_lines in stripped:
        for rule in rules:
            for lineno, message in rule.check(path, raw_lines, code_lines,
                                              ctx):
                if is_waived(rule, raw_lines, lineno):
                    continue
                findings.append(Finding(
                    rule_id=rule.id, severity=rule.severity,
                    path=str(path), line=lineno, message=message,
                    snippet=raw_lines[lineno - 1].strip()))
    findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return findings


def lint_paths(roots: list[pathlib.Path],
               rules: Iterable[Rule]) -> tuple[list[Finding], int]:
    """Lint files under `roots`; returns (findings, files scanned)."""
    files = collect_files(roots)
    file_lines = [(pathlib.PurePath(p),
                   p.read_text(encoding="utf-8").splitlines())
                  for p in files]
    return run_rules(file_lines, rules), len(files)


def render_json(findings: list[Finding], files_scanned: int) -> str:
    return json.dumps({
        "files_scanned": files_scanned,
        "errors": sum(1 for f in findings if f.severity == "error"),
        "warnings": sum(1 for f in findings if f.severity == "warning"),
        "findings": [f.as_json() for f in findings],
    }, indent=2)


def run_self_tests() -> list[str]:
    """Run every rule's embedded self-test snippets; returns failure
    descriptions (empty = all rules behave)."""
    failures: list[str] = []
    for rule in all_rules():
        if not rule.self_tests:
            failures.append(f"{rule.id}: no self-tests defined")
            continue
        for i, case in enumerate(rule.self_tests):
            file_lines = [(pathlib.PurePath(case.path),
                           case.source.splitlines())]
            findings = run_rules(file_lines, [rule])
            hit = any(f.rule_id == rule.id for f in findings)
            if hit != case.expect_hit:
                verb = "expected a finding" if case.expect_hit \
                    else "expected no finding"
                failures.append(
                    f"{rule.id} case {i} ({case.path}): {verb}, got "
                    f"{[f.text() for f in findings]!r}")
    return failures
