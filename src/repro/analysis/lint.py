"""Repo-invariant linter driver: parse, apply rules, report.

Usage::

    from repro.analysis.lint import lint_paths, format_text
    violations = lint_paths(["src/repro"])
    print(format_text(violations))

or from the command line::

    python -m repro analyze lint [--json] [path ...]

Suppression
-----------
Append ``# repro: noqa[CODE]`` (comma-separated for several codes) to
the offending line.  Suppressions are per-line and per-rule — there is
deliberately no file-level or catch-all form, and every suppression in
``src/repro`` carries a justification comment explaining why the
invariant does not apply at that site.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from pathlib import Path

from .rules import ALL_RULES, LintViolation

__all__ = [
    "LintViolation",
    "suppressions_in",
    "lint_source",
    "lint_file",
    "lint_paths",
    "stale_suppressions",
    "format_text",
    "format_json",
]

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s]+)\]")


def suppressions_in(source: str) -> dict[int, frozenset]:
    """Map of 1-based line number -> rule codes suppressed on that line.

    Tokenized, not line-matched: only genuine ``#`` comments count, so a
    docstring *describing* the noqa syntax neither suppresses anything
    nor trips the stale-suppression check.
    """
    suppressed: dict[int, frozenset] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError):
        return suppressed
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(token.string)
        if match:
            codes = frozenset(
                code.strip() for code in match.group(1).split(",") if code.strip()
            )
            suppressed[token.start[0]] = codes
    return suppressed


# Backwards-compatible private alias (pre-stale-suppression name).
_suppressions = suppressions_in


def lint_source(source: str, path: str, rules=ALL_RULES,
                respect_noqa: bool = True) -> list[LintViolation]:
    """Lint one module's source text; ``path`` scopes path-bound rules.

    ``respect_noqa=False`` returns the raw findings including suppressed
    ones — the input to :func:`stale_suppressions`.
    """
    tree = ast.parse(source, filename=path)
    suppressed = suppressions_in(source) if respect_noqa else {}
    violations = []
    for rule in rules:
        if not rule.applies_to(path):
            continue
        for violation in rule.check(tree, path):
            if violation.rule in suppressed.get(violation.line, frozenset()):
                continue
            violations.append(violation)
    return violations


def lint_file(path: str | Path, rules=ALL_RULES) -> list[LintViolation]:
    file_path = Path(path)
    return lint_source(file_path.read_text(encoding="utf-8"), str(file_path), rules)


def lint_paths(paths, rules=ALL_RULES) -> list[LintViolation]:
    """Lint files and/or directory trees; results sorted by location."""
    violations: list[LintViolation] = []
    for path in paths:
        target = Path(path)
        if target.is_dir():
            files = sorted(target.rglob("*.py"))
        else:
            files = [target]
        for file_path in files:
            violations.extend(lint_file(file_path, rules))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def stale_suppressions(paths, rules=ALL_RULES,
                       extra_raw=None) -> list[tuple[str, int, str]]:
    """``(path, line, code)`` for every noqa that no longer suppresses anything.

    A suppression earns its keep only while the rule actually fires on
    its line; once the code is fixed (or the rule changes), the stale
    marker would silently swallow a *future* regression.  ``extra_raw``
    supplies raw (noqa-ignored) violations from analyses outside the
    per-file rules — the cross-file concurrency pass — as a list of
    :class:`LintViolation`.
    """
    raw_hits: dict[tuple[str, int], set[str]] = {}
    for violation in extra_raw or ():
        raw_hits.setdefault((violation.path, violation.line), set()).add(
            violation.rule)

    known_codes = {rule.code for rule in rules}
    for violation in extra_raw or ():
        known_codes.add(violation.rule)
    from .concurrency import CONCURRENCY_CODES  # local: avoids import cycle

    known_codes.update(CONCURRENCY_CODES)

    stale: list[tuple[str, int, str]] = []
    for path in paths:
        target = Path(path)
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        for file_path in files:
            source = file_path.read_text(encoding="utf-8")
            suppressed = suppressions_in(source)
            if not suppressed:
                continue
            raw = lint_source(source, str(file_path), rules, respect_noqa=False)
            hits: dict[int, set[str]] = {}
            for violation in raw:
                hits.setdefault(violation.line, set()).add(violation.rule)
            for line, codes in raw_hits.items():
                if line[0] == str(file_path):
                    hits.setdefault(line[1], set()).update(codes)
            for line, codes in sorted(suppressed.items()):
                for code in sorted(codes):
                    if code not in known_codes or code not in hits.get(line, set()):
                        stale.append((str(file_path), line, code))
    return stale


def format_text(violations) -> str:
    """One `path:line:col: CODE message` line per violation."""
    lines = [violation.format() for violation in violations]
    lines.append(f"{len(violations)} violation(s)" if violations else "clean")
    return "\n".join(lines)


def format_json(violations) -> str:
    return json.dumps([violation.to_dict() for violation in violations], indent=2)
