#!/usr/bin/env python3
"""Project lint runner: rule-based static checks for the simulator.

Runs every registered rule (tools/lint/rules/) over the given source
trees.  Rules cover the determinism contract (no wall clocks, no hash
iteration, no ASLR-ordered containers), hot-path allocation discipline
(no raw new/delete, no std::function where EventCallback belongs, no
map-order-driven scheduling) and project conventions (ALPU_ASSERT, no
mutable statics in the sharded kernel).

Waive a finding with a comment on the flagged line or the comment block
above it:

    // lint: ok(rule-id) — justification

Usage:
    lint.py [DIR|FILE ...]          lint (default: src/)
    lint.py --format json [...]     machine-readable findings
    lint.py --github [...]          GitHub annotation lines to stderr
    lint.py --list-rules            rule catalog
    lint.py --self-test             run each rule's embedded tests

Exit status: 0 clean (warnings allowed), 1 error findings, 2 usage or
self-test failure.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

if __package__ in (None, ""):
    # Invoked as a script: make `tools.lint` importable as a package.
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))
    from tools.lint import framework, rules  # noqa: F401
else:
    from . import framework, rules  # noqa: F401


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="lint.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=["text", "json"],
                        default="text")
    parser.add_argument("--github", action="store_true",
                        help="also emit GitHub annotation lines to stderr")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv[1:])

    if args.list_rules:
        for rule in framework.all_rules():
            print(f"{rule.id} [{rule.category}/{rule.severity}]")
            print(f"    {rule.description}")
        return 0

    if args.self_test:
        failures = framework.run_self_tests()
        for failure in failures:
            print(f"self-test FAIL: {failure}", file=sys.stderr)
        n = len(framework.all_rules())
        if failures:
            print(f"lint self-test: {len(failures)} failure(s) across "
                  f"{n} rules", file=sys.stderr)
            return 2
        print(f"lint self-test: all {n} rules pass", file=sys.stderr)
        return 0

    try:
        findings, files_scanned = framework.lint_paths(
            [pathlib.Path(p) for p in args.paths], framework.all_rules())
    except FileNotFoundError as e:
        print(f"lint: no such path: {e}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(framework.render_json(findings, files_scanned))
    else:
        for finding in findings:
            print(finding.text())
    if args.github:
        for finding in findings:
            print(finding.github(), file=sys.stderr)

    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    print(f"lint: {errors} error(s), {warnings} warning(s) in "
          f"{files_scanned} files", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
