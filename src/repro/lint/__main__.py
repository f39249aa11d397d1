"""CLI for repro-lint: ``python -m repro.lint [--strict] [paths...]``.

Also reachable as ``repro lint ...`` through the main CLI.  Exit status is
0 when the tree is clean, 1 when findings (strict: or warnings/waiver
problems) remain, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.runner import run_lint


def default_target() -> Path:
    """The package source tree, found relative to this file.

    Works both for an installed package and a ``src/`` checkout, so a bare
    ``python -m repro.lint`` lints the whole ``repro`` package.
    """
    return Path(__file__).resolve().parent.parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST determinism & protocol-invariant checker "
            "(rules R1, R2, R4, R5, R8; see docs/LINTING.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings and waiver problems, not just errors",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the machine-readable JSON report to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the text report (exit status only)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    paths: List[Path] = args.paths or [default_target()]
    missing = [path for path in paths if not path.exists()]
    if missing:
        listed = ", ".join(str(path) for path in missing)
        print(f"error: no such path: {listed}", file=sys.stderr)
        return 2

    report = run_lint(paths)
    if report.files_scanned == 0 and not report.problems:
        # A gate that scanned nothing would pass vacuously.
        listed = ", ".join(str(path) for path in paths)
        print(f"error: no Python files under: {listed}", file=sys.stderr)
        return 2

    json_to_stdout = args.json is not None and str(args.json) == "-"
    if args.json is not None:
        if json_to_stdout:
            print(report.to_json())
        else:
            args.json.parent.mkdir(parents=True, exist_ok=True)
            args.json.write_text(report.to_json(), encoding="utf-8")
    if not args.quiet:
        # keep stdout machine-readable when the JSON report goes there
        stream = sys.stderr if json_to_stdout else sys.stdout
        print(report.render_text(), file=stream)
    return report.exit_code(strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
