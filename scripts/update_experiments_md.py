#!/usr/bin/env python3
"""Inject the archived experiment tables into EXPERIMENTS.md.

Reads every series JSON under a results directory (``results/*.json``, as
written by ``repro all --quality fast --json results/``, plus the
full-budget archives in ``results/full/*.json``), renders each through
``SeriesResult.to_table``, and writes the whole table into the archive's
``<!-- NAME_TABLE -->`` placeholder of EXPERIMENTS.md, replacing any block
injected there before.  Running it twice changes nothing.

Usage:  python scripts/update_experiments_md.py [results_dir] [experiments_md]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict

#: archive key (``SeriesResult.name``, prefixed with its subdirectory of
#: the results directory) -> placeholder in EXPERIMENTS.md
PLACEHOLDERS = {
    "fig3": "FIG3_TABLE",
    "fig4": "FIG4_TABLE",
    "fig5": "FIG5_TABLE",
    "fig6": "FIG6_TABLE",
    "theorem1": "T1_TABLE",
    "baseline": "BASELINE_TABLE",
    "transient": "TRANSIENT_TABLE",
    "ablation-ttl": "ABL_TTL_TABLE",
    "ablation-buffer": "ABL_BUF_TABLE",
    "ablation-selection": "ABL_SELECT_TABLE",
    "ablation-scheduler": "ABL_SCHED_TABLE",
    "ablation-coding": "ABL_CODE_TABLE",
    "ablation-topology": "ABL_TOPO_TABLE",
    "robustness": "ROBUST_TABLE",
    "adversary": "ADVERSARY_TABLE",
    "scale": "SCALE_TABLE",
    "full/scale": "SCALE_FULL_TABLE",
    "live": "LIVE_TABLE",
    "live_chaos": "LIVE_CHAOS_TABLE",
}


def render_tables(root: Path) -> Dict[str, str]:
    """``{archive key: to_table() text}`` for every series JSON under *root*."""
    repo_src = Path(__file__).resolve().parents[1] / "src"
    if repo_src.is_dir() and str(repo_src) not in sys.path:
        sys.path.insert(0, str(repo_src))
    from repro.experiments import SeriesResult

    tables: Dict[str, str] = {}
    for path in sorted(root.rglob("*.json")):
        result = SeriesResult.from_json(path.read_text())
        if result.name != path.stem:
            raise ValueError(f"{path} holds series {result.name!r}")
        key = path.relative_to(root).with_suffix("").as_posix()
        tables[key] = result.to_table()
    return tables


def inject(markdown: str, placeholder: str, table: str) -> str:
    """Put *table* under *placeholder*, replacing an earlier injected block."""
    marker = f"<!-- {placeholder} -->"
    if marker not in markdown:
        raise ValueError(f"EXPERIMENTS.md has no {marker}")
    block = re.compile(re.escape(marker) + r"\n```\n.*?\n```\n", re.DOTALL)
    fenced = f"{marker}\n```\n{table}\n```\n"
    if block.search(markdown):
        return block.sub(lambda _: fenced, markdown, count=1)
    return markdown.replace(marker + "\n", fenced, 1)


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path("results")
    md_path = Path(argv[2]) if len(argv) > 2 else Path("EXPERIMENTS.md")
    markdown = md_path.read_text()
    try:
        tables = render_tables(root)
        unmapped = sorted(set(tables) - set(PLACEHOLDERS))
        missing = sorted(set(PLACEHOLDERS) - set(tables))
        if unmapped or missing:
            raise ValueError(
                f"archives without a placeholder {unmapped}, "
                f"placeholders without an archive {missing}"
            )
        for key, placeholder in PLACEHOLDERS.items():
            markdown = inject(markdown, placeholder, tables[key])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    md_path.write_text(markdown)
    print(f"injected {len(PLACEHOLDERS)} tables into {md_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
