"""Every README section that the source cites by title is a heading of the README."""

import argparse
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def readme_headings() -> set[str]:
    lines = (ROOT / "README.md").read_text().splitlines()
    return {m.group(1).strip() for m in map(re.compile(r"#+\s+(.*)").fullmatch, lines) if m}


def cited_sections() -> list[tuple[str, str]]:
    return [
        (path.name, title)
        for path in sorted((ROOT / "src" / "phantomfields").glob("*.py"))
        for title in re.findall(r'README, "([^"]+)"', path.read_text())
    ]


def test_cited_sections_are_headings():
    cited = cited_sections()
    assert cited, "no README citation found in src/"
    missing = [(name, title) for name, title in cited if title not in readme_headings()]
    assert not missing, f"README sections cited in src/ but not headings: {missing}"


def commands_table() -> dict[str, list[str]]:
    """README "Commands" table: command -> its cells after the name."""
    section = (ROOT / "README.md").read_text().split("## Commands\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in section.splitlines() if line.startswith("| `")]
    return {row[0].strip("`"): row[1:] for row in rows}


def test_commands_table_matches_the_cli():
    """Each row names every config field of its command and the extra files it writes at its defaults."""
    from phantomfields.cli import COMMANDS, _load_config

    table = commands_table()
    assert set(table) == set(COMMANDS)
    for name, (fn, defaults) in COMMANDS.items():
        fields = table[name][1]
        same = re.fullmatch(r"as `([^`]+)`", fields)  # berman's "as `sectorial-test`"
        named = set(re.findall(r"`([^`]+)`", table[same.group(1)][1] if same else fields))
        assert set(defaults) <= named, f"{name}: README omits {set(defaults) - named}"
        files = fn(_load_config(None, defaults, argparse.Namespace()))[3]
        assert set(re.findall(r"`([^`]+)`", table[name][2])) == set(files), name
