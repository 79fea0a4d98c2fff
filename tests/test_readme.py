"""Every README section that the source cites by title is a heading of the README."""

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
