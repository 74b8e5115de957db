"""The oldest Python that ``pyproject.toml`` claims can read every source."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_at_the_oldest_supported_python():
    """Every ``.py`` file under src/, tests/ and demos/ parses with the
    grammar of the ``requires-python`` floor.  This checks syntax only (for
    example ``except*``, ``type X = ...`` and PEP 695 generics are rejected),
    not calls into a newer standard library."""
    floor = re.search(r'requires-python = ">=3\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text("utf-8"))
    version = (3, int(floor.group(1)))
    files = sorted(p for d in ("src", "tests", "demos")
                   for p in (ROOT / d).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text("utf-8"), str(path), feature_version=version)
