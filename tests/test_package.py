import ast
import re
from pathlib import Path

import kgreason

ROOT = Path(__file__).resolve().parent.parent


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from kgreason import *", namespace)
    missing = [name for name in kgreason.__all__ if name not in namespace]
    assert missing == []
    assert len(set(kgreason.__all__)) == len(kgreason.__all__)


def test_sources_parse_at_the_declared_python_floor():
    """Every module parses with the grammar of the oldest Python that
    ``requires-python`` admits. pyproject.toml is read with a regex because
    ``tomllib`` only exists from 3.11."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups())
    sources = sorted((ROOT / "src" / "kgreason").glob("*.py"))
    assert sources
    for source in sources:
        ast.parse(source.read_text(encoding="utf-8"), str(source), feature_version=(major, minor))
