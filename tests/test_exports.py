"""The package's export list: every exported name resolves, none is missing."""
import ast
from pathlib import Path

import wecp


def _imported_public_names():
    tree = ast.parse(Path(wecp.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_exported_name_resolves():
    assert len(set(wecp.__all__)) == len(wecp.__all__)
    for name in wecp.__all__:
        assert hasattr(wecp, name), name


def test_all_names_exactly_the_imported_public_names():
    assert set(wecp.__all__) == _imported_public_names()
