"""The package's public names: `__all__` is exactly what `__init__` imports, and each name resolves."""

import ast
import inspect

import weilcodes


def test_all_lists_exactly_the_imported_public_names():
    tree = ast.parse(inspect.getsource(weilcodes))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert len(weilcodes.__all__) == len(set(weilcodes.__all__))
    assert set(weilcodes.__all__) == imported


def test_every_exported_name_resolves_and_star_import_works():
    for name in weilcodes.__all__:
        assert getattr(weilcodes, name) is not None, name
    namespace = {}
    exec("from weilcodes import *", namespace)
    assert set(weilcodes.__all__) <= set(namespace)
