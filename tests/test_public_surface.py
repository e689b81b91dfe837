"""The package's exported names: every entry of __all__ resolves, once."""

import dhtroutability


def test_all_names_resolve_without_duplicates():
    names = dhtroutability.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(dhtroutability, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from dhtroutability import *", namespace)
    assert set(dhtroutability.__all__) <= set(namespace)
