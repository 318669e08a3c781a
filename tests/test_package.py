"""The package's exports: `__all__` names only what the package defines."""

import tilesim


def test_every_name_in_all_resolves_on_the_package():
    assert [name for name in tilesim.__all__ if not hasattr(tilesim, name)] == []


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from tilesim import *", namespace)
    assert set(tilesim.__all__) <= namespace.keys()
