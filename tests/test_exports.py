"""The package namespace: every name in orientgeo.__all__ resolves."""

import orientgeo


def test_every_exported_name_resolves():
    missing = [name for name in orientgeo.__all__ if not hasattr(orientgeo, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from orientgeo import *", namespace)
    assert set(orientgeo.__all__) <= namespace.keys()
