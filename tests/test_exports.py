"""The package's public names: every exported name resolves."""

import spectral_nsr


def test_star_import_resolves_every_exported_name():
    # a stale name in __all__ makes the star import raise AttributeError
    namespace: dict = {}
    exec("from spectral_nsr import *", namespace)
    assert len(spectral_nsr.__all__) == len(set(spectral_nsr.__all__))
    for name in spectral_nsr.__all__:
        assert namespace[name] is getattr(spectral_nsr, name), name
