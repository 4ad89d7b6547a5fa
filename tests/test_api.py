"""The package's public names: ``mpccert.__all__`` lists what it exports."""

import mpccert


def test_every_exported_name_resolves_once():
    names = mpccert.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(mpccert, name), f"mpccert.{name} is listed in __all__ but gone"
    namespace: dict = {}
    exec("from mpccert import *", namespace)
    assert set(names) <= set(namespace)
