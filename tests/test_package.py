"""The package's public names: ``simobs.__all__`` and the star import."""
import simobs


def test_every_exported_name_resolves():
    assert len(set(simobs.__all__)) == len(simobs.__all__)
    missing = [name for name in simobs.__all__ if not hasattr(simobs, name)]
    assert missing == []


def test_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from simobs import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(simobs.__all__)
