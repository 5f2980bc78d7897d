import importlib

import digar

SUBMODULES = ("dependence", "errors", "estimation", "experiments", "model", "simulation")


def test_all_names_resolve():
    for name in digar.__all__:
        assert getattr(digar, name, None) is not None, name


def test_all_is_sorted_and_unique():
    names = list(digar.__all__)
    assert names == sorted(set(names))


def test_all_is_the_union_of_the_submodules():
    # The package re-exports exactly what its library modules declare.
    union = set()
    for name in SUBMODULES:
        union.update(importlib.import_module(f"digar.{name}").__all__)
    assert set(digar.__all__) == union


def test_version():
    assert isinstance(digar.__version__, str)
    assert digar.__version__
