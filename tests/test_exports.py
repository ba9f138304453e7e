"""The public name table: each module lists its own public names in
``__all__`` and the package re-exports exactly their concatenation."""

import importlib

import sectorsim

MODULES = tuple(importlib.import_module(f"sectorsim.{name}")
                for name in ("avalanche", "hilbert", "measurement", "sector"))


def test_package_table_is_the_module_tables_joined():
    assert sectorsim.__all__ == [public for module in MODULES for public in module.__all__]
    assert len(set(sectorsim.__all__)) == len(sectorsim.__all__)


def test_every_name_resolves_to_its_module_object():
    for module in MODULES:
        for public in module.__all__:
            obj = getattr(module, public)
            assert getattr(sectorsim, public) is obj
            if callable(obj):
                assert obj.__module__ == module.__name__, public
                assert obj.__name__ == public


def test_star_import_binds_exactly_the_table():
    namespace = {}
    exec("from sectorsim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(sectorsim.__all__)


def test_helpers_stay_unexported():
    for helper in ("kron_sites", "check_guard"):
        assert helper not in sectorsim.__all__
        assert not hasattr(sectorsim, helper)
    # facts the package spells once: the collision gate is bound in
    # cascade_generations, M/N is len(modified_sites) / N, and sector_apply
    # returns its terms as a plain tuple; a cascade's all-ground amplitude is
    # read from either engine like any other configuration's
    for removed in ("scattering_gate", "modified_fraction", "SectorAction",
                    "overlap_ground", "dense_ground_overlap"):
        assert removed not in sectorsim.__all__
        for module in (sectorsim,) + MODULES:
            assert not hasattr(module, removed), (module.__name__, removed)
