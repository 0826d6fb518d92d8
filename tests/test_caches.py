"""The cache policy: every cache of oligocat is a functools.lru_cache on a
module-level function of hashable values, except the seven dicts that the
benchmark's cache report reads by name."""

import importlib
import pkgutil

import oligocat

NAMED_DICTS = {"integration._push_cache", "integration._pull_index",
               "fraisse._emb_cache", "fraisse._amalgam_cache",
               "fraisse._aut_cache", "fraisse._upto_cache",
               "fraisse._span_cache"}


def _modules():
    for info in pkgutil.iter_modules(oligocat.__path__):
        yield importlib.import_module(f"oligocat.{info.name}")


def test_no_class_holds_a_cache():
    found = [f"{module.__name__}.{name}.{attr}"
             for module in _modules()
             for name, cls in vars(module).items()
             if isinstance(cls, type) and cls.__module__ == module.__name__
             for attr, value in vars(cls).items()
             if hasattr(value, "cache_info")]
    assert found == []


def test_module_dict_caches_are_the_named_seven():
    found = {f"{module.__name__.rsplit('.', 1)[1]}.{name}"
             for module in _modules()
             for name, value in vars(module).items()
             if isinstance(value, dict)
             and name.endswith(("_cache", "_index"))}
    assert found == NAMED_DICTS
