"""Shared test set-up: every test starts with specsing's memo caches empty,
so no test sees values that an earlier test computed."""
import sys

import pytest

import specsing  # noqa: F401  (loads every submodule)


def _caches():
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "specsing" or name.startswith("specsing."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


@pytest.fixture(autouse=True)
def _cold_caches():
    for f in _caches():
        f.cache_clear()
