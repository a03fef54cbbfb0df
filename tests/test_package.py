"""The package namespace re-exports each module's `__all__`, and nothing shadows."""

from collections import Counter

import dstable
from dstable import analysis, errors, families, inversion, sampling, special

MODULES = (errors, families, special, inversion, sampling, analysis)


def test_no_name_is_public_in_two_modules():
    counts = Counter(name for m in MODULES for name in m.__all__)
    assert [name for name, c in counts.items() if c > 1] == []
    assert sorted(dstable.__all__) == sorted(["__version__", *counts])


def test_each_public_name_is_its_home_module_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(dstable, name) is getattr(m, name), (m.__name__, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from dstable import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(dstable.__all__)
    assert len(dstable.__all__) == len(set(dstable.__all__))
