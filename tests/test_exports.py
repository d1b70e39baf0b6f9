"""The package's public names: a stale export would break ``import *``."""

from __future__ import annotations

from collections import Counter

import plumbhom


def test_every_export_resolves_once():
    assert [name for name, n in Counter(plumbhom.__all__).items() if n > 1] == []
    assert [name for name in plumbhom.__all__ if not hasattr(plumbhom, name)] == []
    namespace: dict = {}
    exec("from plumbhom import *", namespace)
    assert set(plumbhom.__all__) <= set(namespace)
