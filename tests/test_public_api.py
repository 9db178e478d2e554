"""The package's exported names: each one resolves, and each is listed once,
so a name deleted from its module cannot stay exported."""

import collections

import memranger


def test_every_exported_name_resolves():
    missing = [name for name in memranger.__all__ if not hasattr(memranger, name)]
    assert missing == []


def test_every_exported_name_is_listed_once():
    counts = collections.Counter(memranger.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
