"""The package's public names."""

import collections

import cuckoo_lab


def test_every_export_resolves_once():
    repeated = [name for name, count in collections.Counter(cuckoo_lab.__all__).items() if count > 1]
    assert repeated == []
    missing = [name for name in cuckoo_lab.__all__ if not hasattr(cuckoo_lab, name)]
    assert missing == []
