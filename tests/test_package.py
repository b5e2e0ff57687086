"""The package's public surface."""

import matchlattice


def test_every_exported_name_resolves():
    missing = [name for name in matchlattice.__all__ if not hasattr(matchlattice, name)]
    assert missing == []
    assert len(set(matchlattice.__all__)) == len(matchlattice.__all__)
