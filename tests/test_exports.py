"""The package's export list."""

import mpslearn


def test_every_export_resolves_once():
    names = mpslearn.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(mpslearn, name) is not None, name
