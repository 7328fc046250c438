"""The public namespace of the package."""

import hopfkit


def test_all_is_sorted_unique_and_resolves():
    names = hopfkit.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(hopfkit, name)] == []
