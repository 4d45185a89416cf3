"""The package's public names: each export resolves, and each operation
has one entry point."""

import pytest

import soobox


@pytest.mark.parametrize("name", soobox.__all__)
def test_every_export_resolves(name):
    assert getattr(soobox, name) is not None


@pytest.mark.parametrize("name", ["split_leaf", "incumbent"])
def test_tree_operations_are_methods_only(name):
    # PartitionTree.split_leaf and .incumbent are the one path
    assert not hasattr(soobox, name)
    assert callable(getattr(soobox.PartitionTree, name))
