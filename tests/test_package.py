"""The package namespace: submodules only, nothing re-exported over them."""

import inspect
import types

import kcod
import kcod.cli  # noqa: F401  loads every submodule
import kcod.pretrain


def test_submodule_is_not_shadowed_by_a_function():
    assert type(kcod.pretrain) is types.ModuleType
    assert callable(kcod.pretrain.kcl_loss)


def test_only_the_version_is_exported():
    public = [
        name for name, value in vars(kcod).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert public == []
    assert kcod.__version__
