"""Every exported name resolves, in the package and in each module."""

import importlib

import pytest

MODULES = ["polcomp"] + [
    f"polcomp.{name}"
    for name in ("stokes", "polarimetry", "lcvr", "compensation", "bench", "io", "cli")
]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)



def test_package_exports_every_library_module_name():
    import polcomp

    library = ("stokes", "polarimetry", "lcvr", "compensation", "bench")
    expected = ["__version__"]
    for name in library:
        expected += importlib.import_module(f"polcomp.{name}").__all__
    assert polcomp.__all__ == expected
