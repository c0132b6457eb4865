import importlib

import pytest

MODULES = ["nlspectra", "nlspectra.drummond", "nlspectra.spectra", "nlspectra.oracle"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # a deleted name cannot stay in __all__
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
