import importlib
import pkgutil

import pytest

import style_recal

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(style_recal.__path__) if m.name != "__main__")


@pytest.mark.parametrize("module", ["style_recal"] + [f"style_recal.{m}" for m in SUBMODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
