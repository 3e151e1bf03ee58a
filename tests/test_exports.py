import importlib
import pkgutil

import coldscatter


def test_every_exported_name_resolves():
    stale = []
    for info in pkgutil.iter_modules(coldscatter.__path__):
        module = importlib.import_module(f"coldscatter.{info.name}")
        for name in getattr(module, "__all__", ()):
            try:
                getattr(module, name)
            except AttributeError:
                stale.append(f"coldscatter.{info.name}.{name}")
    assert not stale, f"names in __all__ that no longer exist: {stale}"
