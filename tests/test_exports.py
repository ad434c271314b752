"""Every name a module exports resolves, so `from module import *` cannot break."""

import pytest

import _oracles
import fracvas
from fracvas import fbm, model, specfun, transforms


@pytest.mark.parametrize(
    "module", [fracvas, fbm, model, specfun, transforms], ids=lambda m: m.__name__
)
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_no_oracle_is_a_package_export():
    defined = [
        name
        for name, value in vars(_oracles).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == "_oracles"
    ]
    assert defined
    assert [name for name in defined if hasattr(fracvas, name)] == []
