"""Every name a module exports resolves, so `from module import *` cannot break."""

import pytest

import fracvas
from fracvas import fbm, model, specfun, transforms


@pytest.mark.parametrize(
    "module", [fracvas, fbm, model, specfun, transforms], ids=lambda m: m.__name__
)
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
