"""Test-wide settings: property tests draw the same examples on every run,
from the profile ``HYPOTHESIS_PROFILE`` names: ``ophp`` (the default) or
``ophp-deep``, which draws twenty times as many.  Fixtures count numpy's
factorizations and give a test an empty kernel-operator or config memo."""

import os

import numpy as np
import pytest

from ophp import operators, specs

try:
    from hypothesis import settings
except ImportError:  # modules that use it report the missing import themselves
    pass
else:
    settings.register_profile("ophp", derandomize=True, deadline=None)
    settings.register_profile(
        "ophp-deep", settings.get_profile("ophp"), max_examples=2000
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ophp"))


@pytest.fixture
def cold_kernel_memo(monkeypatch):
    """An empty kernel-operator memo for the test; the process's memo comes
    back after it.  What a test counts on kernel models then does not depend
    on which tests ran before it."""
    monkeypatch.setattr(operators, "_LAST_KERNEL", (None, None))


@pytest.fixture
def cold_config_memo(monkeypatch):
    """An empty config memo for the test, and a call that empties it again;
    the process's memo comes back after it.  A request after the call parses
    its config and builds its model anew."""

    def forget():
        monkeypatch.setattr(specs, "_LAST_CONFIG", (None, None))

    forget()
    return forget


@pytest.fixture
def calls(monkeypatch):
    """Calls to numpy's symmetric eigensolvers and SVD during the test."""
    counts = {"eigh": 0, "eigvalsh": 0, "svd": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts
