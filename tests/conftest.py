"""Test-wide settings: property tests draw the same examples on every run,
from the profile ``HYPOTHESIS_PROFILE`` names: ``ophp`` (the default) or
``ophp-deep``, which draws twenty times as many.  Fixtures count numpy's
factorizations and give a test an empty kernel-operator memo, or empty config
and operator-text memos."""

import os
import weakref
from collections import OrderedDict

import numpy as np
import pytest

from ophp import cli, operators, specs

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
    """Empty config and operator-text memos for the test, and a call that
    empties both again; the process's memos come back after it.  A request
    after the call parses its config and builds its model anew, and so
    assembles a new smoother and renders its text anew."""

    def forget():
        monkeypatch.setattr(specs, "_CONFIGS", OrderedDict())
        monkeypatch.setattr(cli, "_OPERATOR_TEXTS", weakref.WeakKeyDictionary())

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
