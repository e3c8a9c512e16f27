"""Test-wide settings: property tests draw the same examples on every run."""

try:
    from hypothesis import settings
except ImportError:  # modules that use it report the missing import themselves
    pass
else:
    settings.register_profile("ophp", derandomize=True, deadline=None)
    settings.load_profile("ophp")
