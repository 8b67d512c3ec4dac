"""Test-suite configuration: the hypothesis profile.  Shared helpers live in oracles.py."""

from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")
