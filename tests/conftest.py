"""Test configuration: one hypothesis profile for the whole suite.

Field tables are built on first use, inside whichever example first needs
them, so per-example deadlines would fail on that build; they are off.
"""

from hypothesis import settings

settings.register_profile("apcong", deadline=None)
settings.load_profile("apcong")
