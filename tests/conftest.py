import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Every property test checks exact values; a wall-clock deadline would only
# make its verdict depend on how busy the host is.
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")
