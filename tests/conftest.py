import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# derandomize=True makes every run draw the same examples, so the suite
# stays reproducible
settings.register_profile(
    "setpack", derandomize=True, database=None, max_examples=150, deadline=None
)
