"""Every hypothesis test runs the same examples on every run.

`derandomize` draws each test's examples from a seed fixed by the test
itself, and without an example database a `.hypothesis/` directory left
in a checkout replays nothing: a failure one run finds, every run finds.
Each test's own `max_examples` and `@example`s still apply.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
