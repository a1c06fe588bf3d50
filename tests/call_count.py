"""The Python-level calls a piece of code makes, for tier-1 work budgets.

A work budget bounds how a count grows with the input, not a time, so it
holds on any machine: a call made per input line shows as growth of about
one per line.
"""

import sys


def python_calls(fn, code=None) -> int:
    """The Python-level calls, generator resumes included, that `fn()` makes,
    or with `code` those that run that code object."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and code in (None, frame.f_code)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls
