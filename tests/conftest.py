import sys

import pytest


@pytest.fixture
def int_digit_limit():
    """The interpreter's int/str digit limit; skips where there is none."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    return limit
