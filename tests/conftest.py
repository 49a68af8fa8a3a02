"""Guards shared by every test module."""

import mpmath as mp
import pytest


@pytest.fixture(autouse=True)
def mpmath_default_precision():
    """Fail a test that starts or ends with mpmath away from its default 53
    bits.  A precision set at import, or left by one test, reaches every
    later test of the run, so a comparison could pass in the full suite and
    fail alone; a test that needs more digits asks under mp.workprec or
    mp.workdps."""
    assert mp.mp.prec == 53, f"test starts at mpmath prec {mp.mp.prec}"
    yield
    assert mp.mp.prec == 53, f"test ends at mpmath prec {mp.mp.prec}"
