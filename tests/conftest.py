import math
import tracemalloc

import pytest


def _traced_fields(fn, shape=(16, 16, 16, 16)):
    """fn()'s result, and its traced peak above the memory traced when it
    starts, in whole real fields of a grid of this shape."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, (peak - start) / (8 * math.prod(shape))


@pytest.fixture
def traced_fields():
    """_traced_fields, for tests that bound a working set."""
    return _traced_fields
