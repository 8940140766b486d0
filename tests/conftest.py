import math
import tracemalloc

import pytest

from obslab import RectangleGeometry, build_mode_set


def peak_bytes(fn) -> int:
    """The peak of the memory traced while fn() runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def square():
    return RectangleGeometry(math.pi, math.pi)


@pytest.fixture(scope="session")
def modes4(square):
    return build_mode_set(square, 4, 4)


@pytest.fixture(scope="session")
def modes6(square):
    return build_mode_set(square, 6, 6)


@pytest.fixture(scope="session")
def modes8(square):
    return build_mode_set(square, 8, 8)
