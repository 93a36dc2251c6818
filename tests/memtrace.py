"""Traced-memory peak of one call, shared by the working-set tests."""

import tracemalloc


def traced_peak(fn) -> int:
    """Bytes by which memory traced during ``fn()`` peaks above where it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
