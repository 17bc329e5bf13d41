"""The seeded generators: the sizes they refuse.

The one integer draw, ``_randints``, is checked against ``randint`` in
``tests/test_routes.py``.
"""

import random
import signal
from contextlib import contextmanager

import pytest

from stabgeom import SchemaError
from stabgeom.randconf import (
    _nonzero_vector,
    random_configuration,
    random_frame_configuration,
    random_transform,
    random_vector,
)


class TestNonzeroVector:
    """The ungated draw behind ``random_vector`` and the Segre stray search."""

    def test_random_vector_draws_the_nonzero_vector_stream(self):
        ours, theirs = random.Random(7), random.Random(7)
        assert [random_vector(ours, 4, 1) for _ in range(5)] == [_nonzero_vector(theirs, 4, 1) for _ in range(5)]
        assert ours.random() == theirs.random()

    def test_the_stray_search_gates_no_argument(self, monkeypatch):
        import stabgeom.randconf
        from stabgeom.verify import check_segre_nodes

        def forbidden(*args):
            raise AssertionError("the stray search draws with constant arguments")

        monkeypatch.setattr(stabgeom.randconf, "_check_int", forbidden)
        monkeypatch.setattr(stabgeom.randconf, "random_vector", forbidden)
        assert check_segre_nodes(50, 3).passed


@contextmanager
def _within(seconds):
    """Raise TimeoutError if the block runs longer, so a call that never returns fails."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestRefusedSizes:
    """No draw ends when a length, rank or bound is below 1, so each is refused up front."""

    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda rng: random_vector(rng, 0), "length"),
            (lambda rng: random_vector(rng, 3, 0), "bound"),
            (lambda rng: random_vector(rng, 3, -2), "bound"),
            (lambda rng: random_configuration(rng, 0, 3), "ambient_rank"),
            (lambda rng: random_frame_configuration(rng, 0, 3), "ambient_rank"),
            (lambda rng: random_transform(rng, 0), "n"),
        ],
        ids=[
            "vector-length-0",
            "vector-bound-0",
            "vector-bound-negative",
            "configuration-rank-0",
            "frame-rank-0",
            "transform-size-0",
        ],
    )
    def test_below_one_is_a_value_error(self, call, what):
        with _within(5), pytest.raises(ValueError, match=f"^{what} must be at least 1$"):
            call(random.Random(0))

    @pytest.mark.parametrize(
        "call",
        [
            lambda rng: random_vector(rng, "3"),
            lambda rng: random_vector(rng, 3, 1.5),
            lambda rng: random_vector(rng, 3, True),
            lambda rng: random_configuration(rng, 3.0, 4),
        ],
        ids=[
            "vector-length-str",
            "vector-bound-float",
            "vector-bound-bool",
            "configuration-rank-float",
        ],
    )
    def test_a_non_int_is_a_schema_error(self, call):
        with _within(5), pytest.raises(SchemaError):
            call(random.Random(0))
