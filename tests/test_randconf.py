"""The seeded generators: the one integer draw, and the sizes they refuse."""

import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from stabgeom import SchemaError
from stabgeom.randconf import (
    _nonzero_vector,
    _randints,
    random_configuration,
    random_frame_configuration,
    random_transform,
    random_vector,
)

FIVE_THOUSAND_DIGITS = 10**4999


class TestRandints:
    """``_randints`` is ``randint`` drawn through ``getrandbits``, bit for bit.

    It copies how CPython's ``randint`` consumes the stream (``_randbelow``
    with rejection); a Python whose ``randint`` draws otherwise fails here.
    """

    @given(
        st.one_of(
            st.integers(),
            st.integers(FIVE_THOUSAND_DIGITS, 10 * FIVE_THOUSAND_DIGITS - 1),
            st.integers(-10 * FIVE_THOUSAND_DIGITS + 1, -FIVE_THOUSAND_DIGITS),
        ),
        st.integers(1, 100),
        st.integers(0, 20),
    )
    @example(seed=-5, bound=17, count=20)
    @example(seed=FIVE_THOUSAND_DIGITS, bound=33, count=20)
    @example(seed=0, bound=1, count=0)
    @settings(max_examples=200, deadline=None)
    def test_same_values_and_same_stream_as_randint(self, seed, bound, count):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _randints(ours, -bound, bound, count) == [
            theirs.randint(-bound, bound) for _ in range(count)
        ]
        assert ours.random() == theirs.random()
        # a range starting at 0, as the segre sampler picks a node
        assert _randints(ours, 0, bound - 1, count) == [
            theirs.randrange(bound) for _ in range(count)
        ]
        assert ours.random() == theirs.random()


class TestNonzeroVector:
    """The ungated draw behind ``random_vector`` and the Segre stray search."""

    @given(st.integers(), st.integers(1, 8), st.integers(1, 40))
    @example(seed=0, length=1, bound=1)
    @settings(max_examples=100)
    def test_same_stream_as_random_vector(self, seed, length, bound):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(5):
            v = _nonzero_vector(ours, length, bound)
            assert v == random_vector(theirs, length, bound) and any(v)
            assert all(-bound <= x <= bound for x in v)
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
