"""The search-history value kernel gives repr()'s bytes for every double."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcmfo._shortrepr import repr_bytes

SIGNIFICANDS = (0, 1, 2, 99, 100, 101, 1 << 51, (1 << 52) - 2, (1 << 52) - 1)


def assert_matches_repr(values):
    values = np.asarray(values, dtype=np.float64)
    texts = repr_bytes(values)
    assert texts.dtype == np.dtype("S24")
    assert texts.shape == values.shape
    got = texts.ravel().tolist()
    want = [repr(v).encode() for v in values.ravel().tolist()]
    mismatches = [(v, g, w) for v, g, w
                  in zip(values.ravel().tolist(), got, want) if g != w]
    assert not mismatches, mismatches[:10]


def from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def test_every_exponent_with_edge_significands():
    exponents = np.arange(2047, dtype=np.uint64)[:, None] << np.uint64(52)
    bits = (exponents | np.array(SIGNIFICANDS, dtype=np.uint64)).ravel()
    assert_matches_repr(from_bits(np.concatenate(
        [bits, bits | np.uint64(1 << 63)])))


def test_powers_of_two_and_non_finite_values():
    powers = [2.0 ** e for e in range(-1074, 1024)]
    assert_matches_repr(powers + [-p for p in powers]
                        + [np.nan, np.inf, -np.inf])


def test_both_sides_of_the_exponent_form_switches():
    # repr() takes exponent form below 1e-4 and from 1e16 in magnitude
    edges = np.array([1e-5, 1e-4, 1e-3, 1e15, 1e16, 1e17])
    values = [edges]
    for toward in (0.0, np.inf):
        step = edges
        for _ in range(3):
            step = np.nextafter(step, toward)
            values.append(step)
    values = np.concatenate(values)
    assert_matches_repr(np.concatenate([values, -values]))


def test_integers_around_two_to_the_53():
    ints = np.arange(2 ** 53 - 2000, 2 ** 53 + 2000, dtype=np.int64)
    assert_matches_repr(np.concatenate([ints, -ints]).astype(np.float64))


def test_short_decimals():
    values = [float(f"{d}e{e}") for d in (1, 2, 5, 9, 12, 25, 99, 123, 4567,
                                          999999999, 12345678901234567)
              for e in range(-330, 310)]
    assert_matches_repr([v for v in values if v != 0.0])


def test_shape_is_kept():
    values = np.array([[1.5, -2.0], [1e300, 3e-300]])[None]
    assert repr_bytes(values).shape == (1, 2, 2)
    assert repr_bytes(values)[0, 1, 1] == b"3e-300"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=64))
def test_arbitrary_bit_patterns(bits):
    assert_matches_repr(from_bits(bits))
