"""The bytes of ``repr()`` for every value of a float64 array at once.

``repr_bytes(values)`` returns an ``S24`` array of ``values``' shape whose
items are ``repr(float(v)).encode()``, NUL-padded.  It takes the shortest
digits that read back to the same double, the closest such digits to its
exact value and, between two as close, the even one, as Python's repr()
does.  They are found by Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020; the JDK's ``Double.toString``) in 64-bit integer
arithmetic only, so the text does not depend on numpy's CPU dispatch.
Java's rule that prefers two digits is left out.  The digits are laid out as
Python's 'r' format lays them out: exponent form below 1e-4 and from 1e16 in
magnitude, with at least two exponent digits, and ``.0`` after an integral
value otherwise.  ±0.0, nan, ±inf and subnormals whose significand is below
100 go through repr() itself.

The package imports this module on first use only, so ``import nlcmfo``
never builds its tables.
"""

from __future__ import annotations

import numpy as np

# Every operand of the arithmetic below is a uint64 array or an np.uint64
# scalar: numpy 1.x and 2.x turn int64 mixed with uint64 into float64,
# which would round the 64-bit integers, and pyproject allows numpy >= 1.24.
# Decimal exponents are therefore kept with _BIAS added, so they stay >= 0.
U = np.uint64
_BIAS = 400
_M32 = U(0xFFFF_FFFF)
_M63 = U((1 << 63) - 1)
_ONE, _TWO = U(1), U(2)
_T_MASK = U((1 << 52) - 1)
_HIDDEN = U(1 << 52)
_EXPONENTS = 2047          # finite biased exponents, 0 for subnormals
_MIN_SIGNIFICAND = U(100)  # subnormals below it go through repr()


def _flog10pow2(e: int) -> int:
    """floor(log10(2^e)), for |e| <= 5,456,721 (the JDK's constants)."""
    return (e * 661_971_961_083) >> 41


def _flog10three_quarters_pow2(e: int) -> int:
    """floor(log10(3/4 2^e)), for |e| <= 5,456,721."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e: int) -> int:
    """floor(log2(10^e)), for |e| <= 1,838,394."""
    return (e * 913_124_641_741) >> 38


def _g(k: int) -> int:
    """floor(10^-k 2^(125 - floor(log2 10^-k))) + 1, in (2^125, 2^126]."""
    r = 125 - _flog2pow10(-k)
    if k <= 0:
        ten = 10 ** -k
        return (ten << r if r >= 0 else ten >> -r) + 1
    return (1 << r) // 10 ** k + 1


def _exponent_tables():
    """k + _BIAS, h and g per table index, which is the biased exponent,
    plus _EXPONENTS where the spacing below the value is half that above it
    (a power of two above the least normal); g as its upper 63-bit half g1,
    then the low and high 32-bit limbs of its lower half g0 and of g1.  And
    the integer fast path's shift per biased exponent, 63 where it never
    holds."""
    g = [_g(k) for k in range(-324, 293)]
    g1 = np.array([v >> 63 for v in g], dtype=U)
    g0 = np.array([v & ((1 << 63) - 1) for v in g], dtype=U)
    # small signed integers, made uint64 before the kernel meets them
    q = np.maximum(np.arange(_EXPONENTS), 1) - 1075
    k = np.concatenate([_flog10pow2(q), _flog10three_quarters_pow2(q)])
    h = np.concatenate([q, q]) + _flog2pow10(-k) + 2
    shift = 1075 - np.arange(_EXPONENTS)
    fast = np.where((shift > 0) & (shift < 53), shift, 63)
    g1, g0 = g1[k + 324], g0[k + 324]
    return ((k + _BIAS).astype(U), h.astype(U),
            (g1, g0 & _M32, g0 >> U(32), g1 & _M32, g1 >> U(32)),
            fast.astype(U))


_K, _H, _G, _FAST = _exponent_tables()
# 10^1 .. 10^16: a significand of n digits has n - 1 of them at or below it
_POW10 = np.array([10 ** i for i in range(1, 17)], dtype=U)

# A value's text is gathered from one row of 32 source bytes, filled as
# eight uint32 words: six constant bytes, the 17 significand digits
# right-aligned with leading zeros (byte 7, then words 2-5), and the 3
# exponent digits with leading zeros (word 6).
_NUL, _MINUS, _PLUS, _ZERO, _DOT, _E = range(6)
_DIGITS = 7
_EXP_DIGITS = 24
_WIDTH = 32
_HEAD = np.frombuffer(b"\0-+0.e\0\0", dtype=U)[0]
_FOUR_DIGITS = np.ascontiguousarray(
    (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + 48).T
).view(np.uint32).reshape(-1)

# Layouts by decimal point position decpt (value = 0.d1d2... 10^decpt):
# positional for decpt in [-3, 16], modes 0-19; exponent form otherwise,
# mode 20 + 2 (exponent < 0) + (3 exponent digits).
_MODES = 24


def _mode(decpt: int) -> int:
    if -3 <= decpt <= 16:
        return decpt + 3
    return 20 + 2 * (decpt < 1) + (abs(decpt - 1) >= 100)


def _layout(n: int, mode: int) -> bytes:
    """The source bytes of the text of a positive n-digit value, padded with
    NULs to 24 (at most 23 are text)."""
    digits = list(range(_DIGITS + 17 - n, _DIGITS + 17))
    if mode < 20:
        decpt = mode - 3
        if decpt <= 0:
            body = [_ZERO, _DOT] + [_ZERO] * -decpt + digits
        elif decpt < n:
            body = digits[:decpt] + [_DOT] + digits[decpt:]
        else:
            body = digits + [_ZERO] * (decpt - n) + [_DOT, _ZERO]
    else:
        body = (digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
                + [_E, _MINUS if mode >= 22 else _PLUS]
                + list(range(_EXP_DIGITS + 1 - mode % 2, _EXP_DIGITS + 3)))
    return bytes(body + [_NUL] * (24 - len(body)))


# row (sign * 17 + n - 1) * _MODES + mode; a negative value's text is a
# minus sign and then its magnitude's
_POSITIVE = np.frombuffer(b"".join(_layout(n, mode) for n in range(1, 18)
                                   for mode in range(_MODES)),
                          dtype=np.uint8).reshape(-1, 24)
_LAYOUTS = np.concatenate([
    _POSITIVE, np.insert(_POSITIVE[:, :-1], 0, _MINUS, axis=1)]).astype(np.intp)
_DECPTS = range(-_BIAS, _BIAS)
_MODE_OF = np.array([_mode(d) for d in _DECPTS], dtype=U)
_EXP_TEXT = np.frombuffer(
    b"".join(b"%03d\0" % abs(d - 1) for d in _DECPTS), dtype=np.uint32)


def _mulhi(a0, a1, b0, b1):
    """The high 64 bits of each 128-bit product a b, given the low and high
    32-bit limbs of a and b."""
    m1, m2 = a1 * b0, a0 * b1
    mid = ((a0 * b0) >> U(32)) + (m1 & _M32) + (m2 & _M32)
    return a1 * b1 + (m1 >> U(32)) + (m2 >> U(32)) + (mid >> U(32))


def _rop(g, cp):
    """floor(cp g 2^-127) with its lowest bit set when inexact (round to
    odd), for g = g1 2^63 + g0 given as (g1, and g0's and g1's limbs)."""
    g1, g00, g01, g10, g11 = g
    c0, c1 = cp & _M32, cp >> U(32)
    z = ((g1 * cp) >> _ONE) + _mulhi(g00, g01, c0, c1)
    return ((_mulhi(g10, g11, c0, c1) + (z >> U(63)))
            | (((z & _M63) + _M63) >> U(63)))


def _shortest(bits):
    """Sign, significand digits f and biased exponent e with the value
    equal to (-1)^sign f 10^(e - _BIAS), f shortest and without trailing
    zeros, for the bits of finite nonzero doubles."""
    sign = bits >> U(63)
    bq = (bits >> U(52)) & U(0x7FF)
    t = bits & _T_MASK
    c = np.where(bq == U(0), t, t | _HIDDEN)
    irregular = ((t == U(0)) & (bq > _ONE)).astype(U)
    index = bq + irregular * U(_EXPONENTS)
    g = [table.take(index) for table in _G]
    h = _H.take(index)
    odd = c & _ONE
    cb = c << _TWO
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _TWO + irregular) << h) + odd
    vbr = _rop(g, (cb + _TWO) << h) - odd
    # s and s + 1 are the candidates at 10^k; sp10 and sp10 + 10 those at
    # 10^(k+1), taken when s >= 100 and just one of them is in range
    s = vb >> _TWO
    sp10 = s // U(10) * U(10)
    upin = vbl <= sp10 << _TWO
    wpin = (sp10 + U(10)) << _TWO <= vbr
    uin = vbl <= s << _TWO
    win = (s + _ONE) << _TWO <= vbr
    mid = ((s << _ONE) + _ONE) << _ONE
    take_s = np.where(uin != win, uin,
                      (vb < mid) | ((vb == mid) & ((s & _ONE) == U(0))))
    f = np.where((s >= U(100)) & (upin != wpin),
                 np.where(upin, sp10, sp10 + U(10)),
                 s + (~take_s).astype(U))
    e = _K.take(index)
    # an integer below 2^53 is its own shortest digits
    shift = _FAST.take(bq)
    whole = c >> shift
    integral = (whole << shift) == c
    f = np.where(integral, whole, f)
    e = np.where(integral, U(_BIAS), e)
    for p in (16, 8, 4, 2, 1):
        ten = U(10 ** p)
        quotient = f // ten
        strip = quotient * ten == f
        f = np.where(strip, quotient, f)
        e = np.where(strip, e + U(p), e)
    return sign, f, e


def repr_bytes(values) -> np.ndarray:
    """An S24 array of ``values``' shape holding repr() of each float64."""
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    bits = x.view(U)
    bq = (bits >> U(52)) & U(0x7FF)
    special = (bq == U(_EXPONENTS)) | ((bq == U(0))
                                       & ((bits & _T_MASK) < _MIN_SIGNIFICAND))
    any_special = special.any()
    if any_special:  # computed as 1.0, then replaced
        bits = np.where(special, U(0x3FF0_0000_0000_0000), bits)
    sign, f, e = _shortest(bits)
    n = np.searchsorted(_POW10, f, side="right").astype(U) + _ONE
    decpt = e + n                   # + _BIAS, an index of _DECPTS
    count = x.size
    words = np.empty((count, _WIDTH // 4), dtype=np.uint32)
    source = words.view(np.uint8)
    words.view(U)[:, 0] = _HEAD
    top = f // U(10 ** 16)
    source[:, _DIGITS] = (top + U(48)).astype(np.uint8)
    rest = f - top * U(10 ** 16)
    high = rest // U(10 ** 8)
    low = rest - high * U(10 ** 8)
    for word, eight in ((2, high), (4, low)):
        four = eight // U(10_000)
        words[:, word] = _FOUR_DIGITS.take(four)
        words[:, word + 1] = _FOUR_DIGITS.take(eight - four * U(10_000))
    words[:, _EXP_DIGITS // 4] = _EXP_TEXT.take(decpt)
    layout = (sign * U(17) + n - _ONE) * U(_MODES) + _MODE_OF.take(decpt)
    # the gather's indices are intp, which the uint64 values never meet
    at = _LAYOUTS.take(layout.astype(np.intp), axis=0)
    at += np.arange(0, count * _WIDTH, _WIDTH)[:, None]
    text = source.reshape(-1).take(at).view("S24").reshape(-1)
    if any_special:
        text[special] = [repr(v).encode() for v in x[special].tolist()]
    return text.reshape(np.shape(values))
