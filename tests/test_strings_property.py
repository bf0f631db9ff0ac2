"""Property tests for the string-key encoding layer (ISSUE 9).

Two consumers share :func:`~repro.core.strings.encode_string` and must
never disagree about order:

* :class:`StringGrafite` treats over-long query endpoints
  *conservatively* — truncation may only widen a range (false positives
  allowed, false negatives never);
* :class:`StringKeyCodec` threads string keys through the integer
  engine and must be *exact* — a storable key is inside the encoded
  integer range iff it is inside the original string range.

The hypothesis properties below pin both contracts over random byte
strings, including the regression this PR fixes: a truncated high
endpoint whose round-up would overflow the key width (an all-``0xFF``
truncation) must saturate at the universe top instead of crashing or
producing an out-of-range endpoint.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strings import (
    StringGrafite,
    StringKeyCodec,
    decode_string,
    encode_endpoint,
    encode_string,
)
from repro.errors import InvalidQueryError

BYTES = st.binary(min_size=0, max_size=10)
#: Storable keys for exactness properties: canonical (no trailing NULs,
#: which the encoding deliberately identifies with their stripped form).
CANONICAL = st.binary(min_size=0, max_size=6).map(lambda b: b.rstrip(b"\x00"))
WIDTHS = st.integers(min_value=1, max_value=6)


# ----------------------------------------------------------------------
# encode_string: order preservation (satellite property #1)
# ----------------------------------------------------------------------
@given(BYTES, BYTES, WIDTHS)
@settings(max_examples=200, deadline=None)
def test_encode_string_preserves_order(a, b, width):
    """``a < b  ⇒  enc(a) ≤ enc(b)`` for storable keys.

    Equality is allowed exactly when the two keys differ only by
    trailing NUL padding — the encoding's one documented collision."""
    a, b = a[:width], b[:width]
    ea, eb = encode_string(a, width), encode_string(b, width)
    if a < b:
        assert ea <= eb
        if ea == eb:
            assert b.rstrip(b"\x00") == a.rstrip(b"\x00")
    elif a == b:
        assert ea == eb


@given(CANONICAL, WIDTHS)
@settings(max_examples=200, deadline=None)
def test_encode_decode_round_trip(key, width):
    key = key[:width].rstrip(b"\x00")
    assert decode_string(encode_string(key, width), width) == key


# ----------------------------------------------------------------------
# encode_endpoint: width-truncation monotonicity (satellite property #2)
# ----------------------------------------------------------------------
@given(BYTES, BYTES, WIDTHS)
@settings(max_examples=200, deadline=None)
def test_endpoint_low_side_is_monotone(a, b, width):
    """The round-down encoding is monotone in plain byte order, at any
    width — truncating a low endpoint can only move it down."""
    if a > b:
        a, b = b, a
    assert encode_endpoint(a, width, round_up=False) <= encode_endpoint(
        b, width, round_up=False
    )


@given(BYTES, WIDTHS)
@settings(max_examples=200, deadline=None)
def test_endpoint_round_up_dominates_round_down(key, width):
    assert encode_endpoint(key, width, round_up=True) >= encode_endpoint(
        key, width, round_up=False
    )


@given(BYTES, WIDTHS, WIDTHS)
@settings(max_examples=200, deadline=None)
def test_endpoint_truncation_monotonicity_across_widths(key, w1, w2):
    """Shrinking the width only widens the covered block.

    Scaling the narrow encoding up to the wide key space (low endpoint
    zero-padded, high endpoint one-padded) must bracket the wide
    encoding: ``[lo_w1, hi_w1] ⊇ [lo_w2, hi_w2]`` after scaling. This is
    the conservativeness of truncation stated as interval containment."""
    if w1 > w2:
        w1, w2 = w2, w1
    shift = 8 * (w2 - w1)
    lo_narrow = encode_endpoint(key, w1, round_up=False) << shift
    hi_narrow = (encode_endpoint(key, w1, round_up=True) << shift) | (
        (1 << shift) - 1
    )
    assert lo_narrow <= encode_endpoint(key, w2, round_up=False)
    assert hi_narrow >= encode_endpoint(key, w2, round_up=True)


@given(BYTES, WIDTHS)
@settings(max_examples=200, deadline=None)
def test_endpoint_always_inside_universe(key, width):
    """No endpoint may ever leave the key universe — the overflow
    regression: an over-width endpoint whose truncation is all ``0xFF``
    must saturate, not increment out of range."""
    universe = 1 << (8 * width)
    for round_up in (False, True):
        assert 0 <= encode_endpoint(key, width, round_up=round_up) < universe


@given(st.lists(CANONICAL, min_size=1, max_size=16), BYTES, BYTES, st.data())
@settings(max_examples=100, deadline=None)
def test_string_grafite_never_false_negative(keys, lo, hi, data):
    """Any stored key plain-byte-inside ``[lo, hi]`` must be reported,
    whatever the endpoint lengths (truncation only widens)."""
    width = data.draw(st.integers(1, 4))
    keys = sorted({k[:width].rstrip(b"\x00") for k in keys})
    if lo > hi:
        lo, hi = hi, lo
    f = StringGrafite(keys, max_key_bytes=width, eps=0.3, seed=7)
    if any(lo <= k <= hi for k in keys):
        assert f.may_contain_range(lo, hi)
    for k in keys:
        assert f.may_contain(k)


# ----------------------------------------------------------------------
# Satellite 1 regression: round-up overflow at the top of the universe
# ----------------------------------------------------------------------
class TestEndpointOverflowRegression:
    def test_all_ff_truncation_saturates(self):
        """Rounding up an over-width endpoint whose truncation is all
        ``0xFF`` would overflow the width; it must saturate instead."""
        assert encode_endpoint(b"\xff" * 4, 3, round_up=True) == 2**24 - 1
        assert encode_endpoint(b"\xff" * 9, 8, round_up=True) == 2**64 - 1

    def test_non_saturating_truncation_rounds_up_by_one(self):
        """The honest round-up: an over-width high endpoint admits the
        whole storable block of its truncation, i.e. truncation + 1."""
        assert (
            encode_endpoint(b"ab\x7f-tail", 3, round_up=True)
            == encode_string(b"ab\x7f", 3) + 1
        )

    def test_prefix_query_at_universe_top_is_safe_and_positive(self):
        """The regression scenario: a prefix/range probe whose rounded-up
        endpoint overflows the key width. Must not crash, must not
        raise, and must still find the stored all-``0xFF`` key."""
        f = StringGrafite([b"\xff\xff\xff", b"abc"], max_key_bytes=3, eps=0.01, seed=1)
        assert f.may_contain(b"\xff\xff\xff")
        # Over-width endpoints on both sides of the stored key.
        assert f.may_contain_range(b"\xff\xff\xfe\x01", b"\xff" * 6)
        assert isinstance(f.may_contain_prefix(b"\xff" * 5), bool)
        # Inclusive-of-extensions semantics at the top of the universe.
        assert f.may_contain_range(b"\xff\xff\xff", b"\xff\xff\xff\x00\x01")

    def test_codec_collapses_range_above_universe_top(self):
        """The exact codec's view of the same corner: a low endpoint
        strictly above every storable key collapses the range."""
        codec = StringKeyCodec(width=3)
        assert codec.encode_range(b"\xff" * 4, b"\xff" * 5) is None
        assert codec.encode_range(b"\xff" * 3, b"\xff" * 5) == (
            2**24 - 1, 2**24 - 1
        )
        assert codec.encode_prefix(b"\xff" * 4) is None

    def test_inverted_range_still_rejected(self):
        f = StringGrafite([b"m"], max_key_bytes=2, eps=0.1, seed=0)
        with pytest.raises(InvalidQueryError):
            f.may_contain_range(b"z", b"a")


# ----------------------------------------------------------------------
# StringKeyCodec: exactness against brute force
# ----------------------------------------------------------------------
@given(st.lists(CANONICAL, min_size=0, max_size=16), BYTES, BYTES, st.data())
@settings(max_examples=150, deadline=None)
def test_codec_range_image_is_exact(keys, lo, hi, data):
    """A storable key is inside the encoded integer range iff it is
    inside the string range — both directions, any endpoint length."""
    width = data.draw(st.integers(1, 4))
    codec = StringKeyCodec(width=width)
    keys = sorted({k[:width].rstrip(b"\x00") for k in keys})
    if lo > hi:
        lo, hi = hi, lo
    image = codec.encode_range(lo, hi)
    for k in keys:
        inside = lo <= k <= hi
        mapped = image is not None and image[0] <= codec.encode_key(k) <= image[1]
        assert mapped == inside, (
            f"codec image {image} disagrees with bytes order for "
            f"key={k!r} in [{lo!r}, {hi!r}] at width {width}"
        )


@given(st.lists(CANONICAL, min_size=0, max_size=16), CANONICAL, st.data())
@settings(max_examples=150, deadline=None)
def test_codec_prefix_image_is_exact(keys, prefix, data):
    width = data.draw(st.integers(1, 4))
    codec = StringKeyCodec(width=width)
    keys = sorted({k[:width].rstrip(b"\x00") for k in keys})
    image = codec.encode_prefix(prefix)
    for k in keys:
        inside = k.startswith(prefix) or (
            # identification of a key with itself plus trailing NULs
            prefix.startswith(k) and prefix[len(k):].strip(b"\x00") == b""
        )
        mapped = image is not None and image[0] <= codec.encode_key(k) <= image[1]
        assert mapped == inside, (
            f"prefix image {image} disagrees for key={k!r}, "
            f"prefix={prefix!r} at width {width}"
        )


@given(BYTES, BYTES, WIDTHS)
@settings(max_examples=100, deadline=None)
def test_codec_inverted_ranges_raise(a, b, width):
    codec = StringKeyCodec(width=width)
    if a == b:
        return
    lo, hi = (a, b) if a < b else (b, a)
    with pytest.raises(InvalidQueryError):
        codec.encode_range(hi, lo)


# ----------------------------------------------------------------------
# StringView prefix probes against a brute-force prefix oracle
# ----------------------------------------------------------------------
PREFIX_KEYS = [
    b"a", b"ab", b"abc", b"abd", b"abzz", b"b", b"ba", b"bab", b"c\xff",
    b"cat", b"catx", b"dog", b"dogs", b"e", b"\x01\x02", b"zz\x01",
]
PREFIXES = [
    b"",       # every stored key
    b"a", b"ab", b"abz", b"b", b"ca", b"cat", b"c\xff", b"do", b"\x01",
    b"q",      # matches nothing
    b"abc\x01",  # full-width, matches nothing
    b"catxy",  # over-width: encode_prefix is None
]


@pytest.mark.parametrize("front", ["engine", "service"])
def test_string_view_prefix_probes_match_brute_force(front):
    from repro.engine import RangeQueryService, ShardedEngine
    from repro.filters import FilterSpec

    codec = StringKeyCodec(width=4)
    engine = ShardedEngine(
        codec.universe,
        num_shards=3,
        memtable_limit=4,
        filter_spec=FilterSpec(
            "grafite", bits_per_key=14, max_range_size=64, seed=7
        ),
        key_codec=codec,
    )
    service = None
    if front == "service":
        service = RangeQueryService(engine, num_threads=2)
    view = (service or engine).strings
    try:
        stored = {}
        for i, key in enumerate(PREFIX_KEYS):
            view.put(key, i)
            stored[key] = i
        for key in (b"abd", b"dogs"):  # tombstones must hide their keys
            view.delete(key)
            del stored[key]
        assert codec.encode_prefix(b"catxy") is None
        for prefix in PREFIXES:
            want = sorted(
                (k, v) for k, v in stored.items() if k.startswith(prefix)
            )
            assert view.prefix_scan(prefix) == want, prefix
            assert view.prefix_empty(prefix) == (not want), prefix
        assert view.prefix_empty(b"catxy") and view.prefix_scan(b"catxy") == []
        assert not view.prefix_empty(b"")
        assert len(view.prefix_scan(b"")) == len(stored)
        assert view.prefix_empty(b"q") and view.prefix_scan(b"q") == []
    finally:
        if service is not None:
            service.close()
