import pytest
from hypothesis import given, strategies as st

from superalg.errors import CapacityError
from superalg.multiindex import (
    MAX_GENERATORS,
    bits_from_indices,
    indices_from_bits,
    merge_bits,
    sign_mask,
    sort_key,
)
from superalg.superring import grassmann_ring

masks = st.integers(min_value=0, max_value=(1 << 10) - 1)

FULL = (1 << MAX_GENERATORS) - 1
TOP = 1 << (MAX_GENERATORS - 1)
# Masks over the whole capacity; half of them use the top generator.
wide_masks = st.one_of(st.integers(0, FULL), st.integers(0, FULL).map(lambda m: m | TOP))
# Masks with a few generators anywhere in the capacity, so most pairs are disjoint.
sparse_masks = st.sets(st.integers(0, MAX_GENERATORS - 1), max_size=8).map(
    lambda s: sum(1 << i for i in s)
)


@st.composite
def disjoint_pairs(draw):
    """Two disjoint masks that split a wide mask, in either order."""
    union = draw(wide_masks)
    split = draw(st.integers(0, FULL))
    mu, nu = union & split, union & ~split
    return (mu, nu) if draw(st.booleans()) else (nu, mu)


def oracle_merge(mu, nu):
    """Reference product: concatenate index lists, bubble-sort, count swaps."""
    if mu & nu:
        return None
    seq = list(indices_from_bits(mu)) + list(indices_from_bits(nu))
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return bits_from_indices(seq), -1 if swaps % 2 else 1


@given(masks, masks)
def test_merge_matches_bubble_sort_oracle(mu, nu):
    assert merge_bits(mu, nu) == oracle_merge(mu, nu)


@given(disjoint_pairs())
def test_merge_matches_bubble_sort_oracle_at_full_width(pair):
    assert merge_bits(*pair) == oracle_merge(*pair)


@given(wide_masks)
def test_sign_mask_is_the_parity_above_each_bit(mu):
    mask = sign_mask(mu)
    for j in range(MAX_GENERATORS):
        assert (mask >> j) & 1 == (mu >> (j + 1)).bit_count() & 1


def test_signs_across_the_whole_capacity():
    # Each case needs the parity of a bit more than 32 positions above another.
    assert merge_bits(TOP, 1) == (TOP | 1, -1)
    assert merge_bits(1, TOP) == (TOP | 1, 1)
    assert merge_bits(1 << 40, 1) == ((1 << 40) | 1, -1)
    assert merge_bits(TOP, FULL ^ TOP) == (FULL, -1)  # 63 inversions
    assert merge_bits(FULL ^ 1, 1) == (FULL, -1)
    assert merge_bits(FULL ^ 0b11, 0b11) == (FULL, 1)


@given(
    st.lists(st.one_of(sparse_masks, wide_masks), max_size=5),
    st.lists(st.one_of(sparse_masks, wide_masks), max_size=5),
    disjoint_pairs(),
)
def test_product_sign_matches_merge_bits(left, right, pair):
    """``SuperElement.__mul__`` applies the sign inline; it must agree with ``merge_bits``."""
    ring = grassmann_ring(MAX_GENERATORS)
    x = ring.element({b: i + 1 for i, b in enumerate(left + [pair[0]])})
    y = ring.element({b: 2 * i + 3 for i, b in enumerate(right + [pair[1]])})
    expected = {}
    for b1, c1 in x.terms.items():
        for b2, c2 in y.terms.items():
            merged = merge_bits(b1, b2)
            if merged is not None:
                bits, sign = merged
                expected[bits] = expected.get(bits, 0) + sign * c1 * c2
    assert (x * y).terms == {b: c for b, c in expected.items() if c}


@given(masks, masks)
def test_merge_anticommutes(mu, nu):
    left = merge_bits(mu, nu)
    right = merge_bits(nu, mu)
    if left is None:
        assert right is None
        return
    bits, sign = left
    _, rsign = right
    expected = -sign if (mu.bit_count() * nu.bit_count()) % 2 else sign
    assert rsign == expected


@given(masks, masks, masks)
def test_merge_associates(mu, nu, rho):
    def chain(first, second):
        if first is None:
            return None
        bits, sign = first
        nxt = merge_bits(bits, second) if isinstance(second, int) else None
        if nxt is None:
            return None
        return nxt[0], sign * nxt[1]

    left = chain(merge_bits(mu, nu), rho)
    inner = merge_bits(nu, rho)
    right = None
    if inner is not None:
        step = merge_bits(mu, inner[0])
        if step is not None:
            right = step[0], inner[1] * step[1]
    assert left == right


def test_pack_unpack_round_trip():
    for bits in range(1 << 8):
        assert bits_from_indices(indices_from_bits(bits)) == bits


def test_bits_from_indices_rejects_disorder():
    with pytest.raises(ValueError):
        bits_from_indices((3, 3))
    with pytest.raises(ValueError):
        bits_from_indices((2, 1))


def test_capacity():
    bits_from_indices((MAX_GENERATORS,))
    with pytest.raises(CapacityError):
        bits_from_indices((MAX_GENERATORS + 1,))


def test_single_swap_sign():
    # b2 * b1 = -b1 b2
    assert merge_bits(0b10, 0b01) == (0b11, -1)
    assert merge_bits(0b01, 0b10) == (0b11, 1)
    assert merge_bits(0b01, 0b01) is None


def test_enumeration_is_canonical():
    masks = sorted(range(1 << 3), key=sort_key)
    assert [indices_from_bits(m) for m in masks] == [
        (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3),
    ]
    assert all(sort_key(a) < sort_key(b) for a, b in zip(masks, masks[1:]))
