import pytest
from hypothesis import given, strategies as st

from superalg.errors import CapacityError
from superalg.multiindex import (
    MAX_GENERATORS,
    bits_from_indices,
    indices_from_bits,
    merge_bits,
    sort_key,
)

masks = st.integers(min_value=0, max_value=(1 << 10) - 1)


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
