"""Bitmask bookkeeping for anticommuting monomials.

A product of odd generators is labelled by a bitmask: bit ``i - 1`` set means
generator ``i`` is a factor, which caps the generator count at 64, and
bitmask 0 labels the unit monomial.  The functions here pack and unpack the
strictly increasing index tuple of a bitmask, multiply two monomials with
their sign, and give the canonical print order.

The sign of a product of two monomials is ``(-1)**inversions``, where
``inversions`` counts the transpositions needed to interleave the two sorted
index lists.  The two-generator swap rule is the special case of one
inversion.  Only the parity of the count matters, and it is read off in
constant time: :func:`sign_mask` gives, for every position, the parity of
the bits of ``mu`` above it, by the parallel-prefix parity of Warren
(*Hacker's Delight*, 2nd ed., section 5-2), so the sign of ``mu * nu`` is
the parity of ``sign_mask(mu) & nu``.  This replaces the O(L)
canonical-reordering count (Dorst, Fontijne and Mann, *Geometric Algebra
for Computer Science*, ch. 19).
"""

from __future__ import annotations

from .errors import CapacityError

MAX_GENERATORS = 64


def bits_from_indices(indices) -> int:
    """Pack a strictly increasing index tuple into a bitmask."""
    bits = 0
    prev = 0
    for i in indices:
        if i <= prev:
            raise ValueError(f"indices must be strictly increasing, got {tuple(indices)}")
        if i > MAX_GENERATORS:
            raise CapacityError(f"index {i} exceeds the {MAX_GENERATORS}-generator capacity")
        bits |= 1 << (i - 1)
        prev = i
    return bits


def indices_from_bits(bits: int) -> tuple:
    """Unpack a bitmask into the strictly increasing index tuple."""
    out = []
    i = 1
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return tuple(out)


def sign_mask(mu: int) -> int:
    """The mask whose bit ``j`` is the parity of the bits of ``mu`` above ``j``.

    A pair (i in mu, j in nu) with i > j is one inversion when the
    concatenation mu ++ nu is sorted, so ``(sign_mask(mu) & nu).bit_count()``
    has the parity of the inversion count.  Six shift-XOR steps cover the
    64-bit capacity; below ``2**16`` the last two change nothing and are
    skipped.
    """
    x = mu >> 1
    x ^= x >> 1
    x ^= x >> 2
    x ^= x >> 4
    x ^= x >> 8
    if x >> 16:
        x ^= x >> 16
        x ^= x >> 32
    return x


def merge_bits(mu: int, nu: int):
    """Multiply the monomials labelled ``mu`` and ``nu``.

    Returns ``(union, sign)``, or ``None`` when the monomials share an index
    (a squared generator annihilates the product).
    """
    if mu & nu:
        return None
    return mu | nu, -1 if (sign_mask(mu) & nu).bit_count() & 1 else 1


def sort_key(bits: int):
    """Canonical ordering: by length, then lexicographically by indices."""
    return (bits.bit_count(), indices_from_bits(bits))
