"""Optimal order-preserving (alphabetic) prefix codes (Section 6.1.3).

HOPE's FIVC/VIVC schemes assign *Hu-Tucker* codes: optimal prefix codes
whose codeword order matches symbol order.  We compute optimal code
lengths with the Garsia-Wachs algorithm (same optimal cost as
Hu-Tucker, simpler to implement) and then assign the canonical
alphabetic codewords for those lengths.

For very large alphabets (Double-Char's 65 536 symbols) the O(n^2)
worst case of Garsia-Wachs is too slow in pure Python, so above
``exact_limit`` we switch to recursive weight-balancing, a classic
approximation whose expected cost is within ~2 bits of entropy.  The
substitution preserves completeness and order (DESIGN.md §1.3).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

DEFAULT_EXACT_LIMIT = 4096


class _Node:
    __slots__ = ("weight", "left", "right", "leaf_index")

    def __init__(self, weight, left=None, right=None, leaf_index=None):
        self.weight = weight
        self.left = left
        self.right = right
        self.leaf_index = leaf_index


def garsia_wachs_lengths(weights: list[float]) -> list[int]:
    """Optimal alphabetic code lengths for ordered positive weights."""
    n = len(weights)
    if n == 0:
        return []
    if n == 1:
        return [0]
    inf = float("inf")
    seq: list[_Node] = [_Node(inf)]
    for i, w in enumerate(weights):
        seq.append(_Node(w, leaf_index=i))
    seq.append(_Node(inf))

    while len(seq) > 3:
        # Find the leftmost j with seq[j-1].weight <= seq[j+1].weight.
        j = 1
        while seq[j - 1].weight > seq[j + 1].weight:
            j += 1
        combined = _Node(seq[j - 1].weight + seq[j].weight, seq[j - 1], seq[j])
        del seq[j - 1 : j + 1]
        # Move the combined node left: insert right after the nearest
        # element to the left with weight >= combined weight.
        k = j - 1
        while seq[k - 1].weight < combined.weight:
            k -= 1
        seq.insert(k, combined)

    root = seq[1]
    depths = [0] * n
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.leaf_index is not None:
            depths[node.leaf_index] = depth
        else:
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
    return depths


def weight_balanced_lengths(weights: list[float]) -> list[int]:
    """Near-optimal alphabetic code lengths by recursive bisection."""
    n = len(weights)
    if n == 0:
        return []
    if n == 1:
        return [0]
    prefix = np.concatenate([[0.0], np.cumsum(np.asarray(weights, dtype=np.float64))])
    depths = [0] * n
    # Iterative stack of (lo, hi, depth) half-open symbol ranges.
    stack = [(0, n, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        if hi - lo == 1:
            depths[lo] = depth
            continue
        total_lo, total_hi = prefix[lo], prefix[hi]
        target = (total_lo + total_hi) / 2.0
        # Split point balancing the two halves' total weight.
        mid = bisect_left(prefix, target, lo + 1, hi)
        if mid <= lo:
            mid = lo + 1
        if mid >= hi:
            mid = hi - 1
        # Choose the neighbour that balances best.
        if mid > lo + 1 and abs(prefix[mid - 1] - target) < abs(prefix[mid] - target):
            mid -= 1
        stack.append((lo, mid, depth + 1))
        stack.append((mid, hi, depth + 1))
    return depths


def optimal_alphabetic_lengths(
    weights: list[float], exact_limit: int = DEFAULT_EXACT_LIMIT
) -> list[int]:
    """Dispatch: exact Garsia-Wachs when feasible, else weight-balanced."""
    if len(weights) <= exact_limit:
        return garsia_wachs_lengths(list(weights))
    return weight_balanced_lengths(list(weights))


def alphabetic_codes(lengths: list[int]) -> list[int]:
    """Canonical monotonically increasing codewords for ``lengths``.

    ``lengths`` must come from a valid alphabetic tree (Garsia-Wachs or
    weight-balanced output).  Codeword i is the integer value of an
    ``lengths[i]``-bit string; comparing (code << pad) as bit strings
    preserves symbol order.
    """
    if not lengths:
        return []
    codes = [0]
    for i in range(1, len(lengths)):
        nxt = codes[-1] + 1
        if lengths[i] >= lengths[i - 1]:
            nxt <<= lengths[i] - lengths[i - 1]
        else:
            # Ceiling shift: a floor here could make the new (shorter)
            # code a prefix of its predecessor.
            shift = lengths[i - 1] - lengths[i]
            nxt = (nxt + (1 << shift) - 1) >> shift
        codes.append(nxt)
    return codes


def assign_alphabetic_codes(
    weights: list[float], exact_limit: int = DEFAULT_EXACT_LIMIT
) -> tuple[list[int], list[int]]:
    """(codes, lengths) of an order-preserving prefix code for weights."""
    lengths = optimal_alphabetic_lengths(weights, exact_limit)
    return alphabetic_codes(lengths), lengths
