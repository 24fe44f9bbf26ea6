"""Binary result pages and the metric-independent ordering between them.

A SERP is an ordered vector of 0/1 relevance values, rank 1 first.  Two
SERPs compared to depth k are either identical, fixed in one direction
under every reasonable effectiveness metric, or orderable either way
depending on the metric chosen.  The decision reduces to the running sum
of elementwise differences: if it never goes negative (and goes positive
somewhere) the first SERP can only score at least as high as the second.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence, Union

from . import _bits


class Relationship(enum.Enum):
    """Outcome of comparing two SERPs at a fixed depth."""

    EQUAL = "=="
    NON_INFERIOR = "ni"
    NON_SUPERIOR = "ns"
    NON_SEPARABLE = "**"

    @property
    def code(self) -> str:
        """Two-character text code used in tables and exports."""
        return self.value

    def flipped(self) -> "Relationship":
        """The relationship seen from the other SERP's point of view."""
        if self is Relationship.NON_INFERIOR:
            return Relationship.NON_SUPERIOR
        if self is Relationship.NON_SUPERIOR:
            return Relationship.NON_INFERIOR
        return self

    def __str__(self) -> str:
        return self.value


#: Relationship per _bits category code.
CATEGORY_TO_RELATIONSHIP = {
    _bits.EQ: Relationship.EQUAL,
    _bits.NI: Relationship.NON_INFERIOR,
    _bits.NS: Relationship.NON_SUPERIOR,
    _bits.XX: Relationship.NON_SEPARABLE,
}


class Serp(tuple):
    """Immutable sequence of binary relevance values, one per rank."""

    def __new__(cls, relevance: Iterable[int]) -> "Serp":
        values = tuple(int(v) for v in relevance)
        for v in values:
            if v not in (0, 1):
                raise ValueError(f"relevance values must be 0 or 1, got {v}")
        return super().__new__(cls, values)

    @classmethod
    def from_bitstring(cls, text: str) -> "Serp":
        """Build from a string like ``"1010"`` (rank 1 is the first character)."""
        return cls(int(c) for c in text.strip())

    @classmethod
    def from_int(cls, code: int, k: int) -> "Serp":
        """Decode a k-bit integer whose most significant bit is rank 1."""
        if code < 0 or code >= 1 << k:
            raise ValueError(f"code {code} out of range for k={k}")
        return cls((code >> (k - 1 - i)) & 1 for i in range(k))

    def to_int(self) -> int:
        """Integer encoding with rank 1 as the most significant bit.

        Numeric order of codes coincides with lexicographic order of the
        vectors, which several operations rely on for tie-breaking.
        """
        value = 0
        for v in self:
            value = (value << 1) | v
        return value

    @property
    def bitstring(self) -> str:
        return "".join(str(v) for v in self)

    def __repr__(self) -> str:
        return f"Serp({self.bitstring!r})"


SerpLike = Union[Serp, Sequence[int], str]


def as_serp(value: SerpLike) -> Serp:
    """Coerce a Serp, sequence of 0/1, or bitstring into a Serp."""
    if isinstance(value, Serp):
        return value
    if isinstance(value, str):
        return Serp.from_bitstring(value)
    return Serp(value)


def _check_depth(a: Serp, b: Serp, k: int) -> None:
    if k < 1:
        raise ValueError(f"comparison depth must be >= 1, got {k}")
    if k > len(a) or k > len(b):
        raise ValueError(
            f"depth {k} exceeds SERP length ({len(a)} and {len(b)}); "
            "pad the inputs first if that is intended"
        )


def _crossings(a: Serp, b: Serp, k: int) -> tuple[int, int]:
    """First depths (0-based) where the running sum of a - b goes positive / negative.

    The one walk behind compare, trajectory and classify_group; a direction
    the walk never crosses reports k, and the walk stops once it has both.
    """
    pos = neg = k
    cumul = 0
    for i in range(k):
        cumul += a[i] - b[i]
        if cumul > 0:
            if pos == k:
                pos = i
                if neg < k:
                    break
        elif cumul < 0 and neg == k:
            neg = i
            if pos < k:
                break
    return pos, neg


def _state(pos: int, neg: int, depth: int) -> Relationship:
    """The relationship at a prefix depth, from the crossings made before it."""
    return CATEGORY_TO_RELATIONSHIP[(pos < depth) + 2 * (neg < depth)]


def compare(s1: SerpLike, s2: SerpLike, k: int) -> Relationship:
    """Classify the ordering of two SERPs when evaluated to depth k.

    Walks the running sum of elementwise differences (s1 minus s2).  If the
    sum is ever positive, s1 has a prefix advantage somewhere; if ever
    negative, a deficit.  Exactly one of four outcomes follows: EQUAL
    (never leaves zero), NON_INFERIOR (advantage only), NON_SUPERIOR
    (deficit only), NON_SEPARABLE (both, so metrics are free to disagree).
    """
    a, b = as_serp(s1), as_serp(s2)
    _check_depth(a, b, k)
    return _state(*_crossings(a, b, k), k)


class Trajectory(tuple):
    """Relationship at every prefix depth: entry i-1 covers depths 1..i.

    Valid trajectories follow ``EQUAL* (NON_INFERIOR+ | NON_SUPERIOR+)?
    NON_SEPARABLE*``: equality can only give way to one fixed direction,
    and non-separability, once reached, is permanent.
    """

    def codes(self) -> tuple:
        return tuple(r.code for r in self)

    def leading_equal_run(self) -> int:
        """Number of consecutive EQUAL entries at the start."""
        return next((i for i, r in enumerate(self) if r is not Relationship.EQUAL), len(self))

    def non_separable_count(self) -> int:
        return self.count(Relationship.NON_SEPARABLE)

    def first_non_separable_depth(self) -> int | None:
        """1-based depth at which the pair first becomes non-separable."""
        if Relationship.NON_SEPARABLE not in self:
            return None
        return self.index(Relationship.NON_SEPARABLE) + 1

    def midpoint(self) -> Relationship | None:
        """Directional state held just before turning non-separable.

        Returns None for trajectories that never become non-separable.
        The entry in question is always NON_INFERIOR or NON_SUPERIOR: the
        walk must have visited one sign strictly before picking up the
        other, so the preceding state cannot be EQUAL.
        """
        depth = self.first_non_separable_depth()
        if depth is None:
            return None
        state = self[depth - 2]
        if state not in (Relationship.NON_INFERIOR, Relationship.NON_SUPERIOR):
            raise AssertionError(f"non-directional state before first **: {state}")
        return state

    def __str__(self) -> str:
        return " ".join(self.codes())


def trajectory(s1: SerpLike, s2: SerpLike) -> Trajectory:
    """Relationship of the two SERPs at every prefix depth 1..k.

    The SERPs must have equal length; the result has one entry per depth.
    """
    a, b = as_serp(s1), as_serp(s2)
    if len(a) != len(b):
        raise ValueError(f"SERP lengths differ: {len(a)} vs {len(b)}")
    if len(a) < 1:
        raise ValueError("trajectory needs SERPs of length >= 1")
    pos, neg = _crossings(a, b, len(a))
    return Trajectory(_state(pos, neg, depth) for depth in range(1, len(a) + 1))


class TopicGroup(enum.Enum):
    """Five-way classification of a compared pair, used to section topic tables."""

    NON_SEP_NS_MIDPOINT = "**/ns"
    SEPARABLE_NS = "ns"
    EQUAL = "=="
    SEPARABLE_NI = "ni"
    NON_SEP_NI_MIDPOINT = "**/ni"

    @property
    def label(self) -> str:
        return self.value

    @property
    def table_order(self) -> int:
        """Position of this group's section in a topic table, top to bottom."""
        return GROUP_TABLE_ORDER.index(self)

    def __str__(self) -> str:
        return self.value


GROUP_TABLE_ORDER = (
    TopicGroup.NON_SEP_NS_MIDPOINT,
    TopicGroup.SEPARABLE_NS,
    TopicGroup.EQUAL,
    TopicGroup.SEPARABLE_NI,
    TopicGroup.NON_SEP_NI_MIDPOINT,
)


def classify_group(s1: SerpLike, s2: SerpLike, k: int) -> TopicGroup:
    """Assign one of the five reporting groups to a pair compared at depth k.

    Separable and equal pairs map straight to their group; non-separable
    pairs split by the direction they held immediately before the first
    non-separable depth (the midpoint).
    """
    a, b = as_serp(s1), as_serp(s2)
    _check_depth(a, b, k)
    pos, neg = _crossings(a, b, k)
    first = (neg > pos) - (neg < pos)  # sign of the walk's first step off zero
    return GROUP_TABLE_ORDER[int(_bits.group_code((pos < k) + 2 * (neg < k), first))]


def group_sort_key(traj: Sequence[Relationship]) -> tuple:
    """Within-group ordering key for topic-table rows.

    Sorts by the number of non-separable entries, then by the length of
    the leading run of equal entries.
    """
    t = traj if isinstance(traj, Trajectory) else Trajectory(traj)
    return (t.non_separable_count(), t.leading_equal_run())
