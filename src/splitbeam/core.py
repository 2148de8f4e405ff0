"""Domain types shared by every stage of the pipeline, and the answer
types (``Decision``, ``SplitAnswer``, ``SubsetSumDetection``) that the
optical route and the oracles both return.

Subsets of the universe are plain Python ints used as bitmasks: bit (i-1)
set means element i is in the subset (element indices are 1-based in all
text formats, 0-based as bit positions internally). The universe size is
capped at 63 so every arrival moment fits exact unsigned 64-bit
arithmetic; no arbitrary-precision layer is needed or wanted.
Intensities are no type of their own: ``sim`` gives each arrival the
exact ``fractions.Fraction`` paths / 2**n.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

MAX_UNIVERSE = 63

# The bit of each element index in its canonical decimal form: an ``f``
# line of such tokens costs one lookup per token (parse_split_instance)
_INDEX_BITS = {str(i): 1 << (i - 1) for i in range(1, MAX_UNIVERSE + 1)}

# A diagnostic echoes at most this many characters of an offending token
_ECHO_CHARS = 32

#: A subset of the universe encoded as a bitmask.
SubsetMask = int


class ParseError(ValueError):
    """Malformed instance text. Carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class EnumerationLimitError(ValueError):
    """An operation would enumerate more states than its configured cap."""


def _check_universe(n: int) -> None:
    if not 1 <= n <= MAX_UNIVERSE:
        raise ValueError(f"universe size must be in [1, {MAX_UNIVERSE}], got {n}")


def _check_mask(mask: int, n: int) -> None:
    if not 0 <= mask < (1 << n):
        raise ValueError(f"mask {mask} out of range for universe size {n}")


def _check_int64_sum(values: Iterable[int], what: str) -> None:
    """Every subset sum of ``values`` must fit signed 64-bit arithmetic."""
    if sum(values) >= 1 << 63:
        raise ValueError(f"sum of {what} must fit signed 64-bit arithmetic")


def _check_enumerable(n: int, cap: int, what: str) -> None:
    """Refuse, before anything is allocated, to enumerate 2**n states past ``cap``."""
    if n > cap:
        raise EnumerationLimitError(
            f"instance too large to enumerate: n={n} exceeds the {what} cap {cap}"
        )


def complement(mask: SubsetMask, n: int) -> SubsetMask:
    """Complement of a subset within a universe of ``n`` elements."""
    _check_universe(n)
    _check_mask(mask, n)
    return ((1 << n) - 1) ^ mask


def splits_family(family: Iterable[SubsetMask], mask: SubsetMask) -> bool:
    """True iff neither ``mask`` nor its complement wholly contains any family set.

    This is the raw decision predicate: for every set f, the partition
    (mask, ~mask) must cut f, i.e. 0 < f & mask < f.
    """
    for f in family:
        part = f & mask
        if part == 0 or part == f:
            return False
    return True


def mask_to_indices(mask: SubsetMask) -> tuple[int, ...]:
    """1-based element indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def format_mask(mask: SubsetMask) -> str:
    """Render a subset as ``{1,3,4}`` with 1-based indices."""
    return "{" + ",".join(str(i) for i in mask_to_indices(mask)) + "}"


@dataclass(frozen=True)
class SplitInstance:
    """A set-splitting problem: universe of ``n`` elements and a family of subsets.

    The question: can the universe be partitioned into two sides such that
    no family set lies wholly inside either side?
    """

    n: int
    family: tuple[SubsetMask, ...] = ()

    def __post_init__(self):
        _check_universe(self.n)
        # numpy integers become ints here, so the bit operations downstream
        # see one type; a float is refused
        object.__setattr__(self, "family", tuple(map(operator.index, self.family)))
        for f in self.family:
            if f == 0:
                raise ValueError("family sets must be nonempty")
            _check_mask(f, self.n)


@dataclass(frozen=True)
class SubsetSumInstance:
    """A subset-sum problem: positive integer values and a positive target."""

    values: tuple[int, ...]
    target: int

    def __post_init__(self):
        # as in SplitInstance: numpy integers and bools become ints, a float is refused
        object.__setattr__(self, "values", tuple(map(operator.index, self.values)))
        object.__setattr__(self, "target", operator.index(self.target))
        if not self.values:
            raise ValueError("value list must be nonempty")
        if len(self.values) > MAX_UNIVERSE:
            raise ValueError(f"at most {MAX_UNIVERSE} values supported, got {len(self.values)}")
        for v in self.values:
            if v < 1:
                raise ValueError(f"values must be positive integers, got {v!r}")
        _check_int64_sum(self.values, "values")
        if self.target < 1:
            raise ValueError(f"target must be a positive integer, got {self.target!r}")

    @property
    def n(self) -> int:
        return len(self.values)

    def subset_sum(self, mask: SubsetMask) -> int:
        """Sum of the values selected by ``mask``."""
        _check_mask(mask, self.n)
        return sum(self.values[i - 1] for i in mask_to_indices(mask))


@dataclass(frozen=True)
class Partition:
    """A two-sided partition of the universe, both sides as bitmasks."""

    a1: SubsetMask
    a2: SubsetMask

    def __post_init__(self):
        if self.a1 < 0 or self.a2 < 0:
            raise ValueError("partition sides must be nonnegative masks")
        if self.a1 & self.a2:
            raise ValueError("partition sides overlap")
        union = self.a1 | self.a2
        if union == 0 or (union & (union + 1)) != 0:
            raise ValueError("partition sides must cover a contiguous universe")

    @classmethod
    def from_mask(cls, mask: SubsetMask, n: int) -> "Partition":
        return cls(mask, complement(mask, n))

    @property
    def n(self) -> int:
        return (self.a1 | self.a2).bit_length()


@dataclass(frozen=True)
class ExactMoment:
    """An arrival moment kept in exact integer form.

    ``core`` is the sum of the selected arc base delays, in base delay
    units. ``hops`` counts traversed arcs; every arc also carries one
    uniform pad of length epsilon, so a complete path through an n-layer
    device always has hops == n and epsilon contributes a constant offset.
    Physical time is computed only at presentation.
    """

    core: int
    hops: int

    def __post_init__(self):
        if self.core < 0 or self.hops < 0:
            raise ValueError("moment components must be nonnegative")

    def __str__(self) -> str:
        return f"{self.core}+{self.hops}eps"


class Decision(Enum):
    SOLVABLE = "solvable"
    UNSOLVABLE = "unsolvable"


@dataclass(frozen=True)
class SplitAnswer:
    decision: Decision
    partition: Partition | None
    solution_moment: int | None

    @property
    def solvable(self) -> bool:
        return self.decision is Decision.SOLVABLE

    def validate_against(self, inst: SplitInstance) -> bool:
        """Re-verify the returned partition against the raw family masks."""
        if not self.solvable:
            return self.partition is None and self.solution_moment is None
        return (
            self.partition is not None
            and self.solution_moment == self.partition.a1
            and self.partition.n == inst.n
            and splits_family(inst.family, self.partition.a1)
        )


@dataclass(frozen=True)
class SubsetSumDetection:
    """Outcome of watching the destination at the target moment."""

    witness: SubsetMask | None
    moment: ExactMoment

    @property
    def found(self) -> bool:
        return self.witness is not None

    def describe(self) -> str:
        if self.found:
            return f"fluctuation at moment {self.moment} (subset {format_mask(self.witness)})"
        return f"no fluctuation at moment {self.moment}"


def _logical_lines(text: str | bytes) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_no, fields) for each non-blank line, comments stripped."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield line_no, fields


def _shown(token: str) -> str:
    """``token`` as a diagnostic echoes it: its repr, or for a long token
    the repr of its first _ECHO_CHARS characters and its length."""
    if len(token) <= _ECHO_CHARS:
        return repr(token)
    return f"{token[:_ECHO_CHARS]!r}... ({len(token)} characters)"


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {_shown(token)}", line_no) from None


def _index_mask(tokens: list[str], n: int, line_no: int) -> int:
    # an f line's indices one token at a time: every literal int() reads,
    # and the only place an f line's indices raise a ParseError
    mask = 0
    for token in tokens:
        i = _parse_int(token, line_no, "element index")
        if not 1 <= i <= n:
            raise ParseError(f"index {i} out of range [1, {n}]", line_no)
        bit = 1 << (i - 1)
        if mask & bit:
            raise ParseError(f"duplicate index {i} in family set", line_no)
        mask |= bit
    return mask


def parse_split_instance(text: str | bytes) -> SplitInstance:
    """Parse the line-oriented set-splitting instance format.

    One ``n <int>`` line first, then zero or more ``f <i1> ... <ik>`` lines
    with 1-based distinct element indices: an index is any integer literal
    ``int()`` reads (``3``, ``+3``, ``03``), in [1, n], with no repeats.
    ``#`` starts a comment, blank lines are ignored. Every malformed
    construct raises :class:`ParseError` with the offending line number.

    An ``f`` line whose indices are all written canonically (``1`` to
    ``63``, no sign, no leading zero) is read with one table lookup per
    index, and taken if its mask stays below 2**n and has one bit per
    token. Any other line is read one token at a time, which reaches the
    same mask or raises the diagnostic for its first offending token.
    """
    n: int | None = None
    family: list[int] = []
    for line_no, fields in _logical_lines(text):
        tag = fields[0]
        if tag == "n":
            if n is not None:
                raise ParseError("duplicate 'n' line", line_no)
            if len(fields) != 2:
                raise ParseError("expected exactly 'n <int>'", line_no)
            n = _parse_int(fields[1], line_no, "universe size")
            if not 1 <= n <= MAX_UNIVERSE:
                raise ParseError(
                    f"universe size must be in [1, {MAX_UNIVERSE}], got {n}", line_no
                )
        elif tag == "f":
            if n is None:
                raise ParseError("'f' line before the 'n' line", line_no)
            if len(fields) == 1:
                raise ParseError("family set has no elements", line_no)
            tokens = fields[1:]
            try:
                mask = sum(map(_INDEX_BITS.__getitem__, tokens))
            except KeyError:
                mask = -1  # -1 >> n is -1: the line is read token by token
            # distinct powers of two add without a carry, so a repeated
            # index leaves fewer bits than tokens
            if mask >> n or mask.bit_count() != len(tokens):
                mask = _index_mask(tokens, n, line_no)
            family.append(mask)
        else:
            raise ParseError(f"unknown directive {_shown(tag)}", line_no)
    if n is None:
        raise ParseError("missing 'n' line")
    return SplitInstance(n, tuple(family))


def parse_subset_sum_instance(text: str | bytes) -> SubsetSumInstance:
    """Parse the subset-sum format: a ``values`` line and a ``target`` line."""
    values: tuple[int, ...] | None = None
    target: int | None = None
    for line_no, fields in _logical_lines(text):
        tag = fields[0]
        if tag == "values":
            if values is not None:
                raise ParseError("duplicate 'values' line", line_no)
            if len(fields) == 1:
                raise ParseError("'values' line has no values", line_no)
            parsed = tuple(_parse_int(t, line_no, "value") for t in fields[1:])
            for v in parsed:
                if v < 1:
                    raise ParseError(f"values must be positive, got {v}", line_no)
            values = parsed
        elif tag == "target":
            if target is not None:
                raise ParseError("duplicate 'target' line", line_no)
            if len(fields) != 2:
                raise ParseError("expected exactly 'target <int>'", line_no)
            target = _parse_int(fields[1], line_no, "target")
            if target < 1:
                raise ParseError(f"target must be positive, got {target}", line_no)
        else:
            raise ParseError(f"unknown directive {_shown(tag)}", line_no)
    if values is None:
        raise ParseError("missing 'values' line")
    if target is None:
        raise ParseError("missing 'target' line")
    try:
        return SubsetSumInstance(values, target)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
