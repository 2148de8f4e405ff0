"""Core domain types: masks, instances, parsing, exact arithmetic."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitbeam import (
    DelayDevice,
    ExactMoment,
    ParseError,
    Partition,
    SplitInstance,
    SubsetSumInstance,
    build_set_splitting_device,
    build_subset_sum_device,
    complement,
    format_mask,
    mask_to_indices,
    parse_split_instance,
    parse_subset_sum_instance,
    simulate,
    solve_optical,
    solve_oracle,
    splits_family,
)


def split_instance_text(inst):
    """The instance in the ``n`` / ``f`` line format, written by the test."""
    return "".join([f"n {inst.n}\n"] + [f"f {' '.join(map(str, mask_to_indices(f)))}\n" for f in inst.family])


def subset_sum_text(inst):
    return f"values {' '.join(map(str, inst.values))}\ntarget {inst.target}\n"


class TestComplement:
    def test_single_element_side(self):
        assert complement(0b0001, 4) == 0b1110

    def test_empty_set_gives_everything(self):
        assert complement(0, 4) == 0b1111

    def test_involution_spot(self):
        assert complement(0b0110, 4) == 0b1001
        assert complement(complement(0b0110, 4), 4) == 0b0110

    def test_involution_exhaustive_small(self):
        for n in range(1, 11):
            full = (1 << n) - 1
            for m in range(1 << n):
                c = complement(m, n)
                assert c & m == 0
                assert c | m == full
                assert complement(c, n) == m

    @given(st.integers(1, 63).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
    def test_involution_randomized_large(self, case):
        n, m = case
        assert complement(complement(m, n), n) == m

    def test_rejects_mask_out_of_range(self):
        with pytest.raises(ValueError):
            complement(1 << 4, 4)
        with pytest.raises(ValueError):
            complement(-1, 4)

    def test_rejects_bad_universe(self):
        with pytest.raises(ValueError):
            complement(0, 0)
        with pytest.raises(ValueError):
            complement(0, 64)


class TestMaskHelpers:
    def test_roundtrip(self):
        for mask in (0, 1, 0b1010, 0b1111, 1 << 20):
            assert sum(1 << (i - 1) for i in mask_to_indices(mask)) == mask

    def test_format(self):
        assert format_mask(0) == "{}"
        assert format_mask(0b1110) == "{2,3,4}"


class TestSplitsFamily:
    def test_basic(self):
        family = (0b0011, 0b0101)
        assert splits_family(family, 0b0001)
        assert not splits_family(family, 0b0011)  # first set swallowed
        assert not splits_family(family, 0b0010)  # second set in the complement
        assert splits_family((), 0)


class TestInstances:
    def test_split_instance_validates(self):
        with pytest.raises(ValueError):
            SplitInstance(0)
        with pytest.raises(ValueError):
            SplitInstance(64)
        with pytest.raises(ValueError):
            SplitInstance(3, (0,))
        with pytest.raises(ValueError):
            SplitInstance(3, (0b1000,))

    def test_numpy_integer_masks_decide_like_ints(self):
        for family, moment in (((np.int64(3),), 1), ((np.int64(192), np.uint8(5)), 65)):
            inst = SplitInstance(8, family)
            assert inst == SplitInstance(8, tuple(map(int, family)))
            assert all(type(f) is int for f in inst.family)
            for solve in (solve_optical, solve_oracle):
                assert solve(inst).solution_moment == moment

    def test_float_mask_refused(self):
        with pytest.raises(TypeError):
            SplitInstance(8, (3.0,))

    def test_split_instance_accepts_empty_family(self):
        inst = SplitInstance(3)
        assert inst.family == ()

    def test_subset_sum_validates(self):
        with pytest.raises(ValueError):
            SubsetSumInstance((), 1)
        with pytest.raises(ValueError):
            SubsetSumInstance((0,), 1)
        with pytest.raises(ValueError):
            SubsetSumInstance((1,), 0)
        with pytest.raises(ValueError):
            SubsetSumInstance(tuple([1] * 64), 1)
        with pytest.raises(ValueError):
            SubsetSumInstance((1 << 62, 1 << 62), 1)

    def test_subset_sum_values_convert_like_masks(self):
        inst = SubsetSumInstance((np.int64(3), np.uint8(5)), np.int64(8))
        assert inst == SubsetSumInstance((3, 5), 8)
        flags = SubsetSumInstance((True, 2), True)
        assert flags == SubsetSumInstance((1, 2), 1)
        for held in (inst, flags):
            assert all(type(v) is int for v in held.values)
            assert type(held.target) is int
        with pytest.raises(TypeError):
            SubsetSumInstance((1.0, 2), 3)
        with pytest.raises(TypeError):
            SubsetSumInstance((1, 2), 3.0)

    def test_subset_sum_helper(self):
        inst = SubsetSumInstance((5, 5, 10), 15)
        assert inst.subset_sum(0) == 0
        assert inst.subset_sum(0b101) == 15
        assert inst.subset_sum(0b111) == 20


class TestPartition:
    def test_from_mask_exhaustive_small(self):
        for n in range(1, 9):
            full = (1 << n) - 1
            for m in range(1 << n):
                p = Partition.from_mask(m, n)
                assert p.a1 & p.a2 == 0
                assert p.a1 | p.a2 == full
                assert p.n == n

    def test_rejects_overlap_and_holes(self):
        with pytest.raises(ValueError):
            Partition(0b011, 0b001)
        with pytest.raises(ValueError):
            Partition(0b001, 0b100)  # bit 1 uncovered
        with pytest.raises(ValueError):
            Partition(0, 0)
        with pytest.raises(ValueError):
            Partition(-1, 0)


class TestExactMoment:
    def test_physical_time(self):
        m = ExactMoment(3, 4)
        assert m.core * 1e-9 + m.hops * 1e-12 == 3 * 1e-9 + 4 * 1e-12
        assert str(m) == "3+4eps"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ExactMoment(-1, 0)


class TestFractionIntensity:
    """Every event carries the exact ``Fraction`` paths / 2**n, in lowest terms."""

    def test_normalization(self):
        # two of a 3-layer device's eight paths arrive at 5: 2/8 is 1/4
        timeline = simulate(build_subset_sum_device(SubsetSumInstance((5, 5, 10), 15)))
        by_core = {e.moment.core: e.intensity for e in timeline.iter_events()}
        assert (by_core[5].numerator, by_core[5].denominator) == (1, 4)
        assert (by_core[0].numerator, by_core[0].denominator) == (1, 8)

    def test_source_pulse_is_one(self):
        # zero delays coalesce every path back into the whole source pulse
        (whole,) = simulate(DelayDevice((0, 0, 0))).iter_events()
        assert whole.intensity == 1 and whole.paths == 8
        assert str(whole.intensity) == "1"
        events = list(simulate(DelayDevice((1, 1, 1))).iter_events())
        assert [str(e.intensity) for e in events] == ["1/8", "3/8", "3/8", "1/8"]

    def test_halving_sums_back_to_one(self):
        # 2**n arrivals of 2**-n each, summed in shuffled order, give exactly 1
        rng = random.Random(7)
        for n in range(1, 13):
            parts = [e.intensity for e in simulate(build_set_splitting_device(n)).iter_events()]
            assert parts == [Fraction(1, 1 << n)] * (1 << n)
            rng.shuffle(parts)
            assert sum(parts) == 1


VALID_DEMO = "n 4\nf 1 2\nf 1 3\n"


def reference_parse_split(text):
    """The set-splitting parser read one token at a time with ``int()``:
    the reference the library's table lookup must agree with."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")

    def integer(token, line_no, what):
        try:
            return int(token)
        except ValueError:
            raise ParseError(f"{what} is not an integer: {token!r}", line_no) from None

    n = None
    family = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "n":
            if n is not None:
                raise ParseError("duplicate 'n' line", line_no)
            if len(fields) != 2:
                raise ParseError("expected exactly 'n <int>'", line_no)
            n = integer(fields[1], line_no, "universe size")
            if not 1 <= n <= 63:
                raise ParseError(f"universe size must be in [1, 63], got {n}", line_no)
        elif tag == "f":
            if n is None:
                raise ParseError("'f' line before the 'n' line", line_no)
            if len(fields) == 1:
                raise ParseError("family set has no elements", line_no)
            mask = 0
            for token in fields[1:]:
                i = integer(token, line_no, "element index")
                if not 1 <= i <= n:
                    raise ParseError(f"index {i} out of range [1, {n}]", line_no)
                bit = 1 << (i - 1)
                if mask & bit:
                    raise ParseError(f"duplicate index {i} in family set", line_no)
                mask |= bit
            family.append(mask)
        else:
            raise ParseError(f"unknown directive {tag!r}", line_no)
    if n is None:
        raise ParseError("missing 'n' line")
    return SplitInstance(n, tuple(family))


def parse_outcome(parse, text):
    """The instance ``parse`` reads from ``text``, or its error's text and line."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line_no


# Arabic-Indic and fullwidth digits, which int() reads as 0-9
UNICODE_DIGITS = ("\u0660", "\uff10")


@st.composite
def index_token(draw, n):
    """One index token of an ``f`` line: canonical or in another form
    int() reads, out of range, or not an integer."""
    i = draw(st.integers(1, n))
    return draw(
        st.sampled_from(
            [
                str(i),
                str(i),
                str(draw(st.integers(1, 63))),
                f"+{i}",
                f"0{i}",
                "".join(chr(ord(draw(st.sampled_from(UNICODE_DIGITS))) + int(d)) for d in str(i)),
                "0",
                str(n + 1),
                "64",
                "-1",
                "1_0",
                "x",
                "1.0",
            ]
        )
    )


@st.composite
def split_text(draw):
    """Instance text that mixes canonical and other index tokens, bad
    lines, comments, tabs, CRLF and blank lines, as str or bytes."""
    n = draw(st.integers(1, 8) | st.integers(1, 63))
    lines = []
    if draw(st.booleans()):
        lines.append("# header")
    if draw(st.integers(0, 9)):
        lines.append(f"n {draw(st.sampled_from([str(n), f'+{n}', f'0{n}']))}")
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "   ", "# only a comment", "g 1", "n 3", "f"])))
            continue
        if kind < 5:
            # canonical tokens only, which may still repeat or pass n
            tokens = [str(i) for i in draw(st.lists(st.integers(1, min(n + 2, 63)), min_size=1, max_size=8))]
        else:
            tokens = draw(st.lists(index_token(n), min_size=1, max_size=8))
        sep = draw(st.sampled_from([" ", "\t", " \t "]))
        line = "f" + sep + sep.join(tokens)
        if draw(st.booleans()):
            line += draw(st.sampled_from([" # trailing", "#x", "\t# 1 2"]))
        lines.append(line)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return text.encode("utf-8") if draw(st.booleans()) else text


class TestParseSplitInstance:
    def test_worked_example(self):
        inst = parse_split_instance(VALID_DEMO)
        assert inst == SplitInstance(4, (0b0011, 0b0101))

    def test_empty_family(self):
        assert parse_split_instance("n 3\n") == SplitInstance(3)

    def test_accepts_bytes_comments_blanks(self):
        text = b"# header\n\n n 4 # universe\nf 2 1\n"
        inst = parse_split_instance(text)
        assert inst == SplitInstance(4, (0b0011,))

    def test_index_out_of_range_reports_line(self):
        with pytest.raises(ParseError, match="line 2.*out of range"):
            parse_split_instance("n 2\nf 5\n")

    @pytest.mark.parametrize(
        "text,pattern",
        [
            ("f 1\nn 2\n", "before the 'n' line"),
            ("n 2\nn 3\n", "duplicate 'n'"),
            ("n 2\nf\n", "no elements"),
            ("n 2\nf 1 1\n", "duplicate index"),
            ("n 3\nf 3 1 3\n", "line 2: duplicate index 3 in family set"),
            ("n 62\nf 63\n", r"index 63 out of range \[1, 62\]"),
            ("n 63\nf 64\n", r"index 64 out of range \[1, 63\]"),
            ("n 4\nf 1 +2 x\n", "element index is not an integer: 'x'"),
            ("n 0\n", r"\[1, 63\]"),
            ("n 64\n", r"\[1, 63\]"),
            ("n two\n", "not an integer"),
            ("n 2\ng 1\n", "unknown directive"),
            ("", "missing 'n' line"),
            ("n 2 3\n", "exactly"),
        ],
    )
    def test_diagnostics(self, text, pattern):
        with pytest.raises(ParseError, match=pattern):
            parse_split_instance(text)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("n 3\nf +1 03\n", SplitInstance(3, (0b101,))),
            ("n 63\nf 63\n", SplitInstance(63, (1 << 62,))),
            ("n 63\nf 1 63\n", SplitInstance(63, (1 << 62 | 1,))),
            ("n 12\nf 1_0 \u0663\n", SplitInstance(12, (1 << 9 | 1 << 2,))),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_split_instance(text) == expected

    def test_long_token_echo_is_capped(self):
        token = "9" * 5000
        with pytest.raises(ParseError) as excinfo:
            parse_split_instance(f"n 4\nf 1 {token}\n")
        assert str(excinfo.value) == (
            f"line 2: element index is not an integer: {token[:32]!r}... (5000 characters)"
        )
        with pytest.raises(ParseError, match=r"unknown directive 'ggg.*'\.\.\. \(4000 characters\)$"):
            parse_split_instance("n 4\n" + "g" * 4000 + "\n")

    @settings(max_examples=400, deadline=None)
    @given(text=split_text())
    def test_matches_the_token_by_token_reference(self, text):
        # the same instance, or the same error text and line
        assert parse_outcome(parse_split_instance, text) == parse_outcome(reference_parse_split, text)

    def test_serialize_roundtrip_fixed(self):
        inst = parse_split_instance(VALID_DEMO)
        assert parse_split_instance(split_instance_text(inst)) == inst

    @given(st.data())
    def test_serialize_roundtrip_random(self, data):
        n = data.draw(st.integers(1, 20))
        family = data.draw(
            st.lists(st.integers(1, (1 << n) - 1), min_size=0, max_size=6)
        )
        inst = SplitInstance(n, tuple(family))
        assert parse_split_instance(split_instance_text(inst)) == inst


class TestParseSubsetSum:
    def test_basic(self):
        inst = parse_subset_sum_instance("values 1 2\ntarget 3\n")
        assert inst == SubsetSumInstance((1, 2), 3)

    def test_order_free_and_comments(self):
        inst = parse_subset_sum_instance("# c\ntarget 3\nvalues 1 2\n")
        assert inst == SubsetSumInstance((1, 2), 3)

    @pytest.mark.parametrize(
        "text,pattern",
        [
            ("values 1\n", "missing 'target'"),
            ("target 3\n", "missing 'values'"),
            ("values\ntarget 1\n", "no values"),
            ("values 0\ntarget 1\n", "positive"),
            ("values 1\ntarget 0\n", "positive"),
            ("values 1\ntarget 2\ntarget 2\n", "duplicate 'target'"),
            ("values 1\nvalues 2\ntarget 2\n", "duplicate 'values'"),
            ("bogus\n", "unknown directive"),
            ("values 1\ntarget 5 6\n", "exactly 'target <int>'"),
            # refused by SubsetSumInstance and re-raised as a parse error
            ("values " + "1 " * 64 + "\ntarget 1\n", "at most 63 values supported, got 64"),
            (f"values {(1 << 62) + 1} {(1 << 62) - 1}\ntarget 1\n", "must fit signed 64-bit"),
        ],
    )
    def test_diagnostics(self, text, pattern):
        with pytest.raises(ParseError, match=pattern):
            parse_subset_sum_instance(text)

    def test_serialize_roundtrip(self):
        inst = SubsetSumInstance((7, 1, 7), 8)
        assert parse_subset_sum_instance(subset_sum_text(inst)) == inst
