"""Command-line behaviour: output contracts, exit codes, generation."""

import hashlib
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import splitbeam.sim
from splitbeam import parse_split_instance
from splitbeam.cli import main

DEMO = "n 4\nf 1 2\nf 1 3\n"


def gen_text(capsys, n, m, max_set_size, seed):
    """The instance text ``splitbeam gen`` writes."""
    assert main(["gen", f"--n={n}", f"--m={m}", f"--max-set-size={max_set_size}", f"--seed={seed}"]) == 0
    return capsys.readouterr().out


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.txt"
    path.write_text(DEMO)
    return str(path)


class TestSolveCommand:
    def test_optical_solves_demo(self, demo_file, capsys):
        assert main(["solve", demo_file]) == 0
        assert capsys.readouterr().out == "SPLIT A1={1} A2={2,3,4} moment=1\n"

    def test_oracle_method_agrees(self, demo_file, capsys):
        assert main(["solve", demo_file, "--method", "oracle"]) == 0
        assert capsys.readouterr().out == "SPLIT A1={1} A2={2,3,4} moment=1\n"

    def test_method_picks_the_route(self, tmp_path, capsys):
        # an odd cycle cannot be split; n = 29 is past both routes' caps,
        # and each route refuses it by its own cap
        path = tmp_path / "cycle.txt"
        path.write_text("n 29\nf 1 2\nf 2 3\nf 1 3\n")
        for method, cap in (("optical", "simulation cap 28"), ("oracle", "oracle cap 28")):
            assert main(["solve", str(path), "--method", method]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert cap in captured.err

    def test_unsolvable(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("n 3\nf 1\n")
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().out == "NO-SPLIT\n"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "absent.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("n 2\nf 5\n")
        assert main(["solve", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_parse_error_echoes_a_bounded_token(self, tmp_path, capsys):
        # a 5000-digit index is past int()'s digit limit; the message
        # names it by its first 32 characters and its length
        path = tmp_path / "long.txt"
        path.write_text("n 4\nf 1 " + "7" * 5000 + "\n")
        for method in ("optical", "oracle"):
            assert main(["solve", str(path), "--method", method]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: line 2: element index is not an integer: " f"{'7' * 32!r}... (5000 characters)\n"
            )

    def test_unknown_flag_is_usage_error(self, demo_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", demo_file, "--bogus"])
        assert excinfo.value.code == 2


class TestMomentsCommand:
    def test_full_default(self, demo_file, capsys):
        assert main(["moments", demo_file]) == 0
        assert capsys.readouterr().out == "full: 0,2,3,4,5,7,8,10,11,12,13,15\n"

    def test_full_flag_gives_the_default(self, demo_file, capsys):
        assert main(["moments", demo_file]) == 0
        default = capsys.readouterr().out
        assert main(["moments", demo_file, "--full"]) == 0
        assert capsys.readouterr().out == default == "full: 0,2,3,4,5,7,8,10,11,12,13,15\n"

    def test_literal(self, demo_file, capsys):
        assert main(["moments", demo_file, "--literal"]) == 0
        assert capsys.readouterr().out == "literal: 3,5,7,11,13,15\n"

    def test_full_and_literal_together_are_refused(self, demo_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["moments", demo_file, "--full", "--literal"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument --full" in captured.err

    def test_empty(self, tmp_path, capsys):
        path = tmp_path / "free.txt"
        path.write_text("n 3\n")
        assert main(["moments", str(path)]) == 0
        assert capsys.readouterr().out == "full:\n"

    @pytest.mark.parametrize("n", [29, 40])
    @pytest.mark.parametrize("variant", [[], ["--literal"]])
    def test_universe_past_the_bitset_is_refused(self, tmp_path, capsys, n, variant):
        path = tmp_path / "huge.txt"
        path.write_text(f"n {n}\n")
        assert main(["moments", str(path), *variant]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: instance too large to enumerate: n={n} exceeds the moment set cap 28\n"

    def test_large_set_is_written_without_holding_the_line(self, tmp_path, monkeypatch):
        # {1..5} at n = 22 blocks the 2**18 moments whose low five bits are
        # all set or all clear: a 2 MB line, which as one list of members
        # and their strings would take tens of MiB
        path = tmp_path / "five.txt"
        path.write_text("n 22\nf 1 2 3 4 5\n")
        sink = HashingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["moments", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        members = [k for hi in range(0, 1 << 22, 32) for k in (hi, hi + 31)]
        expected = ("full: " + ",".join(map(str, members)) + "\n").encode()
        assert sink.bytes == len(expected)
        assert sink.digest.hexdigest() == hashlib.sha256(expected).hexdigest()
        assert peak < 4 << 20


class HashingSink:
    """A stdout stand-in that keeps only the size and the hash of its output."""

    def __init__(self):
        self.bytes = 0
        self.digest = hashlib.sha256()

    def write(self, text):
        data = text.encode()
        self.bytes += len(data)
        self.digest.update(data)
        return len(text)

    def flush(self):
        pass


class TestSimulateCommand:
    def test_set_splitting_n(self, capsys):
        assert main(["simulate", "--set-splitting-n", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "events=4 total_paths=4"
        assert out[1] == "moment=0+2eps paths=1 intensity=1/4 witness={}"
        assert out[4] == "moment=3+2eps paths=1 intensity=1/4 witness={1,2}"

    def test_instance_file_and_dump(self, demo_file, capsys):
        assert main(["simulate", demo_file, "--dump-device"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "device n=4"
        assert out[1] == "layer 1: take=1 skip=0"
        assert out[4] == "layer 4: take=8 skip=0"
        assert out[5] == "events=16 total_paths=16"

    def test_subset_sum_file(self, tmp_path, capsys):
        path = tmp_path / "ss.txt"
        path.write_text("values 5 5 10\ntarget 15\n")
        assert main(["simulate", "--subset-sum-file", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "moment=5+3eps paths=2 intensity=1/4 witness={1}" in out
        assert out[-1].startswith("target=15 fluctuation at moment 15+3eps")

    @pytest.mark.parametrize(
        "values, message",
        [("1 " * 64, "at most 63 values supported, got 64"), (f"{(1 << 62) + 1} {(1 << 62) - 1}", "64-bit")],
    )
    def test_subset_sum_instance_refusals_fail_cleanly(self, tmp_path, capsys, values, message):
        # SubsetSumInstance refuses these; the parser re-raises that as a ParseError
        path = tmp_path / "ss.txt"
        path.write_text(f"values {values}\ntarget 1\n")
        assert main(["simulate", "--subset-sum-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_out_of_memory_exits_2_without_a_traceback(self, tmp_path, capsys, monkeypatch):
        # numpy raises _ArrayMemoryError, a MemoryError, for an array the
        # host cannot hold
        def exhausted(delays):
            raise MemoryError("Unable to allocate 1.00 GiB for an array")

        monkeypatch.setattr(splitbeam.sim, "_path_delays", exhausted)
        path = tmp_path / "ss.txt"
        path.write_text("values 5 5 10\ntarget 15\n")
        assert main(["simulate", "--subset-sum-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 1.00 GiB for an array\n"
        assert "Traceback" not in captured.err

    def test_requires_exactly_one_source(self, demo_file, capsys):
        # argparse refuses no source and two sources before anything runs
        for argv in (["simulate"], ["simulate", demo_file, "--set-splitting-n", "3"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert capsys.readouterr().out == ""


class TestTraceCommand:
    def test_writes_csv_with_exact_pulse_integrals(self, tmp_path, capsys):
        instance = tmp_path / "inst.txt"
        instance.write_text("n 2\n")
        out_csv = tmp_path / "trace.csv"
        rise, unit, eps = 2.0**-40, 2.0**-30, 2.0**-45
        code = main(
            [
                "trace",
                str(instance),
                "--rise-time",
                repr(rise),
                "--unit-delay",
                repr(unit),
                "--epsilon",
                repr(eps),
                "--out",
                str(out_csv),
                "--samples-per-rise",
                "4",
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out

        lines = out_csv.read_text().splitlines()
        assert lines[0] == "time_s,intensity"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        times = [t for t, _ in rows]
        assert times == sorted(times)

        # integrate each pulse window; all four arrivals carry intensity 1/4
        step = rise / 4
        for core in range(4):
            t0 = core * unit + 2 * eps
            pulse = sum(v for t, v in rows if t0 <= t < t0 + rise)
            assert pulse * step == pytest.approx(0.25 * rise, rel=1e-12)

    def test_rejects_bad_parameters(self, tmp_path, capsys):
        instance = tmp_path / "inst.txt"
        instance.write_text("n 2\n")
        code = main(
            [
                "trace",
                str(instance),
                "--rise-time",
                "0",
                "--unit-delay",
                "1e-9",
                "--epsilon",
                "1e-12",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2


    @pytest.mark.parametrize(
        "n, args",
        [
            (2, ["--unit-delay", "1e300", "--rise-time", "1e-300", "--epsilon", "1e-12"]),
            (2, ["--unit-delay", "inf", "--rise-time", "1e-12", "--epsilon", "1e-12"]),
            (2, ["--unit-delay", "nan", "--rise-time", "1e-12", "--epsilon", "1e-12"]),
            (2, ["--unit-delay", "1e-9", "--rise-time", "1e-12", "--epsilon", "nan"]),
            (2, ["--unit-delay", "1e-9", "--rise-time", "inf", "--epsilon", "1e-12"]),
            (2, ["--unit-delay", "1e-9", "--rise-time", "5e-324", "--epsilon", "1e-12"]),
            (2, ["--unit-delay", "1e-9", "--rise-time", "1e-12", "--epsilon", "1e-12", "--samples-per-rise", "1" + "0" * 400]),
            (16, ["--unit-delay", "1e-9", "--rise-time", "1e-12", "--epsilon", "1e-12", "--samples-per-rise", "8"]),
            (23, ["--unit-delay", "1e-18", "--rise-time", "1e-12", "--epsilon", "1e-18"]),
        ],
    )
    def test_bad_or_oversized_inputs_fail_cleanly(self, tmp_path, capsys, n, args):
        # the n = 16 case asks for ~5e8 samples, about 12 GiB over the three
        # sample arrays; the n = 16 timeline itself is a few MiB. The n = 23
        # grid has a few hundred samples, but the 2**23 arrival events would
        # take hundreds of MiB of per-event arrays
        instance = tmp_path / "inst.txt"
        instance.write_text(f"n {n}\n")
        out_csv = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            # an exception escaping main would be the traceback
            code = main(["trace", str(instance), *args, "--out", str(out_csv)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not out_csv.exists()
        assert peak < 8 << 20


class TestFeasibilityCommand:
    def test_report_for_n(self, capsys):
        assert main(["feasibility", "--n", "39"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "n: 39\n"
            "min_cable_m: 0.0003\n"
            "longest_cable_m: 82463372.0832\n"
            "total_cable_m: 164926744.1895\n"
            "solve_time_s: 0.549755813888\n"
            "relative_power: 549755813888\n"
            "build_cost_units: 21440476741632\n"
            "check "
        )
        assert "published=800000000.0 DIFFERS" in out
        assert "computed=0.0003 published=0.0003 agrees" in out

    def test_total_time_budget(self, capsys):
        assert main(["feasibility", "--total-time", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "max_n: 39"

    def test_max_cable_budget(self, capsys):
        assert main(["feasibility", "--max-cable", "3e5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "max_n: 30"

    def test_nothing_fits(self, capsys):
        assert main(["feasibility", "--total-time", "1e-12"]) == 0
        out = capsys.readouterr().out
        assert "max_n: 0" in out
        assert "no instance fits" in out

    @pytest.mark.parametrize("args, max_n", [(["--max-cable", "1e300"], 1009), (["--total-time", "1e300"], 1036)])
    def test_budget_past_the_largest_universe(self, capsys, args, max_n):
        assert main(["feasibility", *args]) == 0
        captured = capsys.readouterr()
        out = captured.out.splitlines()
        assert out[:2] == [f"max_n: {max_n}", "note: no report is given past n=63"]
        assert len(out) == 7 and all(line.startswith("check ") for line in out[2:])
        assert captured.err == ""

    def test_minimum_cable_longer_than_300_km(self, capsys):
        # the 300 km figure check fits no instance instead of failing after
        # the report was printed
        assert main(["feasibility", "--n", "3", "--rise-time", "1", "--light-speed", "1e6"]) == 0
        captured = capsys.readouterr()
        assert "check instance size with 300 km cables: computed=0.0 published=26.0 DIFFERS" in captured.out
        assert captured.err == ""

    def test_requires_exactly_one_mode(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["feasibility", "--n", "3", "--total-time", "1"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit):
            main(["feasibility"])

    def test_explicit_n_out_of_range(self, capsys):
        assert main(["feasibility", "--n", "0"]) == 2
        assert main(["feasibility", "--n", "64"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["--total-time", "inf"],
            ["--total-time", "nan"],
            ["--max-cable", "inf"],
            ["--max-cable", "nan"],
            ["--rise-time", "inf", "--n", "3"],
            ["--rise-time", "nan", "--n", "3"],
            ["--light-speed", "nan", "--n", "3"],
            ["--epsilon-length", "inf", "--n", "3"],
            ["--rise-time", "1e-200", "--light-speed", "1e-200", "--epsilon-length", "1", "--max-cable", "1"],
        ],
    )
    def test_non_finite_inputs_fail_cleanly(self, args, capsys):
        # an exception escaping main would be the traceback
        assert main(["feasibility", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestGenCommand:
    def test_deterministic_bytes(self, capsys):
        args = ["gen", "--n", "4", "--m", "2", "--max-set-size", "2", "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_seed_changes_output(self, capsys):
        main(["gen", "--n", "8", "--m", "4", "--max-set-size", "3", "--seed", "1"])
        one = capsys.readouterr().out
        main(["gen", "--n", "8", "--m", "4", "--max-set-size", "3", "--seed", "2"])
        assert capsys.readouterr().out != one

    def test_empty_family(self, capsys):
        assert main(["gen", "--n", "4", "--m", "0", "--max-set-size", "2", "--seed", "0"]) == 0
        inst = parse_split_instance(capsys.readouterr().out)
        assert inst.n == 4 and inst.family == ()

    def test_generated_instances_reparse(self, capsys):
        for seed in range(1000):
            inst = parse_split_instance(gen_text(capsys, 5, 3, 3, seed))
            assert inst.n == 5
            assert len(inst.family) == 3
            assert all(1 <= f.bit_count() <= 3 for f in inst.family)

    def test_invalid_sizes(self, capsys):
        assert main(["gen", "--n", "0", "--m", "1", "--max-set-size", "1", "--seed", "1"]) == 2
        assert main(["gen", "--n", "4", "--m", "-1", "--max-set-size", "1", "--seed", "1"]) == 2
        assert main(["gen", "--n", "4", "--m", "1", "--max-set-size", "0", "--seed", "1"]) == 2
        assert capsys.readouterr().out == ""

    def test_output_is_the_generated_text(self, capsys):
        expected = "# gen seed=7 n=6 m=3 max-set-size=3\nn 6\nf 2 4\nf 1 5 6\nf 1 5\n"
        assert gen_text(capsys, 6, 3, 3, 7) == expected
        for seed in range(20):
            n, m, size = 1 + seed % 9, seed % 6, 1 + seed % 4
            text = gen_text(capsys, n, m, size, seed)
            assert text.startswith(f"# gen seed={seed} n={n} m={m} max-set-size={size}\nn {n}\n")
            inst = parse_split_instance(text)
            assert len(inst.family) == m and all(1 <= f.bit_count() <= size for f in inst.family)

    def test_large_family_is_written_as_it_is_drawn(self, tmp_path, monkeypatch, capsys):
        # 20000 sets make 138 KiB of text; holding its lines and
        # their join took 1.7 MiB
        path = tmp_path / "gen.txt"
        args = ["gen", "--n", "8", "--m", "20000", "--max-set-size", "3", "--seed", "1"]
        with open(path, "w", encoding="utf-8") as out:
            monkeypatch.setattr(sys, "stdout", out)
            tracemalloc.start()
            try:
                assert main(args) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        monkeypatch.undo()
        assert path.read_text(encoding="utf-8") == gen_text(capsys, 8, 20000, 3, 1)
        assert peak < 1 << 20


# Numbers an instance line may carry: small universes and indices, and
# tokens that are out of range, huge, or not integers. Universes stay at
# most 15 or lie in 29-63, which every command refuses before allocating,
# and value lists stay at most 12 long, so that no command lists or scans
# more than 2**15 moments or paths.
_NUMBER_TOKENS = st.one_of(
    st.integers(-2, 15).map(str),
    st.sampled_from(
        ["0", "64", "65", str(2**63), str(10**30), "1" * 5000, "1.5", "1e3", "0x1", "+3", "nan", "inf", "\u0663", "\uff11"]
    ),
)


@st.composite
def instance_bytes(draw):
    """A well-formed set-splitting or subset-sum instance with malformed,
    huge or out-of-range lines inserted anywhere, its first line possibly
    dropped, and trailing bytes that may not decode."""
    if draw(st.integers(0, 2)) == 0:
        values = draw(st.lists(st.integers(1, 1 << 40), min_size=1, max_size=12))
        target = draw(st.integers(1, sum(values) + 1))
        lines = ["values " + " ".join(map(str, values)), f"target {target}"]
    else:
        n = draw(st.one_of(st.integers(1, 12), st.integers(29, 63)))
        family = draw(st.lists(st.sets(st.integers(1, n), min_size=1, max_size=4), max_size=6))
        lines = [f"n {n}"] + ["f " + " ".join(map(str, sorted(f))) for f in family]
    if draw(st.integers(0, 3)) == 0:
        del lines[0]
    tags = st.sampled_from(["n", "f", "values", "target", "#", "x", "N"])
    bad_line = st.tuples(tags, st.lists(_NUMBER_TOKENS, max_size=5)).map(lambda t: " ".join([t[0], *t[1]]))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(bad_line))
    text = draw(st.sampled_from(["\n", "\r\n", "\n\n# comment\n"])).join(lines)
    return text.encode("utf-8") + draw(st.sampled_from([b"", b"", b"\n", b"\xff", b"\xc3", b"\x00"]))


@st.composite
def mid_split_text(draw):
    """A set-splitting text over 13 to 28 elements: up to five random sets
    of one to four elements, and in half the texts a planted odd cycle."""
    n = draw(st.integers(13, 28))
    elements = st.integers(1, n)
    family = draw(st.lists(st.sets(elements, min_size=1, max_size=4), max_size=5))
    if draw(st.booleans()):
        a, b, c = draw(st.lists(elements, min_size=3, max_size=3, unique=True))
        family += [{a, b}, {b, c}, {a, c}]
    family = draw(st.permutations(family))
    return "\n".join([f"n {n}"] + ["f " + " ".join(map(str, sorted(f))) for f in family]) + "\n"


# Values for the float options: ints, zero, negatives, the ends of the
# float range and the non-finite values. --n takes ints only: anything else
# is an argparse usage error.
_FLOAT_TOKENS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["0", "-1", "1e300", "-1e300", "1e-300", "-1e-300", "5e-324", "inf", "-inf", "nan"]),
)
_INT_TOKENS = st.one_of(st.integers(-70, 70), st.sampled_from([10**30, -(10**30)])).map(str)


@st.composite
def feasibility_argv(draw):
    """Exactly one of --n, --total-time and --max-cable, and any of the
    physical parameters; ``--opt=value`` keeps negative values from
    reading as options."""
    mode = draw(st.sampled_from(["n", "total-time", "max-cable"]))
    argv = ["feasibility", f"--{mode}={draw(_INT_TOKENS if mode == 'n' else _FLOAT_TOKENS)}"]
    for name in ("rise-time", "light-speed", "epsilon-length"):
        if draw(st.booleans()):
            argv.append(f"--{name}={draw(_FLOAT_TOKENS)}")
    return argv


class TestExitCodeContract:
    def test_corpus(self, tmp_path, capsys):
        # exit 0 <=> solvable, 1 <=> unsolvable, identical across methods
        for seed in range(40):
            n = 2 + seed % 7
            path = tmp_path / f"inst{seed}.txt"
            path.write_text(gen_text(capsys, n, seed % 5, 3, seed))
            optical = main(["solve", str(path), "--method", "optical"])
            optical_out = capsys.readouterr().out
            oracle = main(["solve", str(path), "--method", "oracle"])
            oracle_out = capsys.readouterr().out
            assert optical in (0, 1)
            assert optical == oracle
            assert optical_out == oracle_out
            assert (optical == 0) == optical_out.startswith("SPLIT")

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(instance_bytes())
    def test_fuzzed_instance_text(self, tmp_path, capsys, data):
        path = tmp_path / "fuzz.txt"
        path.write_bytes(data)
        # a rise time of a thousand unit delays keeps every trace grid short
        trace_args = ["--rise-time", "1e-9", "--unit-delay", "1e-12", "--epsilon", "1e-15"]
        codes = []
        for argv in (
            ["solve", str(path), "--method", "optical"],
            ["solve", str(path), "--method", "oracle"],
            ["moments", str(path)],
            ["simulate", str(path)],
            ["simulate", "--subset-sum-file", str(path)],
            ["trace", str(path), *trace_args, "--samples-per-rise", "1", "--out", str(tmp_path / "fuzz.csv")],
        ):
            # an exception escaping main would be the traceback
            code = main(argv)
            captured = capsys.readouterr()
            assert code in (0, 1, 2)
            if code == 2:
                assert captured.out == ""
                assert captured.err.startswith("error: ")
                assert captured.err.count("\n") == 1
            else:
                assert captured.err == ""
            codes.append(code)
        # every universe drawn here is small enough for both routes or
        # refused by all of them, so the routes agree
        optical, oracle, moments, simulate, simulate_subset_sum, trace = codes
        assert optical == oracle
        assert (moments == 2) == (simulate == 2) == (trace == 2) == (optical == 2)
        assert simulate in (0, 2) and simulate_subset_sum in (0, 2)
        # no text is both a set-splitting and a subset-sum instance
        assert optical == 2 or simulate_subset_sum == 2

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mid_split_text())
    def test_fuzzed_solve_between_the_caps(self, tmp_path, capsys, text):
        # the universes the full fuzz skips, as its simulate step would
        # print 2**n lines: only the two solve routes run, and they agree
        path = tmp_path / "mid.txt"
        path.write_text(text)
        results = []
        for method in ("optical", "oracle"):
            code = main(["solve", str(path), "--method", method])
            captured = capsys.readouterr()
            assert code in (0, 1)
            assert captured.err == ""
            results.append((code, captured.out))
        assert results[0] == results[1]

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(feasibility_argv())
    def test_fuzzed_feasibility(self, capsys, argv):
        # an exception escaping main would be the traceback
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 2)
        if code == 2:
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
        else:
            assert captured.err == ""

