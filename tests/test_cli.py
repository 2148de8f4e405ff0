"""Command-line behaviour: output contracts, exit codes, generation."""

import hashlib
import sys
import tracemalloc

import pytest

from splitbeam import parse_split_instance
from splitbeam.cli import generate_split_instance_text, main

DEMO = "n 4\nf 1 2\nf 1 3\n"


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

    def test_unknown_flag_is_usage_error(self, demo_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", demo_file, "--bogus"])
        assert excinfo.value.code == 2


class TestMomentsCommand:
    def test_full_default(self, demo_file, capsys):
        assert main(["moments", demo_file]) == 0
        assert capsys.readouterr().out == "full: 0,2,3,4,5,7,8,10,11,12,13,15\n"

    def test_literal(self, demo_file, capsys):
        assert main(["moments", demo_file, "--literal"]) == 0
        assert capsys.readouterr().out == "literal: 3,5,7,11,13,15\n"

    def test_empty(self, tmp_path, capsys):
        path = tmp_path / "free.txt"
        path.write_text("n 3\n")
        assert main(["moments", str(path)]) == 0
        assert capsys.readouterr().out == "full:\n"


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
        assert out[0] == "device kind=set-splitting n=4"
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

    def test_requires_exactly_one_source(self, demo_file, capsys):
        assert main(["simulate"]) == 2
        assert main(["simulate", demo_file, "--set-splitting-n", "3"]) == 2


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
        ],
    )
    def test_bad_or_oversized_inputs_fail_cleanly(self, tmp_path, capsys, n, args):
        # the last case asks for ~5e8 samples, about 12 GiB over the three
        # sample arrays; the n = 16 timeline itself is a few MiB
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
        assert "min_cable_m: 0.0003" in out
        assert "longest_cable_m: 82463372.0832" in out
        assert "relative_power: 549755813888" in out
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

    def test_generated_instances_reparse(self):
        for seed in range(1000):
            text = generate_split_instance_text(5, 3, 3, seed)
            inst = parse_split_instance(text)
            assert inst.n == 5
            assert len(inst.family) == 3
            assert all(1 <= f.bit_count() <= 3 for f in inst.family)

    def test_invalid_sizes(self, capsys):
        assert main(["gen", "--n", "0", "--m", "1", "--max-set-size", "1", "--seed", "1"]) == 2
        assert main(["gen", "--n", "4", "--m", "-1", "--max-set-size", "1", "--seed", "1"]) == 2
        assert main(["gen", "--n", "4", "--m", "1", "--max-set-size", "0", "--seed", "1"]) == 2


class TestExitCodeContract:
    def test_corpus(self, tmp_path, capsys):
        # exit 0 <=> solvable, 1 <=> unsolvable, identical across methods
        for seed in range(40):
            n = 2 + seed % 7
            text = generate_split_instance_text(n, seed % 5, 3, seed)
            path = tmp_path / f"inst{seed}.txt"
            path.write_text(text)
            optical = main(["solve", str(path), "--method", "optical"])
            optical_out = capsys.readouterr().out
            oracle = main(["solve", str(path), "--method", "oracle"])
            oracle_out = capsys.readouterr().out
            assert optical in (0, 1)
            assert optical == oracle
            assert optical_out == oracle_out
            assert (optical == 0) == optical_out.startswith("SPLIT")
