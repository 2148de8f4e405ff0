"""The command line as its own process: output bytes and exit codes.

Every case runs ``python -m splitbeam.cli`` in a fresh interpreter with
this checkout's ``src/`` first on PYTHONPATH, so what is checked is what
a shell sees, the ``__main__`` guard's exit code included. The instance
files are written once and shared by all cases.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

INSTANCES = {
    # n = 20, an odd cycle of pairs: no split, so the oracle scans all 2**20 masks
    "n20": "n 20\nf 1 2\nf 2 3\nf 1 3\n",
    # the odd cycle before larger sets: the oracle blocks every mask of
    # each block on the cycle and skips the larger sets
    "n20-cycle": "n 20\nf 1 2\nf 2 3\nf 1 3\nf 4 5 6 7\nf 8 9 10 11 12 13\nf 1 14 15 16 17 18 19 20\n",
    # pairs {b, 12} for b < 12 and the set {12, ..., 20}: the smallest
    # split is {12}, mask 2048, past the oracle's first 1024-mask block
    "n20-sat": "n 20\n" + "".join(f"f {b} 12\n" for b in range(1, 12)) + "f " + " ".join(map(str, range(12, 21))) + "\n",
    # n = 24, an odd cycle on elements 16, 20 and 24, whose bits all lie
    # past bit 14: the oracle scans every run of table blocks to its cap
    "n24-cycle": "n 24\nf 16 20\nf 20 24\nf 16 24\n",
    # pairs {b, 24} for b < 24: the smallest split is {1, ..., 23}, mask
    # 2**23 - 1, the last block of the oracle's run before the last
    "n24-ladder": "n 24\n" + "".join(f"f {b} 24\n" for b in range(1, 24)),
    # {a1} at the cap both routes share: no split, so the optical route
    # reads word 0, whose class words every word of the lower half has,
    # and the oracle every run of table blocks
    "n28-a1": "n 28\nf 1\n",
    # an odd cycle of pairs at n = 7: the lower half is exactly one word
    "n7": "n 7\nf 1 2\nf 2 3\nf 1 3\n",
    "n40": "n 40\n",
    # {a2, ..., a28}: listing the moments streams all 64 blocks
    "n28": "n 28\nf " + " ".join(map(str, range(2, 29))) + "\n",
    # subset sum with colliding paths
    "ss": "values 5 5 10\ntarget 15\n",
    # 25 values: path enumeration is refused before it allocates
    "ss25": "values " + " ".join(map(str, range(1, 26))) + "\ntarget 5\n",
}

GEN_INSTANCE = b"# gen seed=7 n=12 m=4 max-set-size=5\nn 12\nf 1 2 3 7\nf 1 2 4 6 10\nf 7 12\nf 2 7 9\n"

TRACE_ARGS = ("--unit-delay", "1e-12", "--epsilon", "1e-12")

FEASIBILITY_N26 = (
    b"n: 26\n"
    b"min_cable_m: 0.0003\n"
    b"longest_cable_m: 10066.3296\n"
    b"total_cable_m: 20132.674499999997\n"
    b"solve_time_s: 6.7108864e-05\n"
    b"relative_power: 67108864\n"
    b"build_cost_units: 1744830464\n"
    b"check minimum cable length (m): computed=0.0003 published=0.0003 agrees\n"
    b"check instance size solvable in one second: computed=39.0 published=39.0 agrees\n"
    b"check longest cable for a 39-element device (m): computed=82463372.0832 published=800000000.0 DIFFERS\n"
    b"check instance size with 300 km cables: computed=30.0 published=26.0 DIFFERS\n"
    b"check solve time for a 26-element device (s): computed=6.7108864e-05 published=1e-06 DIFFERS\n"
)

SUBSET_SUM_TIMELINE = (
    b"events=5 total_paths=8\n"
    b"moment=0+3eps paths=1 intensity=1/8 witness={}\n"
    b"moment=5+3eps paths=2 intensity=1/4 witness={1}\n"
    b"moment=10+3eps paths=2 intensity=1/4 witness={1,2}\n"
    b"moment=15+3eps paths=2 intensity=1/4 witness={1,3}\n"
    b"moment=20+3eps paths=1 intensity=1/8 witness={1,2,3}\n"
    b"target=15 fluctuation at moment 15+3eps (subset {1,3})\n"
)


def command(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "splitbeam.cli", *args], env


def splitbeam(*args, cwd):
    argv, env = command(*args)
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=300)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding every instance file, the generated one included."""
    path = tmp_path_factory.mktemp("console")
    for name, text in INSTANCES.items():
        (path / f"{name}.txt").write_text(text, encoding="utf-8")
    gen = splitbeam("gen", "--n", "12", "--m", "4", "--max-set-size", "5", "--seed", "7", cwd=path)
    assert gen.returncode == 0
    assert gen.stdout == GEN_INSTANCE
    (path / "inst.txt").write_bytes(gen.stdout)
    return path


def expect_refusal(result, stderr=None):
    # a refusal is exit 2, one error line, and nothing on stdout
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr.startswith(b"error: ")
    if stderr is not None:
        assert result.stderr == stderr


@pytest.mark.parametrize(
    "name, code",
    [
        ("inst", None),
        ("n20", 1),
        ("n20-cycle", 1),
        ("n20-sat", 0),
        ("n7", 1),
        ("n24-cycle", 1),
        ("n24-ladder", 0),
        ("n28-a1", 1),
    ],
)
def test_solve_methods_agree_byte_for_byte(workdir, name, code):
    optical = splitbeam("solve", f"{name}.txt", "--method", "optical", cwd=workdir)
    oracle = splitbeam("solve", f"{name}.txt", "--method", "oracle", cwd=workdir)
    assert optical.returncode in (0, 1)
    assert optical.returncode == oracle.returncode
    if code is not None:
        assert optical.returncode == code
    assert optical.stdout == oracle.stdout
    if name == "n20-sat":
        assert oracle.stdout.endswith(b" moment=2048\n")
    if name == "n24-ladder":
        assert oracle.stdout.endswith(b" moment=8388607\n")


def test_moments(workdir):
    full = splitbeam("moments", "inst.txt", cwd=workdir)
    literal = splitbeam("moments", "inst.txt", "--literal", cwd=workdir)
    assert full.returncode == literal.returncode == 0
    assert full.stdout.startswith(b"full:")
    assert literal.stdout.startswith(b"literal:")
    n28 = splitbeam("moments", "n28.txt", cwd=workdir)
    assert n28.returncode == 0
    assert n28.stdout == b"full: 0,1,268435454,268435455\n"


def test_moments_past_the_bitset_is_refused(workdir):
    expect_refusal(splitbeam("moments", "n40.txt", cwd=workdir))


def test_simulate_subset_sum(workdir):
    result = splitbeam("simulate", "--subset-sum-file", "ss.txt", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout == SUBSET_SUM_TIMELINE
    assert hashlib.sha256(result.stdout).hexdigest() == "169c6c33b7603d0179e124de657806f9992b9e116f5ca78e603206085a287448"
    # the device dump: every layer's take delay and a zero skip arc
    dump = splitbeam("simulate", "--subset-sum-file", "ss.txt", "--dump-device", cwd=workdir)
    assert dump.returncode == 0
    assert dump.stdout == (
        b"device n=3\n"
        b"layer 1: take=5 skip=0\n"
        b"layer 2: take=5 skip=0\n"
        b"layer 3: take=10 skip=0\n" + SUBSET_SUM_TIMELINE
    )


def test_simulate_set_splitting(workdir):
    # the enumerated timeline, one path per moment, witness = moment
    result = splitbeam("simulate", "--set-splitting-n", "3", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout == (
        b"events=8 total_paths=8\n"
        b"moment=0+3eps paths=1 intensity=1/8 witness={}\n"
        b"moment=1+3eps paths=1 intensity=1/8 witness={1}\n"
        b"moment=2+3eps paths=1 intensity=1/8 witness={2}\n"
        b"moment=3+3eps paths=1 intensity=1/8 witness={1,2}\n"
        b"moment=4+3eps paths=1 intensity=1/8 witness={3}\n"
        b"moment=5+3eps paths=1 intensity=1/8 witness={1,3}\n"
        b"moment=6+3eps paths=1 intensity=1/8 witness={2,3}\n"
        b"moment=7+3eps paths=1 intensity=1/8 witness={1,2,3}\n"
    )


def test_simulate_without_a_source_is_refused(workdir):
    # argparse refuses it: exit 2, its usage message, nothing on stdout
    result = splitbeam("simulate", cwd=workdir)
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"one of the arguments" in result.stderr


def test_simulate_past_the_enumeration_cap_is_refused(workdir):
    expect_refusal(splitbeam("simulate", "--subset-sum-file", "ss25.txt", cwd=workdir))


def test_simulate_into_a_closed_pipe(workdir):
    # a reader that stops after one line is not bad input: the writer
    # prints nothing more and exits 141 = 128 + SIGPIPE, as `| head -1` sees
    argv, env = command("simulate", "--set-splitting-n", "20")
    with subprocess.Popen(argv, cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"events=1048576 total_paths=1048576\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=300) == 141
    assert stderr == b""


def test_trace(workdir):
    result = splitbeam("trace", "inst.txt", "--rise-time", "1e-12", *TRACE_ARGS, "--out", "trace.csv", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout == b"wrote trace.csv samples=32873\n"
    assert result.stderr == b""
    csv = (workdir / "trace.csv").read_bytes()
    assert csv.startswith(b"time_s,intensity\n")
    assert hashlib.sha256(csv).hexdigest() == "334fd8237349f90a312e84a255bf84a5ebf3031adb88cd015e8ae7350ae31c48"


def test_trace_with_a_negative_rise_time_is_refused(workdir):
    result = splitbeam("trace", "inst.txt", "--rise-time", "-1", *TRACE_ARGS, "--out", "refused.csv", cwd=workdir)
    expect_refusal(result, b"error: rise_time must be finite and strictly positive, got -1.0\n")
    assert not (workdir / "refused.csv").exists()


def test_feasibility(workdir):
    result = splitbeam("feasibility", "--n", "26", cwd=workdir)
    assert result.returncode == 0
    assert result.stdout == FEASIBILITY_N26
    assert result.stderr == b""


def test_feasibility_with_a_negative_rise_time_is_refused(workdir):
    result = splitbeam("feasibility", "--n", "5", "--rise-time", "-1", cwd=workdir)
    expect_refusal(result, b"error: rise time must be finite and strictly positive, got -1.0\n")
