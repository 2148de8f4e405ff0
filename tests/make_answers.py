"""Write the frozen answer corpus, ``tests/data/answers.txt``.

    PYTHONPATH=src python tests/make_answers.py

Each line is one seeded instance: its family tag, seed and index, the
first 16 hex digits of the sha256 of its canonical text, and its answer.
A set-splitting answer is ``SPLIT <smallest solution moment>`` or
``NO-SPLIT``; a subset-sum answer is ``FOUND <smallest witness mask>`` or
``NONE``. Both routes decide every instance, and every instance with
n <= 16 is also decided by ``brute_force``, which reads only the text
and shares no code with splitbeam. Generation fails, and writes nothing,
if any two of them disagree. ``tests/test_answers.py`` rebuilds every
instance from its seed and checks that both routes still give the
answer written here.
"""

import hashlib
import random
import sys
from pathlib import Path

import numpy as np

from splitbeam import (
    parse_split_instance,
    parse_subset_sum_instance,
    solve_optical,
    solve_oracle,
    solve_subset_sum,
    subset_sum_oracle,
)

ANSWERS = Path(__file__).resolve().parent / "data" / "answers.txt"
BRUTE_FORCE_MAX_N = 16


def split_text(n, family):
    return f"n {n}\n" + "".join("f " + " ".join(map(str, sorted(s))) + "\n" for s in family)


def subset_sum_text(values, target):
    return "values " + " ".join(map(str, values)) + f"\ntarget {target}\n"


def random_sets(rng):
    # a singleton never splits, so it is drawn less often than larger sets
    n = rng.randint(1, 24)
    sizes = [min(n, rng.choice((1, 2, 2, 2, 3, 3, 3, 4, 4, 4))) for _ in range(rng.randint(0, n + 2))]
    return split_text(n, [rng.sample(range(1, n + 1), k) for k in sizes])


def odd_cycle(rng):
    # an odd cycle of pairs, among random sets of 2-4 elements: never splits
    n = rng.randint(3, 24)
    cycle = rng.sample(range(1, n + 1), rng.randrange(3, n + 1, 2))
    family = [(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    family += [rng.sample(range(1, n + 1), rng.randint(2, min(4, n))) for _ in range(rng.randint(0, n))]
    rng.shuffle(family)
    return split_text(n, family)


def random_triples(rng):
    # m/n in [2, 2.5], near where random triple families stop splitting
    n = rng.randint(6, 24)
    return split_text(n, [rng.sample(range(1, n + 1), 3) for _ in range(rng.randint(2 * n, 5 * n // 2))])


def large(index):
    # n = 25-28: {a1}, and odd cycles on the lowest and on high elements
    n = 25 + index // 3
    if index % 3 == 0:
        return split_text(n, [(1,)])
    a, b, c = (1, 2, 3) if index % 3 == 1 else (n - 8, n - 4, n)
    return split_text(n, [(a, b), (b, c), (a, c)])


def subset_values(rng):
    bits = rng.randint(1, 32)
    return [rng.randint(1, 1 << bits) for _ in range(rng.randint(1, 20))]


def planted_target(rng):
    values = subset_values(rng)
    chosen = rng.sample(values, rng.randint(1, len(values)))
    return subset_sum_text(values, sum(chosen))


def random_target(rng):
    values = subset_values(rng)
    return subset_sum_text(values, rng.randint(1, sum(values)))


# tag: (seed, count, generator)
FAMILIES = {
    "split-sets": (1, 800, random_sets),
    "split-cycle": (2, 300, odd_cycle),
    "split-triples": (3, 400, random_triples),
    "split-large": (4, 12, large),
    "subset-planted": (5, 250, planted_target),
    "subset-random": (6, 250, random_target),
}


def instance(tag, seed, index):
    """The canonical text of instance ``index`` of family ``tag``."""
    generator = FAMILIES[tag][2]
    if generator is large:
        return large(index)
    return generator(random.Random(f"{tag} {seed} {index}"))


def digest(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def answers(text):
    """The optical and the oracle answer to ``text``, as the corpus writes them."""
    if text.startswith("n "):
        inst = parse_split_instance(text)
        return tuple(
            f"SPLIT {answer.solution_moment}" if answer.solvable else "NO-SPLIT"
            for answer in (solve_optical(inst), solve_oracle(inst))
        )
    inst = parse_subset_sum_instance(text)
    return tuple(
        f"FOUND {found.witness}" if found.found else "NONE"
        for found in (solve_subset_sum(inst), subset_sum_oracle(inst))
    )


def brute_force(text):
    """The answer by testing every mask on its own, read from the text alone."""
    head, *rest = (line.split() for line in text.splitlines())
    if head[0] == "n":
        masks = np.arange(1 << int(head[1]), dtype=np.int64)
        splits = np.ones(len(masks), dtype=bool)
        for line in rest:
            f = sum(1 << (int(i) - 1) for i in line[1:])
            splits &= (masks & f != 0) & (masks & f != f)
        return f"SPLIT {int(splits.argmax())}" if splits.any() else "NO-SPLIT"
    values = [int(v) for v in head[1:]]
    masks = np.arange(1 << len(values), dtype=np.int64)
    sums = sum(((masks >> i) & 1) * v for i, v in enumerate(values))
    hits = sums == int(rest[0][1])
    return f"FOUND {int(hits.argmax())}" if hits.any() else "NONE"


def universe(text):
    head = text.split("\n", 1)[0].split()
    return int(head[1]) if head[0] == "n" else len(head) - 1


def main():
    lines = ["# tag seed index sha256[:16] answer; written by tests/make_answers.py\n"]
    disagreements = []
    for tag, (seed, count, _) in FAMILIES.items():
        for index in range(count):
            text = instance(tag, seed, index)
            found = answers(text)
            if universe(text) <= BRUTE_FORCE_MAX_N:
                found += (brute_force(text),)
            if len(set(found)) > 1:
                disagreements.append(f"{tag} {seed} {index}: optical, oracle, brute force answer {found}")
            lines.append(f"{tag} {seed} {index} {digest(text)} {found[0]}\n")
    if disagreements:
        sys.exit("routes disagree:\n" + "\n".join(disagreements))
    ANSWERS.parent.mkdir(exist_ok=True)
    ANSWERS.write_text("".join(lines), encoding="ascii")
    print(f"wrote {ANSWERS.name}: {len(lines) - 1} instances")


if __name__ == "__main__":
    main()
