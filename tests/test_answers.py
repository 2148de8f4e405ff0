"""The frozen answer corpus: both routes still give the answers written
in ``tests/data/answers.txt``.

Each instance is rebuilt from its family, seed and index by
``make_answers.instance``; its text must hash as written, so a changed
generator cannot pass as a changed answer. Regenerating the file is a
change of this check.
"""

import pytest

from make_answers import ANSWERS, FAMILIES, answers, digest, instance

CORPUS = [
    line.split(maxsplit=4) for line in ANSWERS.read_text(encoding="ascii").splitlines() if not line.startswith("#")
]


def test_the_corpus_holds_every_instance_of_every_family():
    written = [(tag, int(seed), int(index)) for tag, seed, index, _, _ in CORPUS]
    assert written == [(tag, seed, index) for tag, (seed, count, _) in FAMILIES.items() for index in range(count)]


@pytest.mark.parametrize("family", FAMILIES)
def test_both_routes_give_the_written_answers(family):
    wrong = []
    for tag, seed, index, sha, answer in CORPUS:
        if tag != family:
            continue
        text = instance(tag, int(seed), int(index))
        if digest(text) != sha:
            wrong.append(f"{index}: text hashes to {digest(text)}, not {sha}")
        elif answers(text) != (answer, answer):
            wrong.append(f"{index}: optical and oracle answer {answers(text)}, not {answer}")
    assert wrong == []
