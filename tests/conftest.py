import pytest

from splitbeam import SplitInstance


@pytest.fixture
def demo4() -> SplitInstance:
    """Four elements, family {a1,a2} and {a1,a3}: the worked example used
    throughout the golden tests."""
    return SplitInstance(4, (0b0011, 0b0101))


@pytest.fixture
def timeline_fields():
    """What two arrival timelines must share to be the same timeline,
    with implicit arrays built out."""

    def fields(timeline):
        return (
            timeline.n,
            timeline.event_count,
            timeline.cores.tolist(),
            timeline.counts.tolist(),
            [event.witness for event in timeline.iter_events()],
        )

    return fields
