"""Zero padding of a box into a scenario with more outcomes per input."""

from nsbox import JointBox, Scenario


def zero_padded(box: JointBox, target: Scenario) -> JointBox:
    """box in target, whose outcome counts are at least box's: every extra
    outcome gets probability 0."""
    src = box.scenario
    assert all(t >= n for t, n in zip(target.dims(), src.dims())), "padding cannot shrink"

    def prob(x, y, a, b):
        return box.prob(x, y, a, b) if a < src.alice[x] and b < src.bob[y] else 0

    return JointBox.from_function(target, prob)
