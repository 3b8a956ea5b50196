"""Suite-wide pytest settings, and the `lanes` fixture that sets the inputs
of a run's plan for the tests that run on thread lanes.

The hypothesis plugin's report hook touches `mypy_extensions.TypedDict`,
which warns that it is deprecated. Under `-W error` that warning becomes an
INTERNALERROR as soon as a `@given` test fails, and the session stops. An
`ini` `filterwarnings` entry loses to a command-line `-W error`, while a
`filterwarnings` mark outranks both, so every test carries this one filter
as a mark."""

import functools

import pytest

HYPOTHESIS_REPORT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(HYPOTHESIS_REPORT_WARNING))


@pytest.fixture
def lanes(monkeypatch):
    """`lanes(n)` makes every later `run()` plan for `n` spare lanes with
    every orthogonalized group big (a class of one) and every alignment call
    offloaded; `lanes(n, lane_work=w)` plans at the threshold `w` instead."""
    import teon.runner as runner

    plan = runner._plan

    def set_lanes(n, lane_work=1):
        monkeypatch.setattr(runner, "_spare_lanes", lambda: n)
        monkeypatch.setattr(runner, "_plan", functools.partial(plan, lane_work=lane_work))

    return set_lanes
