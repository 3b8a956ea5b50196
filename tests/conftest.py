"""Suite-wide pytest settings.

The hypothesis plugin's report hook touches `mypy_extensions.TypedDict`,
which warns that it is deprecated. Under `-W error` that warning becomes an
INTERNALERROR as soon as a `@given` test fails, and the session stops. An
`ini` `filterwarnings` entry loses to a command-line `-W error`, while a
`filterwarnings` mark outranks both, so every test carries this one filter
as a mark."""

import pytest

HYPOTHESIS_REPORT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(HYPOTHESIS_REPORT_WARNING))
