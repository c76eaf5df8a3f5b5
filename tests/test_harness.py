"""The test harness itself: a failing property test reports like any other."""

pytest_plugins = ["pytester"]

INNER = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    assert True
"""


def test_failing_property_test_reports_like_any_other(pytester, pytestconfig):
    # The inner session runs under this project's warning filters.  Without
    # the filter for mypy_extensions' TypedDict warning, which the hypothesis
    # plugin's report hook raises, the failure ends it with INTERNALERROR
    # and the passing test is never reported.
    filters = pytestconfig.getini("filterwarnings")
    assert filters[0] == "error"
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {line}\n" for line in filters))
    pytester.makepyfile(INNER)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=1, passed=1)
