"""The test session itself: a failing property is reported like any other
failure, and the tests after it still run."""

from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_a_failing_property_does_not_end_the_session(pytester):
    # The suite's own warning filters and conftest, in a fresh interpreter,
    # so hypothesis' failure path imports its patching module anew.
    pytester.makepyprojecttoml('[tool.pytest.ini_options]\nfilterwarnings = ["error"]\n')
    pytester.makeconftest((HERE / "conftest.py").read_text())
    pytester.makepyfile(test_order='''
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_a_failing_property(x):
            assert x < 0

        def test_a_later_test():
            pass
    ''')
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
