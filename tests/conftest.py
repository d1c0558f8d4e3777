"""Test-session set-up shared by every test module.

When a hypothesis property fails, hypothesis' pytest plugin imports
hypothesis.extra._patching, which imports libcst, which imports
mypy_extensions, and mypy_extensions warns that its TypedDict is
deprecated.  The "error" warning filter (pyproject.toml) would turn that
warning into an INTERNALERROR that ends the session, so no later test would
run.  The module is imported here once with that one warning ignored;
every other warning, the package's own included, stays an error.
"""

import warnings

pytest_plugins = ["pytester"]

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message=r"mypy_extensions\.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin skips its patch file too
        pass


def clear_caches() -> None:
    """Empty every cache that tests/test_caches.py registers."""
    from test_caches import CACHES, cached

    for module, name in CACHES:
        cached(module, name).cache_clear()
