"""The library's memoised state, under one rule.

A cache exists only where an end-to-end metric or a cold start needs it.  A
cache that takes a key has a maxsize.  Every array a cache returns is
read-only and owns its memory (base is None): no caller can change what the
next one reads, and no cached view keeps a larger array alive.  CACHES lists
every functools cache in the qecopt modules, here and nowhere else;
conftest.clear_caches empties each one it lists, so every test that compares
warm, cold and reordered calls clears a new cache without edits.

This module imports neither SciPy, jsonschema nor hypothesis, so it also
runs with the runtime dependencies alone.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import qecopt
from qecopt import cli

from conftest import clear_caches

# Each cache by module and name, with the key of its i-th call when it takes
# one (None when it takes none), and why it exists.
CACHES: dict[tuple[str, str], Callable[[int], tuple] | None] = {
    # main parses every call of a process with the one parser.
    ("qecopt.cli", "build_parser"): None,
    # leggauss(32) and leggauss(16) take ~0.69 ms, too much for every call
    # or cold start, and np.cos of C_z's 48 nodes is ~3 of a square
    # --compare's ~7 us in delta0_asymptotic; none depends on z.
    ("qecopt.crosstalk", "_gauss_rules"): None,
    # A z sweep at one side builds the square's far geometry once.
    ("qecopt.crosstalk", "_far_geometry"): lambda i: (129 + i,),
    # Bypassing both takes budgets from ~88 to ~104 us/op at best.
    ("qecopt.optimizer", "_level_table"): lambda i: (2 + i,),
    ("qecopt.shor", "_crossing_base"): lambda i: (2 + i, 1 + i),
}


def cached(module: str, name: str):
    return getattr(importlib.import_module(module), name)


def _found_caches() -> set[tuple[str, str]]:
    """Every functools cache defined in a qecopt module: a function or a
    method wrapped by cache or lru_cache, or a cached_property."""
    found = set()
    for info in pkgutil.iter_modules(qecopt.__path__, "qecopt."):
        module = importlib.import_module(info.name)
        owners = [module] + [value for value in vars(module).values()
                             if isinstance(value, type) and value.__module__ == info.name]
        for owner in owners:
            prefix = "" if owner is module else owner.__qualname__ + "."
            for name, value in vars(owner).items():
                if isinstance(value, functools.cached_property) or (
                        hasattr(value, "cache_info")
                        and getattr(value, "__module__", None) == info.name):
                    found.add((info.name, prefix + name))
    return found


def test_every_cache_is_registered():
    assert _found_caches() == set(CACHES)


@pytest.mark.parametrize("module, name", list(CACHES))
def test_a_keyed_cache_is_bounded(module, name):
    cache, keys = cached(module, name), CACHES[module, name]
    takes_key = bool(inspect.signature(cache.__wrapped__).parameters)
    assert takes_key == (keys is not None)
    if takes_key:
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None
        cache.cache_clear()
        for i in range(maxsize + 2):
            cache(*keys(i))
            assert cache.cache_info().currsize <= maxsize
        assert cache.cache_info().currsize == maxsize


def _arrays(value, seen: set[int]):
    """The numpy arrays in a cached value: in its tuples, lists and dicts and
    in the attributes of the qecopt objects it holds."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item, seen)
    elif type(value).__module__.startswith("qecopt.") and hasattr(value, "__dict__"):
        yield from _arrays(vars(value), seen)


@pytest.mark.parametrize("module, name", list(CACHES))
def test_cached_arrays_are_read_only_and_own_their_memory(module, name):
    cache, keys = cached(module, name), CACHES[module, name]
    # Two keys of a keyed cache: the far geometry of both parities.
    for key in ([()] if keys is None else [keys(0), keys(1)]):
        for array in _arrays(cache(*key), set()):
            assert array.base is None, (name, key)
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


def _square(side: int, z: float) -> list[str]:
    argv = ["longrange", "--lattice", "square", "--z", repr(z), "--N0", str(side * side)]
    return argv + ["--compare"] if z <= 2.0 else argv  # C_z's rule, below z = d


# Squares past side 128, both parities, read the far geometry kept per side,
# across z = 2, where the radial integral changes form; shor queries read
# the level tables and the crossing bases kept per scheme, over key lengths
# and schemes, in JSON and CSV and with an error target.
OPS = [_square(side, z) for side in (129, 130, 1000, 1001, 10 ** 4)
       for z in (0.0, 0.5, 1.1, 1.9, 2.0 - 1e-9, 2.0, 2.05, 3.0, 7.5, 60.0)] + [
    ["shor", "--scheme", scheme, "--R", str(R), "--gamma", "10", "--omega0", "1e10", *extra]
    for scheme in ("aliferis2006", "100,50,1000,30,2", "1,1,1,1,1")
    for R in (2, 64, 1000, 16384, 10 ** 5, 10 ** 7)
    for extra in ([], ["--perr", "1e-12"], ["--format", "csv"])]


def _report(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()


def test_reports_do_not_move_with_the_order_of_the_calls():
    forwards = [_report(argv) for argv in OPS]
    clear_caches()
    backwards = [_report(argv) for argv in reversed(OPS)]
    assert forwards == backwards[::-1]


def _fresh(*args: str) -> str:
    """The stdout of a fresh interpreter run with args, importing this
    checkout's qecopt."""
    env = dict(os.environ)
    src = str(Path(qecopt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("argv", [
    _square(1000, 1.1), _square(1001, 1.1),
    ["shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10"],
])
def test_a_fresh_process_prints_the_warm_report(argv):
    _report(argv)
    assert _fresh("-m", "qecopt.cli", *argv) == _report(argv)


def test_import_and_help_fill_only_the_parser():
    # Import builds no cached value; the tables built at import are module
    # constants.  --help builds the parser and nothing else.
    probe = (
        "import contextlib, importlib, io, json, sys\n"
        "import qecopt.cli\n"
        "caches = [getattr(importlib.import_module(m), n) for m, n in json.loads(sys.argv[1])]\n"
        "sizes = [[c.cache_info().currsize for c in caches]]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert qecopt.cli.main(['--help']) == 0\n"
        "sizes.append([c.cache_info().currsize for c in caches])\n"
        "print(json.dumps(sizes))\n"
    )
    names = list(CACHES)
    at_import, after_help = json.loads(_fresh("-c", probe, json.dumps(names)))
    assert at_import == [0] * len(names)
    assert after_help == [int(name == ("qecopt.cli", "build_parser")) for name in names]
