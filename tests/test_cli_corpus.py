"""Byte identity of the CLI: a committed corpus of argv, replayed in-process.

cli_corpus.json holds literal argv lists: both seeds' (1 and 2026) full
benchmark workload rounds, the README's command lines (without --out), every
--help and -h, and rejected probes.  Every op is argv only: no --out,
--config or --in file is written or read (one probe names a missing --in
file that is rejected unread).  For each op it records the exit code, stderr
verbatim and the sha256 of stdout, as cli.main gives them at the commit
that recorded it.

Every JSON report an op writes is also fed back, as `qecopt COMMAND
--config FILE`, and must give itself again byte for byte, with stderr
empty: the config reader is held to the same ops as the parser.

Report bytes rest on libm and on numpy's SIMD dispatch, which can round
cosh, arcsinh, log, expm1 or ** differently on another CPU or numpy.  So
the file also records a fingerprint: the numpy version and the sha256 of
fixed math and numpy float64 results of the kind reports use.  Where the
fingerprint matches, stdout digests must match too.  Elsewhere exit codes
and stderr must still match, and the test prints how many stdout digests
differ.

Regenerate with

    PYTHONPATH=src python tests/test_cli_corpus.py [OP ...]

which re-records the given op numbers (all ops and the fingerprint when
none is given).  A change that alters reports on purpose re-records only
those ops and lists them; an op is never dropped or changed to make the
test pass.  New ops go at the end of the list.

The corpus is also the CLI's coverage record.  A fresh process, profiled from
before `import qecopt`, replays every op through cli.main and names each
function defined in src/qecopt that it never entered; that list must be
NOT_REACHED, where each entry says why no argv reaches it.  A function no
command runs is deleted, or listed with its reason; a command path no op
takes gets an op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

from qecopt import cli

CORPUS = Path(__file__).with_name("cli_corpus.json")

_PAPER_FORMULA = "a paper formula the library exports and no command reports"
_BENCHMARK_VIEW = "read by benchmarks/ until its benchmark-only change (ROADMAP item 1)"
# Every function in src/qecopt that no corpus op enters, keyed by module and
# qualified name, with the reason no argv-only op can enter it.
NOT_REACHED = {
    "qecopt.optimizer.log10_logical_error": _PAPER_FORMULA,
    "qecopt.optimizer.generic_kmax_bound": _PAPER_FORMULA,
    "qecopt.crosstalk.effective_local_error": _PAPER_FORMULA,
    "qecopt.crosstalk.amplified_fault_pairs": _PAPER_FORMULA,
    "qecopt.crosstalk.logical_crosstalk_log10": _PAPER_FORMULA,
    "qecopt.crosstalk.crosstalk_usefulness_threshold": _PAPER_FORMULA,
    "qecopt.scheme.LogProb.__post_init__": _BENCHMARK_VIEW,
    "qecopt.scheme.eta_at_level": _BENCHMARK_VIEW,
    "qecopt.optimizer.OptResult.log10_p_min": _BENCHMARK_VIEW,
    "qecopt.optimizer.OptResult.curve": _BENCHMARK_VIEW,
    "qecopt.cli._read_samples": "reads fit's --in file; corpus ops are argv only",
    "qecopt.cli.entry_point": "the console script around cli.main, which the ops call",
    "qecopt.__dir__": "dir(qecopt), for interactive use",
}

# Run as `python -c _GUARD CORPUS`: prints, as a JSON list, every function
# defined in the imported qecopt package that no op entered.  A function is
# keyed by its file and first line (a decorator's, if it has one), as its
# code object is, and named from the syntax tree, since co_qualname is not in
# CPython 3.10.
_GUARD = r"""
import sys

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)

import ast, contextlib, io, json
from pathlib import Path

import qecopt
from qecopt import cli

for op in json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))["ops"]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(op["argv"])
sys.setprofile(None)
starts = {(code.co_filename, code.co_firstlineno) for code in entered}


def functions(body, prefix):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield prefix + node.name, first
            yield from functions(node.body, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from functions(node.body, f"{prefix}{node.name}.")


never = []
for path in sorted(Path(qecopt.__file__).parent.glob("*.py")):
    module = "qecopt" if path.stem == "__init__" else f"qecopt.{path.stem}"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    never += [f"{module}.{name}" for name, first in functions(tree.body, "")
              if (str(path), first) not in starts]
print(json.dumps(never))
"""


def fingerprint() -> dict:
    """The numpy version and a digest of fixed float64 results."""
    mid = np.linspace(-20.0, 20.0, 97)
    pos = np.geomspace(1e-12, 1e12, 97)
    pos_list, mid_list = pos.tolist(), mid.tolist()
    results = [
        np.cosh(mid), np.arcsinh(mid), np.exp(mid), np.expm1(mid), np.cos(mid),
        np.exp2(mid), np.log(pos), np.log10(pos), np.sqrt(pos), pos ** 0.37,
        np.linalg.lstsq(np.column_stack([np.ones(97), mid]), np.log(pos), rcond=None)[0],
        [math.log(x) for x in pos_list], [math.log10(x) for x in pos_list],
        [math.sqrt(x) for x in pos_list], [x ** 0.37 for x in pos_list],
        [math.exp(x) for x in mid_list], [math.expm1(x) for x in mid_list],
        [math.sin(x) for x in mid_list], [math.cos(x) for x in mid_list],
    ]
    digest = hashlib.sha256()
    for result in results:
        digest.update(np.asarray(result, dtype=float).tobytes())
    return {"numpy": np.__version__, "float_sha256": digest.hexdigest()}


def run(argv: list[str]) -> tuple[int, str, str]:
    """cli.main's exit code, stdout and stderr for argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def replay(argv: list[str]) -> dict:
    """What cli.main gives for argv: exit code, stderr and stdout's sha256."""
    code, out, err = run(argv)
    return {"exit": code, "stderr": err,
            "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}


def load() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def dump(corpus: dict) -> None:
    """The corpus, one op a line, so a diff names the ops that moved."""
    ops = ",\n".join("  " + json.dumps(op) for op in corpus["ops"])
    CORPUS.write_text(f'{{"fingerprint": {json.dumps(corpus["fingerprint"])},\n'
                      f'"ops": [\n{ops}\n]}}\n', encoding="utf-8")


def test_corpus_replays_byte_for_byte():
    corpus, here = load(), fingerprint()
    same_platform = corpus["fingerprint"] == here
    faults, moved = [], []
    for number, op in enumerate(corpus["ops"]):
        got = replay(op["argv"])
        line = f"op {number}: qecopt {' '.join(op['argv'])}"
        if (got["exit"], got["stderr"]) != (op["exit"], op["stderr"]):
            faults.append(f"{line}\n  exit {op['exit']} -> {got['exit']}, "
                          f"stderr {op['stderr']!r} -> {got['stderr']!r}")
        elif got["stdout_sha256"] != op["stdout_sha256"]:
            (faults if same_platform else moved).append(f"{line}\n  stdout differs")
    if moved:
        print(f"{len(moved)} of {len(corpus['ops'])} stdout digests differ; not failed, "
              f"since this platform's float fingerprint {here} differs from "
              f"the recorded {corpus['fingerprint']}:\n" + "\n".join(moved))
    assert not faults, f"{len(faults)} ops differ from the corpus:\n" + "\n".join(faults)


def test_every_json_report_reproduces_itself_through_config(tmp_path):
    path, fed, faults = tmp_path / "report.json", 0, []
    for number, op in enumerate(load()["ops"]):
        code, out, _ = run(op["argv"])
        if code != 0 or not out.startswith("{"):
            continue
        path.write_text(out, encoding="utf-8")
        fed += 1
        if run([op["argv"][0], "--config", str(path)]) != (0, out, ""):
            faults.append(f"op {number}: qecopt {' '.join(op['argv'])}")
    assert fed > 600  # every command's JSON reports, at each of their paths
    assert not faults, f"{len(faults)} reports differ when fed back:\n" + "\n".join(faults)


def test_the_corpus_enters_every_function_but_the_listed():
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-W", "error", "-c", _GUARD, str(CORPUS)],
                         capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    assert set(json.loads(run.stdout)) == set(NOT_REACHED)


def regenerate(numbers: list[int]) -> None:
    """Re-record the ops numbered numbers, or every op and the fingerprint."""
    corpus = load()
    if not numbers:
        corpus["fingerprint"] = fingerprint()
        numbers = list(range(len(corpus["ops"])))
    elif corpus["fingerprint"] != fingerprint():
        raise SystemExit("this platform's fingerprint differs from the corpus's: "
                         "re-record every op, or none")
    warnings.simplefilter("error")  # as the test suite runs
    for number in numbers:
        op = corpus["ops"][number]
        corpus["ops"][number] = {"argv": op["argv"], **replay(op["argv"])}
    dump(corpus)


if __name__ == "__main__":
    regenerate([int(arg) for arg in sys.argv[1:]])
