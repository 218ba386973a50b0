"""Byte-for-byte pin of the CLI: a fixed list of commands, run in-process.

Each command runs in one temporary directory with relative paths, in order
(a `check` reads what an earlier `construct` wrote).  Its exit code and the
SHA-256 of its stdout, its stderr and the file it names with -o are
compared with `cli_corpus.json`.  On a mismatch the test prints the table
of the current code; a deliberate change of output replaces the committed
table with it.

The check needs only the standard library, so it also runs without pytest,
on any supported interpreter, and exits 1 on a mismatch:

    PYTHONPATH=src python3 tests/test_cli_corpus.py
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

from supersmooth.cli import main

_TABLE = Path(__file__).with_name("cli_corpus.json")

_PAIR = '{"dx": "1", "dy": "0"}, {"dx": "-1", "dy": "0"}'
_EMPTY_PIECES = '"pieces": [{"monomials": {}}, {"monomials": {}}]'
# One document per shape error that `check` reports with exit 1.
_SHAPE_ERRORS = [
    '{"rays": {}, "pieces": []}',
    '{"rays": [{"dx": "1", "dy": "0"}], "pieces": [{"monomials": {}}]}',
    '{"rays": [' + _PAIR + '], "pieces": [{"monomials": {}}, {"monomials": []}]}',
    '{"rays": [' + _PAIR + '], "pieces": [{"monomials": {}}, {"monomials": {"0,2": "1", "00,2": "1"}}]}',
    '{"rays": [' + _PAIR + '], "pieces": [{"monomials": {}}, {"monomials": {"0,2": "1", "0,2": "5"}}]}',
    '{"rays": [{"dx": "1", "dy": "0", "dx": "0"}, {"dx": "-1", "dy": "0"}], ' + _EMPTY_PIECES + '}',
    '{"rays": [{"dx": "0", "dy": "0"}, {"dx": "-1", "dy": "0"}], ' + _EMPTY_PIECES + '}',
    '{"rays": [' + _PAIR + '], ' + _EMPTY_PIECES + ', "construction": null}',
    '{"rays": [' + _PAIR + '], ' + _EMPTY_PIECES + ', "extra": 1}',
    '{"rays": [' + _PAIR + '], "pieces": [{"monomials": {}}]}',
    '{"rays": [{"dx": "1", "dy": "0"}, {"dx": "0", "dy": "1"}, {"dx": "0", "dy": "-1"}], '
    '"pieces": [{"monomials": {}}, {"monomials": {}}, {"monomials": {}}]}',
    '{"rays": [' + _PAIR + '], "pieces": [{"monomials": {}}, {"monomials": {"0,2": "1/0"}}]}',
    '{"rays": [' + _PAIR + '], "pieces": [{"monomials": {}}, {"monomials": {"0,2": 1}}]}',
    '{"rays": [' + _PAIR + '], "pieces": [{"monomials": {}}, {"monomials": {"0,x": "1"}}]}',
    '{"rays": [' + _PAIR + '], ' + _EMPTY_PIECES + ', "construction": {"n": 0, "slopes": [], "coeffs": []}}',
    '{"rays": [',
    "[]",
]


def _slopes(n: int, kind: str) -> str:
    if kind == "int":
        return ",".join(str(k) for k in range(1, n + 2))
    return ",".join(f"{(-1) ** (k + 1) * (k + 1)}/{k + 2}" for k in range(n + 1))


def _commands() -> list[list[str]]:
    commands = []
    for kind in ("int", "pq"):
        for n in range(1, 17):
            name = f"{kind}{n}"
            commands.append(["construct", "--n", str(n), f"--slopes={_slopes(n, kind)}", "-o", f"{name}.json"])
            commands.append(["check", f"{name}.json"])
            sample = ["sample", f"{name}.json", "--grid-n", "17"]
            commands.append(sample if kind == "int" else [*sample, "-o", f"{name}.csv"])
    commands += [["construct", "--n", "3", "--slopes", "1/2,2,-3,5"], ["construct", "--n", "0", "--slopes", "1"]]
    for name in ("farin", "halfplane", "counterexample", "twopiece",
                 "corner-quadratic", "smooth-parabola", "halfplane-n1", "lemma-xy"):
        commands.append(["demo", name])
    commands += [
        ["demo", "farin", "--seed", "7"],
        ["demo", "halfplane", "--n", "3"],
        ["demo", "counterexample", "--n", "3"],
        ["demo", "counterexample", "--slopes=-1,1/2,3"],
        ["demo", "counterexample", "--n", "2", "--slopes=-1,1/2,3"],
        ["demo", "twopiece", "--n", "2"],
        ["dim", "--degree", "2", "--smoothness", "1", "--slopes", "1,2,3"],
        ["dim", "--degree", "5", "--smoothness", "2", "--slopes=-1,1/2,2,3,-5/7"],
        ["dim", "--degree", "8", "--smoothness", "3", "--slopes", "1,2,3,4,5,6,7,8"],
        ["dim", "--degree", "33", "--smoothness", "1", "--slopes", "1"],
        ["sample", "int2.json", "--grid-n", "1"],
        ["sample", "int2.json", "--grid-n", "5", "--radius", "1e308", "-o", "overflow.csv"],
        ["check", "missing.json"],
        ["check"],
    ]
    commands += [["check", f"shape{k}.json"] for k in range(len(_SHAPE_ERRORS))]
    return commands


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest() if data else ""


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    row = {"exit": code, "stdout": _digest(out.getvalue().encode()), "stderr": _digest(err.getvalue().encode())}
    if "-o" in argv:
        written = Path(argv[argv.index("-o") + 1])
        row["file"] = _digest(written.read_bytes()) if written.exists() else None
    return row


def corpus_mismatches(directory: Path) -> list[str]:
    """Run every command in `directory` and return those whose row differs
    from the committed table, printing the current table if any does."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        for k, document in enumerate(_SHAPE_ERRORS):
            Path(f"shape{k}.json").write_text(document, encoding="utf-8")
        table = {shlex.join(argv): _run(argv) for argv in _commands()}
    finally:
        os.chdir(previous)
    expected = json.loads(_TABLE.read_text(encoding="utf-8"))
    changed = sorted(command for command in table.keys() | expected.keys() if table.get(command) != expected.get(command))
    if changed:
        print(json.dumps(table, indent=1))
    return changed


def _failure(changed: list[str]) -> str:
    return f"{len(changed)} command(s) differ from {_TABLE.name}, e.g. {changed[:3]}; the current table is on stdout"


def test_cli_output_matches_the_committed_table(tmp_path):
    changed = corpus_mismatches(tmp_path)
    assert not changed, _failure(changed)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        mismatches = corpus_mismatches(Path(scratch))
    if mismatches:
        sys.exit(_failure(mismatches))
    print(f"all {len(_commands())} commands match {_TABLE.name}")
