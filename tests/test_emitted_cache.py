"""Compiled emitted code kept across processes beside the package's bytecode:
reused only where it is what ``compile`` would return, written only where
Python would write bytecode, and never past 256 entries."""

import builtins
import marshal
import os
import subprocess
import sys
from importlib.util import MAGIC_NUMBER
from pathlib import Path

import pytest

from trapcorr import expr
from trapcorr.cli import main

SOURCE = "def bind(c):\n    def f(x):\n        return c * x + 0.5\n    return f\n"
NAME = "<trapcorr.expr emitted>"
SRC = Path(__file__).parents[1] / "src"
#: the builtin, which the tests below count calls of
COMPILE = builtins.compile


@pytest.fixture
def compiled(tmp_path, monkeypatch):
    """The filenames ``compile`` is called with, where an empty, writable cache is kept."""
    calls = []

    def counting_compile(source, filename, *args, **kwargs):
        calls.append(filename)
        return COMPILE(source, filename, *args, **kwargs)
    monkeypatch.setattr(builtins, "compile", counting_compile)
    monkeypatch.setattr(expr, "_CACHE", str(tmp_path))
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    return calls


def _entries(directory) -> dict:
    """name: (inode, mtime) of each cache entry under ``directory``, at any depth."""
    return {path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
            for path in Path(directory).rglob("emitted-*")}


def test_a_hit_is_what_compile_returns(tmp_path, compiled):
    first = expr._compiled(SOURCE, NAME)
    [entry] = _entries(tmp_path)
    assert entry.startswith("emitted-") and entry.endswith("." + sys.implementation.cache_tag)
    again = expr._compiled(SOURCE, NAME)
    assert compiled == [NAME]
    assert again == first == COMPILE(SOURCE, NAME, "exec")
    assert again.co_filename == NAME
    namespace = {}
    exec(again, namespace)
    assert namespace["bind"](3.0)(0.25) == 1.25


def _rewrite(path: Path, stored: tuple) -> None:
    path.write_bytes(marshal.dumps(stored))


@pytest.mark.parametrize("tamper", [
    lambda path: _rewrite(path, (MAGIC_NUMBER, NAME, SOURCE.replace("0.5", "1.5"),
                                 COMPILE(SOURCE.replace("0.5", "1.5"), NAME, "exec"))),
    lambda path: _rewrite(path, (MAGIC_NUMBER, "<trapcorr.rk emitted>", SOURCE,
                                 COMPILE(SOURCE, "<trapcorr.rk emitted>", "exec"))),
    lambda path: _rewrite(path, (b"\x00\x00\r\n", NAME, SOURCE, COMPILE(SOURCE, NAME, "exec"))),
    lambda path: path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2]),
    lambda path: path.write_bytes(b"\xff not marshal data"),
    lambda path: path.write_bytes(b""),
    lambda path: _rewrite(path, (MAGIC_NUMBER, NAME, SOURCE)),
    lambda path: _rewrite(path, 42),
], ids=["other-source", "other-filename", "foreign-magic", "truncated", "garbage", "empty",
        "three-fields", "not-a-tuple"])
def test_an_entry_that_does_not_match_is_compiled_past(tmp_path, compiled, tamper):
    expr._compiled(SOURCE, NAME)
    [path] = tmp_path.iterdir()
    tamper(path)
    code = expr._compiled(SOURCE, NAME)
    assert compiled == [NAME, NAME]
    assert code == COMPILE(SOURCE, NAME, "exec") and code.co_filename == NAME
    assert expr._compiled(SOURCE, NAME) == code and len(compiled) == 2  # rewritten on the miss


def test_nothing_is_written_where_bytecode_would_not_be(tmp_path, compiled, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    assert expr._compiled(SOURCE, NAME) == COMPILE(SOURCE, NAME, "exec")
    assert list(tmp_path.iterdir()) == []
    # unwritable whoever runs the test: the cache's parent is a file
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(expr, "_CACHE", str(tmp_path / "file" / "__pycache__"))
    assert expr._compiled(SOURCE, NAME) == COMPILE(SOURCE, NAME, "exec")
    assert [path.name for path in tmp_path.iterdir()] == ["file"]


def test_a_failed_write_leaves_nothing_behind(tmp_path, compiled, monkeypatch):
    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(os, "replace", failing_replace)
    assert expr._compiled(SOURCE, NAME) == COMPILE(SOURCE, NAME, "exec")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("others, written", [(255, True), (256, False)])
def test_the_cache_keeps_at_most_256_entries(tmp_path, compiled, others, written):
    for i in range(others):
        (tmp_path / f"emitted-{i}").write_bytes(b"")
    (tmp_path / f"expr.{sys.implementation.cache_tag}.pyc").write_bytes(b"")  # no entry
    expr._compiled(SOURCE, NAME)
    assert len(_entries(tmp_path)) == others + written


def test_two_cli_processes_share_the_cache_and_write_the_same_csv(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(tmp_path / "cache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = ["integrate", "--f", "exp(x/7)*cos(2*x)", "--a", "0", "--b", "2", "--x0", "1",
            "--h", "0.05", "--residual", "--out"]
    assert main([*argv, str(tmp_path / "in-process.csv")]) == 0
    csvs, entries = [(tmp_path / "in-process.csv").read_bytes()], []
    for run in ("first", "second"):
        out = tmp_path / f"{run}.csv"
        proc = subprocess.run([sys.executable, "-m", "trapcorr.cli", *argv, str(out)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        csvs.append(out.read_bytes())
        entries.append(_entries(tmp_path / "cache"))
    assert csvs[0] == csvs[1] == csvs[2] and csvs[0].count(b"\n") == 42
    assert len(entries[0]) == 2  # the integrand's evaluators and its stage and step
    assert entries[1] == entries[0]
