"""The README's examples run as shown: every ``$ trapcorr`` line of its fenced blocks through
``cli.main``, and its library example, each in a working directory of its own."""

import re
import shlex
from pathlib import Path

import pytest

from trapcorr.cli import main
from trapcorr.pipeline import CSV_HEADER

README = Path(__file__).parent.parent / "README.md"

#: a fenced block: its language tag and its text
_FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)


def _blocks(language: str) -> list[str]:
    return [text for tag, text in _FENCE.findall(README.read_text(encoding="utf-8"))
            if tag == language]


def _examples() -> list[tuple[list[str], int, str, list[str]]]:
    """(argv, exit code, stderr, first stdout lines) of each ``$ trapcorr`` line.  The lines
    shown after it are its stderr where they start ``trapcorr: ``, and otherwise the first
    lines of its stdout; a ``$ echo $?`` line is followed by its exit code, else it is 0."""
    examples = []
    for block in _blocks(""):
        if not block.startswith("$ "):  # a formula, not a session
            continue
        lines = iter(block.splitlines())
        for line in lines:
            if line.startswith("$ trapcorr "):
                examples.append((shlex.split(line)[2:], 0, [], []))
            elif line == "$ echo $?":
                argv, _, err, out = examples.pop()
                examples.append((argv, int(next(lines)), err, out))
            elif not line.startswith("$ "):
                examples[-1][2 if line.startswith("trapcorr: ") else 3].append(line)
            else:
                raise AssertionError(f"README line not run by this test: {line!r}")
    return [(argv, code, "".join(e + "\n" for e in err), out) for argv, code, err, out in examples]


EXAMPLES = _examples()


@pytest.mark.parametrize("argv,code,err,out", EXAMPLES, ids=[" ".join(e[0]) for e in EXAMPLES])
def test_command_line_example(argv, code, err, out, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert captured.out.splitlines()[:len(out)] == out


def test_the_examples_show_a_failure_with_its_exit_code():
    # the singular x^2 run, whose diagnostic names the shift that clears it
    assert any(code == 3 and "rerun with --shift-D 1" in err for _, code, err, _ in EXAMPLES)


def test_library_example(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (snippet,) = _blocks("python")
    exec(compile(snippet, str(README), "exec"), {})
    assert (tmp_path / "curve.csv").read_text().startswith(CSV_HEADER + "\n")
