"""The README's examples run as written: every line of the "Command line"
block exits 0, and the "A small session" block prints what it says."""

import contextlib
import glob
import io
import re
import shlex
from pathlib import Path

from coarsedim.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced block of the language under the `## heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    assert len(lines) == 7
    for line in lines:
        words = shlex.split(line, comments=True)
        assert words[0] == "coarsedim"
        argv = [arg for word in words[1:]
                for arg in (sorted(glob.glob(word)) if "*" in word else [word])]
        code = main(argv)
        assert code == 0, (line, capsys.readouterr().err)


def test_small_session_prints_what_it_says():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("A small session", "python"), {})
    assert out.getvalue() == "0\n0 8 inf True\n"
