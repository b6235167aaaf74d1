"""README's examples run: every `irmcg` line of its sh blocks, and its Python block."""

import re
import shlex
from pathlib import Path

from irmcg.cli import EXIT_OK, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(r"^```%s\n(.*?)^```" % language, README, re.M | re.S)


def test_irmcg_lines_run_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [ln for block in _blocks("sh") for ln in block.splitlines()
             if ln.startswith("irmcg ")]
    assert len(lines) >= 10
    for line in lines:
        code = main(shlex.split(line, comments=True)[1:])
        assert code == EXIT_OK, (line, capsys.readouterr().err)


def test_python_block_runs():
    (block,) = _blocks("python")
    namespace = {}
    exec(block, namespace)
    assert namespace["report"].delta_steps >= 0
