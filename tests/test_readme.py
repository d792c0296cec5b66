"""The README's examples, run as written.

The Python block must print what its `# ...` comments say, and every
`$ leavitt ...` example that shows its output must print exactly those
bytes through `cli.main`.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from leavitt.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def _cli_examples():
    examples = []
    for lang, body in BLOCKS:
        lines = body.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("$ leavitt ") and i + 1 < len(lines) and lines[i + 1].strip():
                examples.append((shlex.split(line)[2:], lines[i + 1]))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_readme_has_the_examples():
    assert sum(1 for lang, _ in BLOCKS if lang == "python") == 1
    assert len(CLI_EXAMPLES) >= 5


def test_python_block_prints_its_comments():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    expected = [m.group(1) for m in re.finditer(r"^print\(.*#\s*(\S+)\s*$", code, flags=re.M)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().split() == expected


@pytest.mark.parametrize("argv, expected", CLI_EXAMPLES, ids=[" ".join(a) for a, _ in CLI_EXAMPLES])
def test_cli_example_output(argv, expected, capsys, monkeypatch):
    monkeypatch.delenv("LEAVITT_CHAR", raising=False)
    code = main(argv)
    out = capsys.readouterr().out
    assert out == expected + "\n"
    assert (code == 0) == ('"ok":true' in expected)
