"""The examples in README.md run as written."""

import doctest
import shlex
from pathlib import Path

from stirval import SUITES
from stirval.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0, f"{result.failed} README example(s) failed; see stdout"


def _cli_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, shown lines) for each `$ stirval ...` line of the README's CLI block."""
    block = README.read_text().split("## CLI\n", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            command, *argv = shlex.split(line[2:], comments=True)
            assert command == "stirval", line
            examples.append((argv, []))
        else:
            examples[-1][1].append(line)
    return examples


def test_readme_cli_examples_print_what_they_show(capsys):
    """Each command exits 0 and prints the lines shown; a `...` line ends the comparison."""
    examples = _cli_examples()
    assert examples
    for argv, shown in examples:
        code = main(argv)
        out = capsys.readouterr().out.splitlines()
        if "..." in shown:
            shown = shown[:shown.index("...")]
            out = out[:len(shown)]
        assert (code, out) == (0, shown), argv


def test_readme_lists_every_suite():
    """The "Verification suites:" list names exactly ``stirval.SUITES``, in order."""
    text = README.read_text().split("Verification suites:", 1)[1].split(". ", 1)[0]
    assert tuple(name.strip(" `\n") for name in text.split(",")) == SUITES
