"""README's CLI synopsis names exactly the options the parser defines."""

import argparse
import re
from pathlib import Path

from combcert.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _synopsis():
    """{subcommand: long options} from the code block under "## CLI"."""
    text = README.read_text()
    section = text[text.index("\n## CLI\n") :]
    block = section[section.index("```\n") + 4 :]
    block = block[: block.index("```")]
    lines = [line.split() for line in block.splitlines() if line.strip()]
    assert all(words[0] == "combcert" for words in lines)
    return {
        words[1]: set(re.findall(r"--[a-z][a-z-]*", " ".join(words[2:])))
        for words in lines
    }, section


def _parser_options():
    parser = build_parser()
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: {s for a in sub._actions for s in a.option_strings if s.startswith("--")}
        for name, sub in subparsers.choices.items()
    }


def test_readme_cli_synopsis_matches_the_parser():
    synopsis, section = _synopsis()
    defined = _parser_options()
    assert synopsis.keys() == defined.keys()
    # `--format` is stated once for every command, below the block.
    assert "All commands accept `--format json|text`." in section
    for name, options in defined.items():
        assert "--format" in options
        assert synopsis[name] == options - {"--help", "--format"}, name
