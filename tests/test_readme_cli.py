"""README's CLI synopsis names exactly the options the parser defines, and
every module attribute README names exists."""

import argparse
import importlib
import pkgutil
import re
from pathlib import Path

import combcert
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


def _readme_module_names():
    """The backticked dotted names in README whose first part is `combcert`
    or one of its modules, such as `lp.solve` or `combcert._kernels`."""
    modules = {m.name for m in pkgutil.iter_modules(combcert.__path__)} | {"combcert"}
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README.read_text()))
    return sorted(name for name in names if name.split(".")[0] in modules)


def _resolves(name):
    module, *attributes = name.removeprefix("combcert.").split(".")
    try:
        target = importlib.import_module(f"combcert.{module}")
    except ModuleNotFoundError:
        return False
    for attribute in attributes:
        if not hasattr(target, attribute):
            return False
        target = getattr(target, attribute)
    return True


def test_readme_module_names_resolve():
    names = _readme_module_names()
    assert {"lp.solve", "combcert._kernels", "cli.MAX_SEARCH_SIZE"} <= set(names)
    assert [name for name in names if not _resolves(name)] == []
    assert not _resolves("lp._Relaxation") and not _resolves("combcert.nothing")
