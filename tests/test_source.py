"""Checks on the package's sources: its process-wide memos are all found
by the discovery the memo fixture uses, and all bounded, no module is
long enough to cross the CPython parser's token step, and none imports
SciPy, which only the tests depend on."""

import ast
import tokenize
from pathlib import Path

import qvar
from memos import declared_memos, process_memos

# CPython's parser allocates 4,096 more token structs once a module passes
# 4,096 tokens, which lifts compile()'s traced peak by about 250 KB; every
# fresh interpreter that compiles the package from source pays it, so the
# benchmark's peak_rss_mb does (CHANGES.md line 70)
PARSER_TOKEN_STEP = 4096


def test_discovery_finds_every_declared_memo():
    # a cache the discovery missed would outlive the test that filled it
    assert set(process_memos()) == declared_memos()


def test_every_memo_is_bounded():
    unbounded = [name for name, memo in process_memos().items()
                 if memo.cache_parameters()["maxsize"] is None]
    assert unbounded == []


def parser_tokens(path: Path) -> int:
    """The tokens the parser reads: ``tokenize``'s, less comments,
    non-logical newlines and the encoding marker."""
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with path.open("rb") as fh:
        return sum(token.type not in skipped
                   for token in tokenize.tokenize(fh.readline))


def test_no_module_passes_the_parser_token_step():
    counts = {path.name: parser_tokens(path)
              for path in Path(qvar.__file__).parent.glob("*.py")}
    assert {name: count for name, count in counts.items()
            if count > PARSER_TOKEN_STEP} == {}, counts


def imported_modules(path: Path) -> set[str]:
    """Every module an ``import`` statement of the file names, at any depth,
    a function's lazy import included; relative imports, the package's own,
    are skipped."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_no_module_imports_scipy():
    found = {path.name: sorted(name for name in imported_modules(path)
                               if name.split(".")[0] == "scipy")
             for path in Path(qvar.__file__).parent.glob("*.py")}
    assert {name: mods for name, mods in found.items() if mods} == {}
