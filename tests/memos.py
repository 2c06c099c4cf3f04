"""The package's process-wide memos, found instead of listed: the
``functools`` caches defined at the top level of every ``qvar`` module,
and the functions an AST scan of the package's sources finds under a
``functools`` cache decorator."""

import ast
import importlib
import pkgutil
from pathlib import Path

import qvar

CACHE_DECORATORS = {"functools.cache", "functools.lru_cache", "cache",
                    "lru_cache"}


def process_memos() -> dict:
    """Every ``functools`` cache a ``qvar`` module defines at its top level,
    by "module.name", each module imported first."""
    memos = {}
    for info in pkgutil.iter_modules(qvar.__path__):
        module = importlib.import_module(f"qvar.{info.name}")
        for name, value in vars(module).items():
            if (hasattr(value, "cache_clear")
                    and value.__module__ == module.__name__):
                memos[f"{info.name}.{name}"] = value
    return memos


def declared_memos() -> set:
    """"module.name" of every function, at any depth, of the package's
    sources under a ``functools.cache`` or ``functools.lru_cache``
    decorator, called or not."""
    names = set()
    for path in Path(qvar.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    ast.unparse(getattr(d, "func", d)) in CACHE_DECORATORS
                    for d in node.decorator_list):
                names.add(f"{path.stem}.{node.name}")
    return names
