#!/usr/bin/env python3
"""Count the independently settable values of the library, per module.

Three kinds of value are counted, from the source alone (``ast``, no import):

* the fields of the config dataclasses that ``cli._SECTIONS`` builds;
* the CLI-only keys of ``cli._SECTIONS``;
* the parameters with a default of every public function and public method
  (a name without a leading underscore, at module or class level).

It prints one row per module and the total; it compares nothing.

usage: scripts/settable_values.py [<checkout>]   (default: this checkout)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _sections(tree: ast.Module) -> ast.Dict:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_SECTIONS" for t in node.targets
        ):
            return node.value
    raise SystemExit("cli.py defines no _SECTIONS")


def _config_classes_and_cli_keys(cli_tree: ast.Module) -> tuple[set[str], int]:
    """The dataclass names ``_SECTIONS`` builds and its number of CLI-only keys."""
    classes, cli_keys = set(), 0
    for section in _sections(cli_tree).values:
        cls, keys = section.elts
        if isinstance(cls, ast.Attribute):
            classes.add(cls.attr)
        cli_keys += len(keys.keys)
    return classes, cli_keys


def _defaulted(fn: ast.FunctionDef) -> int:
    args = fn.args
    return len(args.defaults) + sum(default is not None for default in args.kw_defaults)


def count_module(tree: ast.Module, config_classes: set[str]) -> tuple[int, int]:
    """(config dataclass fields, defaulted parameters of public functions)."""
    fields = params = 0
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            params += _defaulted(node)
        if isinstance(node, ast.ClassDef):
            if node.name in config_classes:
                fields += sum(isinstance(item, ast.AnnAssign) for item in node.body)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    params += _defaulted(item)
    return fields, params


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    package = root / "src" / "session2rec"
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))}
    config_classes, cli_keys = _config_classes_and_cli_keys(trees["cli"])
    print(f"{'module':<12} {'fields':>6} {'cli_keys':>8} {'params':>6} {'total':>5}")
    total = 0
    for name, tree in trees.items():
        fields, params = count_module(tree, config_classes)
        keys = cli_keys if name == "cli" else 0
        total += fields + keys + params
        print(f"{name:<12} {fields:>6} {keys:>8} {params:>6} {fields + keys + params:>5}")
    print(f"{'total':<12} {'':>6} {'':>8} {'':>6} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
