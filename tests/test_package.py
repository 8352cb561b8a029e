"""The package namespace: ``driftpp.__all__`` is the modules' own lists."""
import ast
import re
from pathlib import Path

import driftpp
from driftpp import adaptive, core, data, knn, learnpp, metrics, pca
from driftpp.cli import _GENERATE_KEYS, _RUN_KEYS

MODULES = [adaptive, core, data, knn, learnpp, metrics, pca]
README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_the_module_lists_in_import_order():
    # cli and errors stay out of the package namespace
    expected = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert driftpp.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(driftpp, name) is getattr(module, name)
    assert isinstance(driftpp.__version__, str)


def test_readme_library_example_imports_exported_names():
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\s+```python\n(.*?)```", readme, re.S).group(1)
    imported = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "driftpp"
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name not in driftpp.__all__] == []


def test_readme_quickstart_configs_use_cli_keys():
    # the "Run keys:" list is checked in test_cli.py
    readme = README.read_text(encoding="utf-8")
    for name, keys in (("stream.cfg", _GENERATE_KEYS), ("run.cfg", _RUN_KEYS)):
        block = re.search(rf"cat > {re.escape(name)} <<'EOF'\n(.*?)\nEOF\n", readme, re.S).group(1)
        used = [line.partition("=")[0].strip() for line in block.splitlines()]
        assert used
        assert [key for key in used if key not in keys] == [], name
