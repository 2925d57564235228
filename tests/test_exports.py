import ast
import pathlib
import re

import simplexcenters


def test_star_import_exports_each_name_once():
    # a name left in __all__ after its definition is gone breaks the star import
    namespace = {}
    exec("from simplexcenters import *", namespace)
    names = simplexcenters.__all__
    assert len(names) == len(set(names))
    assert set(names) <= namespace.keys()


def test_readme_python_blocks_run(capsys):
    # the quickstart must keep to the public names that still exist, and
    # each top-level ``print(...)  # <expected>`` line must print its comment
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert blocks
    checked = 0
    for block in blocks:
        namespace, pending = {}, []
        for line in block.splitlines(keepends=True):
            printed = re.fullmatch(r"(print\(.*\))\s+# (.+)", line.rstrip("\n"))
            if printed is None:
                pending.append(line)
                continue
            exec(compile("".join(pending), "README.md", "exec"), namespace)
            pending = []
            capsys.readouterr()
            exec(compile(printed[1], "README.md", "exec"), namespace)
            assert capsys.readouterr().out.split() == printed[2].split(), line
            checked += 1
        exec(compile("".join(pending), "README.md", "exec"), namespace)
    assert checked


def test_every_exported_error_has_a_raise_site():
    # an exception class that the library never raises is dead API, and so
    # is one that it defines but does not export
    package = pathlib.Path(simplexcenters.__file__).parent
    raised = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    errors = {name for name in simplexcenters.__all__
              if isinstance(obj := getattr(simplexcenters, name), type)
              and issubclass(obj, simplexcenters.SimplexError)
              and obj is not simplexcenters.SimplexError}
    assert errors and errors <= raised, errors - raised
    defined = {name for name, obj in vars(simplexcenters.errors).items()
               if isinstance(obj, type) and obj.__module__ == simplexcenters.errors.__name__
               and issubclass(obj, simplexcenters.SimplexError)
               and obj is not simplexcenters.SimplexError}
    assert defined <= errors, defined - errors
