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
    # the quickstart must keep to the public names that still exist
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
