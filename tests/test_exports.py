import simplexcenters


def test_star_import_exports_each_name_once():
    # a name left in __all__ after its definition is gone breaks the star import
    namespace = {}
    exec("from simplexcenters import *", namespace)
    names = simplexcenters.__all__
    assert len(names) == len(set(names))
    assert set(names) <= namespace.keys()
