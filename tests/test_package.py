import hal


def test_public_exports_resolve():
    # a name left in __all__ after its definition is deleted breaks
    # `from hal import *` for every user
    assert len(hal.__all__) == len(set(hal.__all__))
    missing = [name for name in hal.__all__ if not hasattr(hal, name)]
    assert missing == []
    namespace = {}
    exec("from hal import *", namespace)
    assert set(hal.__all__) <= set(namespace)
