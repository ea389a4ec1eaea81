import qmac


def test_all_resolves_through_star_import_without_duplicates():
    namespace: dict = {}
    exec("from qmac import *", namespace)
    assert [name for name in qmac.__all__ if name not in namespace] == []
    assert len(qmac.__all__) == len(set(qmac.__all__))
