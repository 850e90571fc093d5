import kgreason


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from kgreason import *", namespace)
    missing = [name for name in kgreason.__all__ if name not in namespace]
    assert missing == []
    assert len(set(kgreason.__all__)) == len(kgreason.__all__)
