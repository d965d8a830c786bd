import mpadmm


def test_every_exported_name_resolves():
    missing = [name for name in mpadmm.__all__ if not hasattr(mpadmm, name)]
    assert missing == []
    assert len(set(mpadmm.__all__)) == len(mpadmm.__all__)


def test_star_import():
    namespace = {}
    exec("from mpadmm import *", namespace)
    assert set(mpadmm.__all__) <= set(namespace)
