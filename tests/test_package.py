import ctc_crf


def test_every_exported_name_exists():
    # a stale entry in __all__ would break `from ctc_crf import *`
    assert [name for name in ctc_crf.__all__
            if not hasattr(ctc_crf, name)] == []
    namespace = {}
    exec("from ctc_crf import *", namespace)
    assert set(ctc_crf.__all__) <= namespace.keys()
