"""The package's public surface."""

import qivcnet


def test_every_exported_name_resolves():
    missing = [name for name in qivcnet.__all__ if not hasattr(qivcnet, name)]
    assert missing == []
    assert len(set(qivcnet.__all__)) == len(qivcnet.__all__)
