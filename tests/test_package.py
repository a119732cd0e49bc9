"""The package namespace."""

import betabart


def test_every_exported_name_resolves():
    for name in betabart.__all__:
        assert hasattr(betabart, name), name
    assert "logit_link" in betabart.__all__
    namespace = {}
    exec("from betabart import *", namespace)
    assert namespace["logit_link"] is betabart.logit_link
