import pubpriv


def test_every_exported_name_resolves():
    missing = [name for name in pubpriv.__all__ if not hasattr(pubpriv, name)]
    assert missing == []
