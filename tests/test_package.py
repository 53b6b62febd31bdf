import calderon


def test_every_export_resolves():
    missing = [name for name in calderon.__all__ if not hasattr(calderon, name)]
    assert missing == []
