import pytest

import srsdkit
import srsdkit.expr


@pytest.mark.parametrize("module", [srsdkit, srsdkit.expr], ids=lambda m: m.__name__)
def test_every_public_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
