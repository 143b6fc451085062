import sys

import pytest

from relayrates import rates


@pytest.fixture
def draw_calls(monkeypatch):
    """Count ``rates.exp_draws`` through every binding the package holds.

    Returns the list of ``(args, result)`` pairs, one per call, so a test
    can check both how often the streams were drawn and what was handed out.
    """
    original = rates.exp_draws
    calls = []

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args + tuple(sorted(kwargs.items())), result))
        return result

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "relayrates" or name.startswith("relayrates.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls
