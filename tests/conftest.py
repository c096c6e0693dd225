import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, settings

from cuckoo_lab.matching import augment

sys.path.insert(0, str(Path(__file__).parent))

# The explain phase replays a shrunk failing example hundreds of times under
# a line tracer; on a 2-CPU machine it took 286 s of the 308 s that
# test_cuckoo.py's TableAgainstReference needed to report a table fault.
settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[p for p in Phase if p is not Phase.explain],
)
settings.load_profile("suite")


@pytest.fixture
def count_searches(monkeypatch):
    """``count_searches(module)`` swaps ``module.augment`` for a wrapper and
    returns the list of the choices of every search it runs from then on.
    Each call first asserts augment's precondition: every choice of the
    key is occupied."""

    def watch(module) -> list:
        calls = []

        def counting(bins, mark, choices, *rest):
            assert all(bins[b] is not None for b in choices), ("a free choice reached augment", choices)
            calls.append(choices)
            return augment(bins, mark, choices, *rest)

        monkeypatch.setattr(module, "augment", counting)
        return calls

    return watch
