import sys
from pathlib import Path

from hypothesis import HealthCheck, Phase, settings

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
