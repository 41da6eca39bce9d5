"""Put ``perf/`` and ``src/`` on the path and pin the benchmark's settings."""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
if str(PERF) not in sys.path:
    sys.path.insert(0, str(PERF))

from benchkit.env import pin_environment  # noqa: E402

pin_environment()
