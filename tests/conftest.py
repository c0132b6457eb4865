"""Put the checkout root on sys.path, so tests can import the benchmark's
helpers as ``nlbench.common`` and ``nlbench.spans``."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
