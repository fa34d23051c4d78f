"""Put the source tree, the benchmark scripts and goldbench on
``sys.path``."""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

for path in (os.path.join(ROOT, "src"), os.path.join(BENCH, "goldbench"),
             BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
