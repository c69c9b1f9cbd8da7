"""Put the simulator sources and the benchmark modules on ``sys.path``."""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

for path in (SRC_DIR, BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
