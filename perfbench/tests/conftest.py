"""Make the benchmark's modules and the package under test importable,
with the planner pinned to its built-in constants."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

os.environ["REPRO_SDH_CALIBRATION"] = os.path.join(
    BENCH, "no-calibration.json"
)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
