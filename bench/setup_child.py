"""Fresh-interpreter set-up: import algmech, load a config, build its scenario.

Usage: python3 setup_child.py CONFIG.json   (algmech importable on sys.path)
Prints one JSON line with the seconds spent in each phase.
"""

import json
import sys
import time

t0 = time.perf_counter()
import algmech  # noqa: E402
from algmech.config import build_scenario, load_config  # noqa: E402

t1 = time.perf_counter()
cfg = load_config(sys.argv[1])
t2 = time.perf_counter()
bundle, _ = build_scenario(cfg.scenario)
t3 = time.perf_counter()
bundle.prolongation()
t4 = time.perf_counter()
print(json.dumps({
    "version": algmech.__version__,
    "import_s": t1 - t0,
    "load_config_s": t2 - t1,
    "build_scenario_s": t3 - t2,
    "prolongation_s": t4 - t3,
}))
