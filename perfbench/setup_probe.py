"""Set-up cost of one fresh interpreter, up to the first time sample.

Imports nltomo, then for each config file resolves the config and builds the
initial state, its truncation check and its quadrature window, as
`nltomo run` does before its first sample. `run.py` times the whole
process from outside; the JSON line it prints splits that time in two.

    PYTHONPATH=src python3 perfbench/setup_probe.py <cfg>...
"""

import json
import sys
import time

start = time.perf_counter()
import nltomo  # noqa: E402
from nltomo.states import tail_mass  # noqa: E402
from nltomo.tomography import suggested_grid  # noqa: E402

imported = time.perf_counter()
for path in sys.argv[1:]:
    cfg = nltomo.config_from_file(path)
    psi = cfg.initial_state.build(cfg.dim)
    tail_mass(psi, max(0, cfg.dim - 5))
    rho0 = nltomo.density_from_pure(psi)
    suggested_grid(nltomo.ladder_expectations(rho0).n, (0.0,))
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "configs_s": done - imported}))
