"""Resonance trajectory under a coupling sweep, via the batch front end.

Sweeps the coupling constant of the single-level model from zero up past
the admissibility threshold. The resonance starts as the embedded real
level, moves into the upper half plane, and the final grid point is refused
by the certificate. Prints the same CSV the command-line tool produces.

Run:  python3 demos/parameter_sweep.py
"""

import json
import math
import os
import tempfile

import resonances as rs
from resonances.cli import EXIT_CODES, load_config, run_sweep, sweep_csv

model = rs.friedrichs_model(1.0, beta_sq=3.0 / (16.0 * math.pi))
grid = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30]

with tempfile.TemporaryDirectory() as tmp:
    model_path = os.path.join(tmp, "model.json")
    with open(model_path, "w") as fh:
        fh.write(rs.model_dumps(model))
    config_path = os.path.join(tmp, "sweep.json")
    with open(config_path, "w") as fh:
        json.dump({
            "command": "sweep",
            "model_path": model_path,
            "contour": {"shape": "semicircle", "l": [1],
                        "panels": 6, "points": 16},
            "sweep": {"parameter": "beta", "grid": grid},
        }, fh)
    config = load_config(config_path)
    artifact = run_sweep(config)
    csv_text = sweep_csv(artifact["rows"])

print("exit code:", EXIT_CODES[artifact["status"]])
print(csv_text)
print(f"admissibility threshold for beta is "
      f"{math.sqrt(1.0 / (4.0 * math.pi)):.6f}; the last grid point "
      "exceeds it and is reported as inadmissible.")
