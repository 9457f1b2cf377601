"""The simulate-long workload: a library call sequence at T = 10^6.

Usage: python simlong.py OUT_DIR SEED

Runs the sequence the acceptance suite uses: an OU panel from ``gen_ou``,
its TE and drift matrices from ``compute_matrix``, then a coupled binary
pair and its transfer entropy in both directions. Results are written to
``OUT_DIR/simlong.json`` with repr floats so their bytes can be hashed.

Every call goes through a module attribute at call time, so a tracer that
rebinds those attributes sees the calls.

This runs in-process instead of through ``infodrift simulate`` because the
CLI cannot emit this panel: ``simulate --kind ou_euler --steps 100000
--sigma 0.1`` exits 2 with ``line -1: non-positive price 0.0``, since
``exp(cumsum(x))`` underflows when the OU values are integrated into prices.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

import inputs


def run(out_dir: str, seed: int) -> None:
    from infodrift import infoflow, measures, synth

    panel = synth.gen_ou(np.array(inputs.OU_MATRIX), sigma=inputs.OU_SIGMA,
                         dt_sim=inputs.OU_DT_SIM, steps=inputs.OU_STEPS, seed=seed)
    te = measures.compute_matrix(panel, "te")
    km = measures.compute_matrix(panel, "km")
    x, y = synth.gen_coupled_binary(inputs.BINARY_EPS, inputs.BINARY_STEPS, seed=seed)
    doc = {
        "te": te.values.tolist(),
        "km": km.values.tolist(),
        "km_cond": km.params["cond"],
        "binary_te_xy": infoflow.transfer_entropy(x, y),
        "binary_te_yx": infoflow.transfer_entropy(y, x),
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "simlong.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    run(sys.argv[1], int(sys.argv[2]))
