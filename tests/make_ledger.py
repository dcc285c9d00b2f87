"""Write tests/data/ledger.json, the numbers ledger that tests/test_ledger.py
checks the code against.

For every function id at dimension 50 and seed 0 the ledger holds the
instance's two digests, the exact values (as float.hex) of `evaluate_batch`
on a fixed 16-row probe and `final_best` of a two-cycle run, together with
the environment they were computed in. Run it by hand from the repository
root:

    PYTHONPATH=src python tests/make_ledger.py

A change that rewrites the ledger has changed numbers on purpose and says so.
"""

import json
from pathlib import Path

import numpy as np

from lsgo_hybrid import HybridConfig, make_instance, run, scaled
from lsgo_hybrid.benchmarks import FUNCTION_IDS

LEDGER = Path(__file__).resolve().parent / "data" / "ledger.json"
DIMENSION = 50
SEED = 0
PROBE_ROWS = 16
RUN_CONFIG = scaled(HybridConfig(outer_iterations=2, checkpoints=(1, 2)), 0.01)


def fingerprint() -> dict:
    """What the exact bits depend on besides the code: numpy, the BLAS build
    and the SIMD features numpy dispatches to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "simd": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)],
    }


def instance(function_id):
    return make_instance(function_id, DIMENSION, SEED)


def probe(inst) -> np.ndarray:
    """Sixteen points drawn uniformly from the instance's box."""
    unit = np.random.default_rng(2019).uniform(-1.0, 1.0, size=(PROBE_ROWS, DIMENSION))
    return unit * inst.bounds[1]


def probe_values(inst) -> list[str]:
    return [float.hex(v) for v in inst.evaluate_batch(probe(inst))]


def final_best(inst) -> str:
    return float.hex(run(inst, RUN_CONFIG).final_best.fitness)


def entry(function_id) -> dict:
    inst = instance(function_id)
    return {"digest": inst.digest(), "probe": probe_values(inst),
            "final_best": final_best(inst)}


def main():
    ledger = {"dimension": DIMENSION, "seed": SEED, "fingerprint": fingerprint(),
              "functions": {fid: entry(fid) for fid in FUNCTION_IDS}}
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {LEDGER}")


if __name__ == "__main__":
    main()
