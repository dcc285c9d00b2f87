"""The numbers ledger: every function id at D=50, seed 0 still gives the
digests, probe values and short-run result that tests/make_ledger.py
recorded, so a change that claims "no number changed" is checked here.

The `arrays` digest of a one-block id (F1-F3, F15) is RNG output under exact
arithmetic and matches everywhere. Every other id draws its block weights as
10 ** N(0, 1), and numpy's float64 power is SIMD-dispatched: with numpy's
AVX-512 loops switched off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR"), F9's and F13's weights move by one ulp. F14's shifts also pass
through a least-squares solve in LAPACK. So those digests, the rotation
digests, the probe values and the run are compared exactly only where the
environment fingerprint matches the ledger's. Elsewhere the probe values are
held to PROBE_RTOL, and the rest, where one last-bit difference can flip an
acceptance and change a run's whole trajectory, is skipped with the fields
that differ. A CI runner on another CPU or BLAS build takes that branch.
"""

import json

import numpy as np
import pytest

from lsgo_hybrid.benchmarks import FUNCTION_IDS
from make_ledger import LEDGER, fingerprint, final_best, instance, probe_values

RECORDED = json.loads(LEDGER.read_text(encoding="utf-8"))
ENTRIES = RECORDED["functions"]

# relative bound on a probe value in another environment, stated before it
# was measured: 100 times the fused map's tested 1e-13, for rotations from
# another LAPACK and maps from other SIMD kernels
PROBE_RTOL = 1e-11

_HERE = fingerprint()
DIFFERING = [key for key in sorted(set(_HERE) | set(RECORDED["fingerprint"]))
             if _HERE.get(key) != RECORDED["fingerprint"].get(key)]


def _skip_unless_recorded_environment(what):
    if DIFFERING:
        pytest.skip(f"{what} is compared only in the ledger's environment; "
                    f"here {', '.join(DIFFERING)} differ")


def test_the_ledger_covers_every_function_id():
    assert list(ENTRIES) == list(FUNCTION_IDS)
    assert (RECORDED["dimension"], RECORDED["seed"]) == (instance("F1").dimension, 0)


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_arrays_digest(fid):
    if len(instance(fid).subcomponents) > 1:
        _skip_unless_recorded_environment("the arrays digest of drawn block weights")
    assert instance(fid).digest()["arrays"] == ENTRIES[fid]["digest"]["arrays"]


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_rotations_digest(fid):
    _skip_unless_recorded_environment("the rotations digest")
    assert instance(fid).digest()["rotations"] == ENTRIES[fid]["digest"]["rotations"]


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_probe_values(fid):
    values = probe_values(instance(fid))
    if not DIFFERING:
        assert values == ENTRIES[fid]["probe"]
    else:
        np.testing.assert_allclose([float.fromhex(v) for v in values],
                                   [float.fromhex(v) for v in ENTRIES[fid]["probe"]],
                                   rtol=PROBE_RTOL, atol=0.0)


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_short_run_final_best(fid):
    _skip_unless_recorded_environment("a run's final best")
    assert final_best(instance(fid)) == ENTRIES[fid]["final_best"]
