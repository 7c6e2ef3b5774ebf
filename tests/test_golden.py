"""Golden sha256 values of the outputs that are bit-exact everywhere.

Generated datasets and the oracle's random instances are built from uint64
arithmetic, `math.*` and correctly rounded IEEE operations only, so their
bytes depend neither on numpy's SIMD kernels nor on the BLAS.  A change to
one of these digests is a change of output and must be recorded as one.
"""

import hashlib

import numpy as np
import pytest

from vpu import cli
from vpu import oracle as oc
from vpu.sampling import Rng

SIZES = ["--m", "40", "--n", "120", "--n_test", "60", "--seed", "3"]

# an odd dimension carries the Box-Muller cache from one row to the next
DATASETS = {
    "default": ([], "fa151d26d233cc713ef5ca2e4ca911ad03257c8d94b7d8de82ba602ac65b82b2"),
    "3d": (["--mixture", "+1 0.5 1,0,-1 1,2,1; -1 0.5 -1,0,1 1,1,0.5"],
           "e40446ad9fb2383f062b454651e414e86d5d687133f3daf08cee5d44e1304fab"),
}

ORACLE_DRAWS = "8c0fa81373c6d70df72096167e1204bc2ca426fcfafa42559ffb06b708c7a843"


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_generated_dataset(tmp_path, name):
    extra, digest = DATASETS[name]
    assert cli.main(["generate", "--out", str(tmp_path), *SIZES, *extra]) == 0
    assert hashlib.sha256((tmp_path / "dataset.csv").read_bytes()).hexdigest() == digest


def test_oracle_random_draws():
    # seeds 0-19, odd seeds with a planted anchor point
    h = hashlib.sha256()
    for seed in range(20):
        rng = Rng(seed)
        d = oc.random_instance(rng, anchor=seed % 2 == 1)
        phi = oc.random_phi(d.k, rng)
        for arr in (d.f, d.f_p, d.f_n, [d.pi_p], phi):
            h.update(np.asarray(arr, dtype="<f8").tobytes())
    assert h.hexdigest() == ORACLE_DRAWS
