"""Golden sha256 values of the outputs that are bit-exact everywhere.

Generated datasets, initial models and the oracle's random instances are
built from uint64 arithmetic, `math.*` and correctly rounded IEEE operations
only, so their bytes depend neither on numpy's SIMD kernels nor on the BLAS.
A change to one of these digests is a change of output and must be recorded
as one.
"""

import hashlib

import numpy as np
import pytest

from vpu import cli
from vpu import model as md
from vpu import oracle as oc
from vpu.sampling import Rng

SIZES = ["--m", "40", "--n", "120", "--n_test", "60", "--seed", "3"]

# an odd dimension carries the Box-Muller cache from one row to the next;
# the benchmark's 1e5 test rows reach pick outcomes that small pools rarely
# do; the bias mixture has four components with weights 1/6, 1/6, 1/6, 1/2
DATASETS = {
    "default": ([], "fa151d26d233cc713ef5ca2e4ca911ad03257c8d94b7d8de82ba602ac65b82b2"),
    "3d": (["--mixture", "+1 0.5 1,0,-1 1,2,1; -1 0.5 -1,0,1 1,1,0.5"],
           "e40446ad9fb2383f062b454651e414e86d5d687133f3daf08cee5d44e1304fab"),
    "bench": (["--m", "500", "--n", "2000", "--n_test", "100000", "--seed", "0"],
              "cc83c40e41d34948060e1ce79d105d18c5f584c6c611ddb198c3c7de1089b9b3"),
    "bias-mixture": (["--mixture", cli.BIAS_MIXTURE],
                     "5c5fedb04d3b2d5783d4d4acddd7ada318d26cddd7f94b7faeac3d97c1c013f5"),
    "no-test-rows": (["--n_test", "0"],
                     "897c31ce235ca04510596a9e5013c3c344b71d1c259b88658b32eed81e9394bd"),
}

INIT_MODEL = "878ebc8c3969d4335a25a493abb7ac8174f9e883ec32dfc76d2e2a68adeb59da"

ORACLE_DRAWS = "8c0fa81373c6d70df72096167e1204bc2ca426fcfafa42559ffb06b708c7a843"


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_generated_dataset(tmp_path, name):
    extra, digest = DATASETS[name]
    # later flags override SIZES
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


def test_initial_model(tmp_path):
    path = tmp_path / "model.txt"
    md.save_model(md.init(md.MlpArchitecture(2, (64, 64), "relu"), seed=0), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == INIT_MODEL
