"""Golden sha256 values of the program's outputs.

Generated datasets, initial models and the oracle's random instances are
built from uint64 arithmetic, `math.*` and correctly rounded IEEE operations
only, so their bytes depend neither on numpy's SIMD kernels nor on the BLAS,
and their digests are asserted everywhere.  Trained outputs are asserted in
the environment they were recorded in (see `FINGERPRINT`).  A change to one
of these digests is a change of output and must be recorded as one.
"""

import hashlib

import numpy as np
import pytest

from vpu import blas, cli
from vpu import model as md
from vpu import oracle as oc
from vpu.sampling import Rng

from reference import one_instance, one_phi
from test_cli import BIAS_QUICK

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

ORACLE_DRAWS = "9460a69cc169d5c1b197139aeec8628a710b639bbafc730213e6cf9124a06f45"


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
        d = one_instance(rng, 32, seed % 2 == 1)
        phi = one_phi(d.k, rng)
        for arr in (d.f, d.f_p, d.f_n, [d.pi_p], phi):
            h.update(np.asarray(arr, dtype="<f8").tobytes())
    assert h.hexdigest() == ORACLE_DRAWS


def test_initial_model(tmp_path):
    path = tmp_path / "model.txt"
    md.save_model(md.init(md.MlpArchitecture(2, (64, 64), "relu"), seed=0), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == INIT_MODEL


# Trained outputs go through np.exp / np.log (numpy's SIMD kernels) and the
# BLAS, whose kernels depend on the CPU and the matrix shape: their digests
# are asserted only in the environment they were recorded in, and elsewhere
# two runs must still give the same bytes.
FINGERPRINT = ("2.4.6", "scipy-openblas 0.3.31.188.0",
               ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"))

TRAIN = ["--epochs", "3", "--batch_size", "40"]
TRAINED_FILES = ("model.txt", "history.csv", "metrics.csv")
TRAINED = {
    "default": [],
    "mse-mixup-pu-tanh": ["--reg", "mse_mixup_pu", "--activation", "tanh"],
    "vpu-l2-pupu": ["--objective", "vpu_l2", "--reg", "msle_mixup_pupu"],
    "large-margin": ["--reg", "large_margin"],
    "p-only": ["--reg", "msle_mixup_p_only"],
    "none": ["--reg", "none"],
    # at pi_p 0.5 the nnpu clamp never acts in these steps, and nnpu then
    # gives the same bytes as upu
    "nnpu": ["--objective", "nnpu", "--pi_p", "0.5"],
    "upu": ["--objective", "upu", "--pi_p", "0.5"],
}
TRAINED_DIGESTS = {  # model.txt, history.csv, metrics.csv
    "default": dict(zip(TRAINED_FILES, (
        "c910c3a16ff581343ae496c793b7f548dc2e62fa86a065737a48e49e2df2f147",
        "c61dd7dd0e9df301aafeca1fa72d0a00666304d8df86dfc2091a265b3f7e1f66",
        "323230ad5c3fc0765484d465b63cff7fc2e0f5153697870168cb6a26394f43b6",
    ))),
    "large-margin": dict(zip(TRAINED_FILES, (
        "c130a3b4ab46ed6af13183ead8b31a355c641759dadfc76fde1b0531f03df983",
        "c0759b9b12590088685efbd85de73c783e77c16d9cc581eca05b86202ca57dc3",
        "b79c0ef00648ba26a833a78881bf38ea7e2c879c354695bd527b28457eba42c0",
    ))),
    "mse-mixup-pu-tanh": dict(zip(TRAINED_FILES, (
        "7bfa4d78621bd8c417e4975749856e7ecead2ae66e4e54243ea51fa62628506b",
        "e8216ead492b4602c3fea1f3e4a7bd2c61368c021bae989e17fb372123632c9c",
        "e862f7be0bbb172ebbbc8972b8aea03fecf0fe72d4e8c0d43a1ce540b5213311",
    ))),
    "nnpu": dict(zip(TRAINED_FILES, (
        "98c7d4e350347fc0b8e400c4a7ad10490274e4d47c7ca593a44b9de57b60fdea",
        "aae8e768caeb8030330324a1a9be9d96af5985216ac0e1d41d0ef575c11e19e1",
        "2c826f99865ed6ec1e811b97ed6acf0d367b72281cc92151e199e4681069d21c",
    ))),
    "none": dict(zip(TRAINED_FILES, (
        "f891b13a21e8e4a016f9e5f2deec0729d77fd3616a385abbb2e16c01b29ba400",
        "0f18c1cbb15402ca0ac35430007e2fdeff5d725b46fccc0a028a861b732374bb",
        "b79c0ef00648ba26a833a78881bf38ea7e2c879c354695bd527b28457eba42c0",
    ))),
    "p-only": dict(zip(TRAINED_FILES, (
        "bcbd26c1f625ac7f049f3efc1c934b5cf0763572fdb45d2ace97eee552da24b5",
        "8b745f1c28afc32adda0ffc38be4449c6bd349482df4eb01cbc16c3a975943b9",
        "323230ad5c3fc0765484d465b63cff7fc2e0f5153697870168cb6a26394f43b6",
    ))),
    "upu": dict(zip(TRAINED_FILES, (
        "98c7d4e350347fc0b8e400c4a7ad10490274e4d47c7ca593a44b9de57b60fdea",
        "aae8e768caeb8030330324a1a9be9d96af5985216ac0e1d41d0ef575c11e19e1",
        "2c826f99865ed6ec1e811b97ed6acf0d367b72281cc92151e199e4681069d21c",
    ))),
    "vpu-l2-pupu": dict(zip(TRAINED_FILES, (
        "fe0c39fb3d9235522b513be85422b7036c34ea41d3fee5c78d1f1b9869a493b0",
        "219b24d3bcc4d6732baeb5674028d5edf3dc8179557e7a99d38d68e9b5ac7fff",
        "323230ad5c3fc0765484d465b63cff7fc2e0f5153697870168cb6a26394f43b6",
    ))),
}

SWEEP = ["--lambda_grid", "0.1,0.3"]
SWEEP_DIGEST = "241eec81ae6a06b94086e1a9925bdf0bf82393ecbfbee8c18c6a07d113977082"


def environment_fingerprint():
    """numpy version, BLAS name and version, and the SIMD features numpy
    dispatches to on this CPU; None where numpy cannot report them."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 only prints its configuration
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return (np.__version__, f"{blas.get('name')} {blas.get('version')}",
            tuple(config.get("SIMD Extensions", {}).get("found", ())))


@pytest.fixture(scope="module")
def pinned_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("pinned")
    assert cli.main(["generate", "--out", str(out), *SIZES]) == 0
    return out / "dataset.csv"


def _digests(command, argv, out, names):
    assert cli.main([command, "--out", str(out), *argv]) == 0
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


def _check(tmp_path, command, argv, names, recorded):
    got = _digests(command, argv, tmp_path / "a", names)
    if environment_fingerprint() == FINGERPRINT:
        assert got == recorded
    else:
        assert got == _digests(command, argv, tmp_path / "b", names)


def test_trained_outputs_at_two_blas_threads(tmp_path):
    # OpenBLAS splits a 500-row batch between two threads, with other last
    # bits than one thread gives; `train` runs on one thread whatever the
    # caller set
    calls = blas._openblas_threads()
    if calls is None:
        pytest.skip("no OpenBLAS whose thread count can be set")
    get, set_ = calls
    assert cli.main(["generate", "--out", str(tmp_path)]) == 0
    argv = ["--data", str(tmp_path / "dataset.csv"), "--epochs", "3", "--batch_size", "500"]
    with blas.one_blas_thread():
        one = _digests("train", argv, tmp_path / "one", TRAINED_FILES)
    before = get()
    set_(2)
    try:
        assert get() == 2
        two = _digests("train", argv, tmp_path / "two", TRAINED_FILES)
    finally:
        set_(before)
    assert two == one


@pytest.mark.parametrize("name", sorted(TRAINED))
def test_trained_outputs(tmp_path, pinned_dataset, name):
    argv = ["--data", str(pinned_dataset), *TRAIN, *TRAINED[name]]
    _check(tmp_path, "train", argv, TRAINED_FILES, TRAINED_DIGESTS[name])


def test_sweep_table(tmp_path, pinned_dataset):
    argv = ["--data", str(pinned_dataset), *TRAIN, *SWEEP]
    _check(tmp_path, "sweep", argv, ("sweep.csv",), {"sweep.csv": SWEEP_DIGEST})


@pytest.fixture(scope="module")
def pinned_model(tmp_path_factory, pinned_dataset):
    out = tmp_path_factory.mktemp("pinned-model")
    assert cli.main(["train", "--out", str(out), "--data", str(pinned_dataset),
                     *TRAIN]) == 0
    return out / "model.txt"


# the model is the "default" train run above; evaluated on the same test
# rows it gives the metrics.csv that train wrote
EVAL_DIGEST = "323230ad5c3fc0765484d465b63cff7fc2e0f5153697870168cb6a26394f43b6"
ORACLE_REPORT_DIGEST = "02313d53dc20190da89963a2389d4c0cc24c2343c402d52ce28ed17d51444bf6"
BIAS_DIGESTS = {
    "bias.csv": "7199051e69e7de88bed595b1f0241c2012040f1c9a584de635ef9729ac3870e6",
    "bias_bounds.csv": "6dc365086aa90a6efc2d8ebaf1b4f84a77d0e49fa234d63e3c31690addf78c74",
}


def test_eval_metrics(tmp_path, pinned_dataset, pinned_model):
    argv = ["--data", str(pinned_dataset), "--model", str(pinned_model)]
    _check(tmp_path, "eval", argv, ("metrics.csv",), {"metrics.csv": EVAL_DIGEST})


def test_oracle_report(tmp_path):
    _check(tmp_path, "oracle-check", ["--trials", "20"], ("oracle_report.txt",),
           {"oracle_report.txt": ORACLE_REPORT_DIGEST})


# run_property_suites(trials=1000, seed=0): each suite's failures, worst
# trial and the bits of its worst residual, which goes through np.log and
# the BLAS
FULL_SUITES = {
    "kl_identity": (0, 367, 4383128337338335232),
    "kl_nonnegative": (0, -1, 0),
    "scale_invariance": (0, 834, 4387068987012284416),
    "minimizer_family": (0, 978, 4378624737710964736),
    "bias_bound": (0, -1, 0),
    "irreducibility_equiv": (0, -1, 0),
    "l2_identity": (0, 38, 4389883736779390976),
}


def _full_suites():
    return {r.name: (r.failures, r.worst_trial, int(np.float64(r.worst_residual).view(np.uint64)))
            for r in oc.run_property_suites(trials=1000, seed=0)}


def test_full_size_property_suites():
    got = _full_suites()
    if environment_fingerprint() == FINGERPRINT:
        assert got == FULL_SUITES
    else:
        assert got == _full_suites()


def test_bias_tables(tmp_path):
    _check(tmp_path, "bias-exp", BIAS_QUICK, tuple(BIAS_DIGESTS), BIAS_DIGESTS)
