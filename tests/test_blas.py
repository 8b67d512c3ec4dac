"""The one-count BLAS pin and the thread-count independence it buys."""

import ctypes
import ctypes.util
import glob
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from ofevi import _blas, density, estimator, harness
from ofevi.basis1d import BasisFamily
from ofevi.density import OfeDensity
from ofevi.product_basis import ProductBasis
from ofevi.proposals import UniformBox
from ofevi.targets import make_target

ROOT = Path(__file__).resolve().parents[1]


class FakeLibrary:
    """A thread setter and getter pair standing in for one OpenBLAS copy."""

    def __init__(self, count):
        self.count = count
        self.pair = (self.set, self.get)

    def set(self, count):
        self.count = count

    def get(self):
        return self.count


@pytest.fixture
def fakes(monkeypatch):
    libs = [FakeLibrary(1), FakeLibrary(3)]
    monkeypatch.setattr(_blas, "_libraries", lambda: [lib.pair for lib in libs])
    return libs


def child_stdout(script, threads, *, one_cpu=False, **run):
    """What `script` prints in a fresh interpreter that imports ofevi from this checkout.

    threads is the child's OPENBLAS_NUM_THREADS, None to leave it unset.
    With one_cpu the child confines itself to one CPU before it imports
    numpy, so OpenBLAS finds one CPU when it loads.
    """
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    if one_cpu:
        cpu = min(os.sched_getaffinity(0))
        script = f"import os\nos.sched_setaffinity(0, {{{cpu}}})\n" + script
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300, **run)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_pin_sets_two_threads_and_restores_each_count(fakes):
    assert _blas.THREADS == 2
    with _blas.pinned() as threads:
        assert threads == 2
        assert [lib.count for lib in fakes] == [2, 2]
    assert [lib.count for lib in fakes] == [1, 3]


def test_pin_restores_each_count_when_the_block_raises(fakes):
    with pytest.raises(ZeroDivisionError):
        with _blas.pinned():
            1 / 0
    assert [lib.count for lib in fakes] == [1, 3]


def test_nested_pins_restore_the_outer_count(fakes):
    with _blas.pinned():
        with _blas.pinned() as inner:
            assert inner == 2
        assert [lib.count for lib in fakes] == [2, 2]
    assert [lib.count for lib in fakes] == [1, 3]


def test_no_library_found_yields_none_and_runs_the_call(monkeypatch):
    monkeypatch.setattr(_blas, "_libraries", lambda: [])

    @_blas.pinned()
    def double(x):
        return 2 * x

    with _blas.pinned() as threads:
        assert threads is None
    assert double(21) == 42
    result = estimator.fit(
        make_target("gaussian", mean=[0.0], cov=[[1.0]]),
        ProductBasis([BasisFamily("hermite")], [1]),
        UniformBox.centered(6.0, 1),
        np.random.default_rng(0),
        n_samples=200,
    )
    assert result.blas_threads is None
    assert result.eigenvalue == 0.0


@pytest.mark.skipif(not _blas._libraries(), reason="no bundled OpenBLAS found")
def test_pin_reaches_every_bundled_openblas_copy():
    libs = _blas._libraries()
    before = [get() for _, get in libs]
    try:
        for set_threads, _ in libs:
            set_threads(1)
        with _blas.pinned() as threads:
            assert threads == 2
            assert [get() for _, get in libs] == [2] * len(libs)
        assert [get() for _, get in libs] == [1] * len(libs)
    finally:
        for (set_threads, _), count in zip(libs, before):
            set_threads(count)


@pytest.mark.skipif(not _blas._libraries(), reason="no bundled OpenBLAS found")
def test_a_file_that_is_no_openblas_is_skipped(monkeypatch, tmp_path):
    # A shared object without the thread setter (the C math library) and a
    # file that does not load are passed over; the real copies are kept.
    # monkeypatch restores the cached `_found`.
    def address(pair):
        return ctypes.cast(pair[0], ctypes.c_void_p).value

    real = [address(pair) for pair in _blas._libraries()]
    site = os.path.dirname(os.path.dirname(np.__file__))
    paths = glob.glob(os.path.join(site, _blas._PATTERN))
    not_a_library = tmp_path / "libscipy_openblas64_text.so"
    not_a_library.write_text("not a shared object")
    paths += [ctypes.util.find_library("m"), str(not_a_library)]
    monkeypatch.setattr(_blas, "glob", types.SimpleNamespace(glob=lambda pattern: paths))
    monkeypatch.setattr(_blas, "_found", None)
    assert [address(pair) for pair in _blas._libraries()] == real


@pytest.mark.skipif(not _blas._libraries(), reason="no bundled OpenBLAS found")
@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
def test_the_pin_finds_every_openblas_a_fit_loads():
    # A fresh interpreter, so that no test's scipy import adds its own copy.
    script = (
        "import json\n"
        "import numpy as np\n"
        "from ofevi import _blas, estimator, make_target, BasisFamily, ProductBasis, UniformBox\n"
        "estimator.fit(make_target('mixture2d'), ProductBasis([BasisFamily('hermite')] * 2, (5, 5)),\n"
        "              UniformBox.centered(9.0, 2), np.random.default_rng(0))\n"
        "maps = open('/proc/self/maps').read().split('\\n')\n"
        "loaded = {line.split()[-1] for line in maps if 'openblas' in line}\n"
        "print(json.dumps([len(loaded), len(_blas._libraries())]))\n"
    )
    loaded, found = json.loads(child_stdout(script, None))
    assert loaded == found >= 1


@pytest.mark.skipif(not _blas._libraries(), reason="no bundled OpenBLAS found")
def test_assembly_called_directly_gives_the_same_bits_at_any_thread_count():
    # At K = 300 a SYRK at one thread and one at two differ in M's last
    # bits, so the product must run at its pinned count whatever the
    # process's count or the CPUs it may use.  The second case is the
    # eigensolve of an M of rank K on 150 draws, which block inverse
    # iteration solves; unpinned, two threads change alpha's last bits.
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from ofevi import assemble_moment_matrix, min_eigenpair\n"
        "rng = np.random.default_rng(5)\n"
        "m = assemble_moment_matrix(rng.normal(size=(300, 512, 2)), rng.uniform(0.5, 2.0, 512))\n"
        "print(hashlib.sha256(m.tobytes()).hexdigest())\n"
        "m = assemble_moment_matrix(rng.normal(size=(300, 150, 2)), rng.uniform(0.5, 2.0, 150))\n"
        "lam, alpha, lambda_2 = min_eigenpair(m)\n"
        "print(hashlib.sha256(np.array([lam, lambda_2]).tobytes() + alpha.tobytes()).hexdigest())\n"
    )
    digests = [child_stdout(script, threads).split() for threads in ("1", "2", "4", None)]
    if hasattr(os, "sched_setaffinity"):
        digests.append(child_stdout(script, None, one_cpu=True).split())
    assert len(digests[0]) == 2
    assert all(d == digests[0] for d in digests[1:])


@pytest.mark.skipif(not _blas._libraries(), reason="no bundled OpenBLAS found")
def test_evaluation_gives_the_same_bits_at_any_thread_count():
    # Evaluation runs unpinned: every GEMM in it, the coefficients mapped
    # through the derivative matrices too, must not depend on the split.
    # The feature tables pin their own GEMM: unpinned, the gradients of
    # orders 22 to 64 on a 2001-point grid differ between one thread and two.
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from ofevi import BasisFamily, OfeDensity, ProductBasis\n"
        "for kind, orders, lo, hi in (('hermite', (20, 20), -4.0, 4.0),\n"
        "                             ('legendre', (64, 64), -0.99, 0.99),\n"
        "                             ('laguerre', (4, 4, 4, 3, 3), 0.0, 20.0)):\n"
        "    basis = ProductBasis([BasisFamily(kind)] * len(orders), orders)\n"
        "    rng = np.random.default_rng(len(orders))\n"
        "    q = OfeDensity(basis, rng.normal(size=basis.size))\n"
        "    z = rng.uniform(lo, hi, size=(9000, len(orders)))\n"
        "    print(hashlib.sha256(q.score(z).tobytes() + q.log_density(z).tobytes()).hexdigest())\n"
        "for kind, lo, hi in (('hermite', -12.0, 12.0), ('legendre', -1.0, 1.0),\n"
        "                     ('laguerre', 0.0, 80.0)):\n"
        "    z = np.linspace(lo, hi, 2001)[:, None]\n"
        "    for order in (22, 40, 64):\n"
        "        vals, grads = ProductBasis([BasisFamily(kind)], (order,)).feature_gradients(z)\n"
        "        print(hashlib.sha256(vals.tobytes() + grads.tobytes()).hexdigest())\n"
    )
    digests = [child_stdout(script, threads).split() for threads in ("1", "2")]
    assert len(digests[0]) == 12
    assert digests[0] == digests[1]


@pytest.mark.skipif(not _blas._libraries(), reason="no bundled OpenBLAS found")
def test_sweep_csv_bytes_do_not_depend_on_the_thread_count(tmp_path):
    # At one thread and at two, unpinned BLAS gives different K = 100 bytes,
    # and a different standardizing transform from 500k draws.
    # The last run is confined to one CPU, where the two pinned threads share it.
    configs = [
        harness.ExperimentConfig(
            target="mixture2d",
            orders=[[5, 5], [10, 10]],
            proposal_scale=9.0,
            eval_samples=20_000,
            sample_probe=0,
            seed=1,
        ),
        harness.ExperimentConfig(
            target="mixture2d",
            orders=[[5, 5]],
            proposal_scale=9.0,
            standardize=True,
            standardize_samples=500_000,
            eval_samples=20_000,
            sample_probe=0,
            seed=1,
        ),
    ]
    script = (
        "import json, sys\n"
        "from ofevi import harness\n"
        "out = []\n"
        "for config in json.loads(sys.stdin.read()):\n"
        "    records, _ = harness.run(harness.ExperimentConfig.from_dict(config))\n"
        "    out.append({'csv': harness.records_to_csv(records),\n"
        "                'threads': [r.blas_threads for r in records]})\n"
        "print(json.dumps(out))\n"
    )
    settings = [dict(threads=t) for t in ("1", "2", "4", None)]
    if hasattr(os, "sched_setaffinity"):
        settings.append(dict(threads=None, one_cpu=True))
    stdin = json.dumps([config.to_dict() for config in configs])
    outputs = [
        json.loads(child_stdout(script, **setting, input=stdin, cwd=tmp_path))
        for setting in settings
    ]
    assert all(out == outputs[0] for out in outputs[1:])
    assert [run["threads"] for run in outputs[0]] == [[2, 2], [2]]


@pytest.mark.skipif(not _blas._libraries(), reason="no bundled OpenBLAS found")
def test_moment_estimates_give_the_same_bits_at_any_thread_count():
    # The importance-weighted sums are BLAS products: called directly and
    # unpinned, 500k draws give different bits at one thread and at two.
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from ofevi import Gaussian, UniformBox, make_target\n"
        "from ofevi.standardize import estimate_moments, estimate_transform\n"
        "t = estimate_transform(Gaussian([3.0], [[0.125]]), UniformBox.centered(6.0, 1), 500_000,\n"
        "                       np.random.default_rng((0, 2)))\n"
        "print(hashlib.sha256(t.mean.tobytes() + t.chol.tobytes()).hexdigest())\n"
        "mean, cov = estimate_moments(make_target('mixture2d'), UniformBox.centered(9.0, 2),\n"
        "                             500_000, np.random.default_rng((0, 2)))\n"
        "print(hashlib.sha256(mean.tobytes() + cov.tobytes()).hexdigest())\n"
    )
    digests = [child_stdout(script, threads).split() for threads in ("1", "2", "4")]
    if hasattr(os, "sched_setaffinity"):
        digests.append(child_stdout(script, None, one_cpu=True).split())
    assert len(digests[0]) == 2
    assert all(d == digests[0] for d in digests[1:])


@pytest.mark.skipif(not _blas._libraries(), reason="no bundled OpenBLAS found")
def test_evaluate_prints_the_same_json_at_any_thread_count(tmp_path):
    # `ofevi evaluate` runs unpinned: the reference draw and both
    # divergences must not depend on the split.
    result = estimator.fit(make_target("mixture2d"),
                           ProductBasis([BasisFamily("hermite")] * 2, (20, 20)),
                           UniformBox.centered(9.0, 2), np.random.default_rng(0))
    path = tmp_path / "q.json"
    result.density.save(path)
    script = (
        "from ofevi.cli import main\n"
        f"raise SystemExit(main(['evaluate', '--density', {str(path)!r}, '--target', 'mixture2d',\n"
        "                        '--n', '20000', '--seed', '3']))\n"
    )
    outputs = [child_stdout(script, threads) for threads in ("1", "2")]
    if hasattr(os, "sched_setaffinity"):
        outputs.append(child_stdout(script, None, one_cpu=True))
    assert json.loads(outputs[0])["kl"] is not None
    assert all(out == outputs[0] for out in outputs[1:])


@pytest.mark.skipif(not _blas._libraries(), reason="no bundled OpenBLAS found")
@pytest.mark.parametrize(
    "kinds, order, seed, call, inner, calls",
    [
        (("hermite", "hermite"), 20, 40, lambda q: (q.sample(np.random.default_rng(41), 3000),),
         "build_cdf_table", 1),
        (("legendre", "laguerre"), 40, 0, lambda q: q.mean_and_cov(), "_moment_matrices", 2),
    ],
    ids=["sampling", "moments"],
)
def test_sampling_and_moments_run_pinned_whatever_the_thread_count(
    monkeypatch, kinds, order, seed, call, inner, calls
):
    # Each per-axis table the call builds (one CDF table for the two equal
    # Hermite axes, one moment matrix pair per axis) is built at the pinned
    # count with BLAS at one thread outside, and the result is the pinned
    # one bit for bit.
    basis = ProductBasis([BasisFamily(kind) for kind in kinds], (order, order))
    q = OfeDensity(basis, np.random.default_rng(seed).normal(size=basis.size))
    with _blas.pinned():
        pinned = call(q)

    libs = _blas._libraries()

    def counts():
        return [get() for _, get in libs]

    seen, build = [], getattr(density, inner)

    def recording_build(family, order):
        seen.append(counts())
        return build(family, order)

    monkeypatch.setattr(density, inner, recording_build)
    before = counts()
    try:
        for set_threads, _ in libs:
            set_threads(1)
        result = call(q)
        after = counts()
    finally:
        for (set_threads, _), count in zip(libs, before):
            set_threads(count)
    assert seen == [[2] * len(libs)] * calls
    assert after == [1] * len(libs)
    assert all(np.array_equal(r, p) for r, p in zip(result, pinned, strict=True))
