import json
import math

import numpy as np
import pytest

from ofevi import HERMITE, BasisFamily, OfeDensity, ProductBasis, _blas
from ofevi.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fit_gaussian(tmp_path, capsys, orders="1", extra=()):
    out = tmp_path / "density.json"
    code, stdout, _ = run_cli(
        capsys, "fit", "--target", "gaussian",
        "--target-params", '{"mean": [0.0], "cov": [[1.0]]}',
        "--orders", orders, "--samples", "500", "--seed", "1",
        "--out", str(out), *extra,
    )
    assert code == 0
    return out, json.loads(stdout)


def test_fit_writes_a_density_and_a_summary(tmp_path, capsys):
    out, summary = fit_gaussian(tmp_path, capsys)
    assert out.exists()
    assert summary["lambda_min"] == 0.0
    assert summary["K"] == 1 and summary["B"] == 500
    assert summary["blas_threads"] == (1 if _blas._libraries() else None)
    q = OfeDensity.load(out)
    assert np.array_equal(q.coeffs, [1.0])


def test_fit_standardize_flag(tmp_path, capsys):
    out = tmp_path / "density.json"
    code, stdout, _ = run_cli(
        capsys, "fit", "--target", "gaussian",
        "--target-params", '{"mean": [3.0], "cov": [[0.125]]}',
        "--orders", "1", "--samples", "2000", "--standardize",
        "--standardize-samples", "20000", "--seed", "2", "--out", str(out),
    )
    assert code == 0
    assert json.loads(stdout)["standardized"] is True
    mean, cov = OfeDensity.load(out).mean_and_cov()
    assert mean[0] == pytest.approx(3.0, abs=0.05)
    assert cov[0, 0] == pytest.approx(0.125, abs=0.02)


def test_sample_emits_csv_with_header(tmp_path, capsys):
    density, _ = fit_gaussian(tmp_path, capsys, orders="3")
    csv_path = tmp_path / "draws.csv"
    code, _, stderr = run_cli(
        capsys, "sample", "--density", str(density), "--n", "200",
        "--seed", "3", "--out", str(csv_path),
    )
    assert code == 0
    assert "boundary clamps" in stderr
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "z1"
    assert len(lines) == 201
    values = np.array([float(v) for v in lines[1:]])
    assert np.all(np.isfinite(values))


def test_sample_same_seed_same_bytes(tmp_path, capsys):
    density, _ = fit_gaussian(tmp_path, capsys, orders="3")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "sample", "--density", str(density), "--n", "100",
            "--seed", "9", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_moments_reports_mean_and_cov(tmp_path, capsys):
    density, _ = fit_gaussian(tmp_path, capsys)
    code, stdout, _ = run_cli(capsys, "moments", "--density", str(density))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["mean"][0] == pytest.approx(0.0, abs=1e-12)
    assert payload["cov"][0][0] == pytest.approx(1.0, rel=1e-12)


def test_evaluate_reports_divergences(tmp_path, capsys):
    density, _ = fit_gaussian(tmp_path, capsys)
    code, stdout, _ = run_cli(
        capsys, "evaluate", "--density", str(density), "--target", "gaussian",
        "--target-params", '{"mean": [0.0], "cov": [[1.0]]}',
        "--n", "5000", "--seed", "4",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert abs(payload["kl"]) < 1e-10
    assert payload["fisher_div"] < 1e-24 and payload["fisher_se"] < 1e-24
    assert payload["n"] == 5000


DRAW_COMMANDS = [
    ("sample",),
    ("evaluate", "--target", "gaussian", "--target-params", '{"mean": [0.0], "cov": [[1.0]]}'),
]


@pytest.mark.parametrize("command", DRAW_COMMANDS)
def test_a_draw_count_below_one_exits_one(tmp_path, capsys, command):
    density, _ = fit_gaussian(tmp_path, capsys)
    code, _, stderr = run_cli(capsys, *command, "--density", str(density), "--n", "0")
    assert code == 1 and "config error" in stderr


@pytest.mark.parametrize("command", DRAW_COMMANDS)
def test_a_negative_seed_exits_one(tmp_path, capsys, command):
    density, _ = fit_gaussian(tmp_path, capsys)
    code, _, stderr = run_cli(capsys, *command, "--density", str(density), "--seed", "-1")
    assert code == 1 and "--seed must be at least 0" in stderr


GOOD_DENSITY = OfeDensity(ProductBasis([BasisFamily(HERMITE)] * 2, (2, 2)), np.full(4, 0.5)).to_dict()


@pytest.mark.parametrize(
    "payload",
    [
        dict(GOOD_DENSITY, families=["hermit", "hermite"]),
        dict(GOOD_DENSITY, coeffs=[0.5] * 3),
        dict(GOOD_DENSITY, transform={"mean": [0.0, 0.0], "chol": [[1.0, 0.5], [0.0, 1.0]]}),
        [GOOD_DENSITY],
    ],
    ids=["unknown-family", "coefficient-short", "upper-triangular-chol", "top-level-list"],
)
def test_a_malformed_density_file_exits_one(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, stderr = run_cli(capsys, "moments", "--density", str(path))
    assert code == 1 and "cannot load density" in stderr


def test_evaluate_draws_one_reference_set_for_both_divergences(tmp_path, capsys, monkeypatch):
    from ofevi import harness, targets

    density = tmp_path / "mix.json"
    code, _, _ = run_cli(
        capsys, "fit", "--target", "mixture2d", "--orders", "4,4", "--scale", "9",
        "--seed", "0", "--out", str(density),
    )
    assert code == 0
    draws = []
    sample = targets.GaussianMixture.sample

    def recording_sample(self, rng, n):
        draws.append(sample(self, rng, n))
        return draws[-1]

    monkeypatch.setattr(targets.GaussianMixture, "sample", recording_sample)
    code, stdout, _ = run_cli(
        capsys, "evaluate", "--density", str(density), "--target", "mixture2d",
        "--n", "1000", "--seed", "5",
    )
    assert code == 0
    assert [len(z) for z in draws] == [1000]
    z = draws[0]
    target, q = targets.make_target("mixture2d"), OfeDensity.load(density)
    kl, se, _ = harness.kl_from_samples(z, np.asarray(target.log_density(z)), q)
    fisher, fisher_se, _ = harness._fisher_from_scores(np.asarray(target.score(z)), q, z)
    payload = json.loads(stdout)
    assert (payload["kl"], payload["kl_se"]) == (kl, se)
    assert (payload["fisher_div"], payload["fisher_se"]) == (fisher, fisher_se)


@pytest.mark.parametrize("standardize", [False, True])
def test_evaluate_prints_the_divergences_a_sweep_wrote(tmp_path, capsys, standardize):
    config = {
        "target": "mixture2d", "orders": [[3, 3], [5, 5]], "samples": [None, 300], "seed": 7,
        "proposal_scale": 9.0, "standardize": standardize, "eval_samples": 3000,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    prefix = tmp_path / "run"
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out-prefix", str(prefix))
    assert code == 0
    rows = (tmp_path / "run_metrics.csv").read_text().strip().split("\n")[1:]
    written = {}
    for row in rows:
        fields = row.split(",")
        written[fields[3], fields[5], fields[7]] = fields[8]
    for orders, b in (("3x3", "90"), ("5x5", "300")):
        code, stdout, _ = run_cli(
            capsys, "evaluate", "--density", str(tmp_path / f"run_density_{orders}_B{b}.json"),
            "--target", "mixture2d", "--seed", "7", "--n", "3000",
        )
        assert code == 0
        payload = json.loads(stdout)
        for key in ("kl", "kl_se", "fisher_div", "fisher_se"):
            assert payload[key] == float(written[orders, b, key]), (orders, key)


def test_evaluate_outside_the_density_support_exits_two_with_the_notes(tmp_path, capsys):
    density = tmp_path / "legendre.json"
    code, _, _ = run_cli(
        capsys, "fit", "--target", "mixture2d", "--orders", "3,3", "--family", "legendre",
        "--seed", "0", "--out", str(density),
    )
    assert code == 0
    code, stdout, stderr = run_cli(
        capsys, "evaluate", "--density", str(density), "--target", "mixture2d", "--n", "500",
    )
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: kl failed: SupportError: point outside legendre support")
    assert "; fisher failed: SupportError: point outside legendre support" in stderr


def test_sweep_runs_a_config_and_writes_outputs(tmp_path, capsys):
    config = {
        "target": "mixture2d",
        "orders": [[2, 2], [3, 3]],
        "samples": [400],
        "seed": 0,
        "proposal_scale": 9.0,
        "eval_samples": 2000,
        "sample_probe": 100,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code, stdout, _ = run_cli(
        capsys, "sweep", "--config", str(cfg_path),
        "--out-prefix", str(tmp_path / "out" / "demo"),
    )
    assert code == 0
    assert "K=4 B=400" in stdout and "K=9 B=400" in stdout
    assert (tmp_path / "out" / "demo_metrics.csv").exists()
    assert (tmp_path / "out" / "demo_records.json").exists()


def test_sweep_prints_a_missing_kl(tmp_path, capsys):
    # Mixture samples fall outside the Legendre support: KL and Fisher fail,
    # the fit and its density stand.
    config = {
        "target": "mixture2d", "orders": [[3, 3]], "family": "legendre",
        "proposal_scale": 1.0, "seed": 1, "eval_samples": 500,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    prefix = tmp_path / "out" / "run"
    code, stdout, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out-prefix", str(prefix))
    assert code == 0
    assert "kl=n/a (kl failed: SupportError" in stdout
    assert (prefix.parent / "run_density_3x3_B90.json").exists()


def test_sweep_seed_override_changes_the_hash(tmp_path, capsys):
    config = {
        "target": "bimodal1d", "orders": [[3]], "samples": [300],
        "seed": 0, "eval_samples": 1000,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for seed in ("11", "12"):
        prefix = tmp_path / f"s{seed}" / "run"
        code, _, _ = run_cli(
            capsys, "sweep", "--config", str(cfg_path), "--seed", seed,
            "--out-prefix", str(prefix),
        )
        assert code == 0
        outs.append((prefix.parent / "run_metrics.csv").read_text())
    assert outs[0] != outs[1]


def test_sweep_returns_two_when_every_cell_fails(tmp_path, capsys):
    config = {
        "target": "bimodal1d", "orders": [[65]], "samples": [100],
        "seed": 0, "eval_samples": 100,
    }
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    code, stdout, stderr = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2
    assert "FAILED" in stdout
    assert "every sweep cell failed" in stderr


def test_config_errors_exit_one(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "fit", "--target", "gaussian", "--orders", "0",
        "--target-params", '{"mean": [0.0], "cov": [[1.0]]}',
    )
    assert code == 1 and "config error" in stderr

    code, _, stderr = run_cli(capsys, "fit", "--target", "nope", "--orders", "3")
    assert code == 1

    code, _, stderr = run_cli(capsys, "sweep", "--config", str(tmp_path / "missing.json"))
    assert code == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "sweep", "--config", str(bad))
    assert code == 1


@pytest.mark.parametrize(
    "extra",
    [
        ("--samples", "0"),
        ("--family", "hermit"),
        ("--standardize", "--standardize-samples", "0"),
        ("--target-params", '{"bogus": 1}'),
        ("--orders", "64,64,64"),
        ("--scale", "nan"),
        ("--scale", "inf"),
    ],
)
def test_fit_flag_errors_exit_one(capsys, extra):
    code, _, stderr = run_cli(
        capsys, "fit", "--target", "gaussian", "--orders", "3",
        "--target-params", '{"mean": [0.0], "cov": [[1.0]]}', *extra,
    )
    assert code == 1 and "config error" in stderr


@pytest.mark.parametrize(
    "field",
    [
        {"orders": [["a"]]},
        {"samples": ["x"]},
        {"chunk_size": 1024},
        {"orders": [[64, 64, 64]]},
        {"proposal_scale": math.nan},
        {"target_params": [1]},
        {"orders": [[3], [3]]},
        {"family": "fourier", "proposal": "gaussian"},
        {"orders": [[2.5]]},
        {"samples": [99.7]},
        {"seed": True},
        {"standardize_samples": 500.5},
        {"eval_samples": 2000.5},
        {"sample_probe": False},
        {"standardize": "false"},
        {"proposal_scale": True},
        {"out_prefix": 5},
    ],
)
def test_sweep_config_value_errors_exit_one(tmp_path, capsys, field):
    config = dict({"target": "bimodal1d", "orders": [[3]], "seed": 0}, **field)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    code, _, stderr = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 1 and "config error" in stderr


@pytest.mark.parametrize(
    "flags, fields",
    [
        (("--target", "mixture2d", "--orders", "6,6", "--scale", "9"),
         {"target": "mixture2d", "orders": [[6, 6]], "proposal_scale": 9.0}),
        (("--target", "gaussian", "--target-params", '{"mean": [3.0], "cov": [[0.125]]}',
          "--orders", "3", "--standardize", "--samples", "700"),
         {"target": "gaussian", "target_params": {"mean": [3.0], "cov": [[0.125]]},
          "orders": [[3]], "standardize": True, "samples": [700]}),
    ],
)
def test_fit_writes_the_density_a_one_cell_sweep_writes(tmp_path, capsys, flags, fields):
    fitted = tmp_path / "fit.json"
    code, _, _ = run_cli(capsys, "fit", *flags, "--seed", "4", "--out", str(fitted))
    assert code == 0
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(dict(fields, seed=4, eval_samples=500)))
    prefix = tmp_path / "sweep" / "run"
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out-prefix", str(prefix))
    assert code == 0
    [swept] = prefix.parent.glob("run_density_*.json")
    assert fitted.read_bytes() == swept.read_bytes()


def test_dimension_mismatch_is_a_config_error(capsys):
    code, _, stderr = run_cli(
        capsys, "fit", "--target", "mixture2d", "--orders", "3",
    )
    assert code == 1 and "dimension" in stderr


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["fit", "--help"]) == 0
    capsys.readouterr()


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
