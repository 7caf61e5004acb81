"""Command-line interface: config handling, outputs, exit codes."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from eivpred import cli, estimators, models, montecarlo, predictors
from eivpred.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from eivpred.errors import NonConvergence
from eivpred.transform import params_to_dict

from conftest import (
    make_abs_spec,
    make_exponential_spec,
    make_poly_spec,
    make_quadratic_spec,
    make_trig_spec,
)

DATA_DIR = Path(__file__).parent / "data"
SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs the CLI on sys.argv[2:] with every fit in a forked worker failing as
# sys.argv[1] says, by raising or by exiting (the fits of this process's own
# share go through), then prints the exit code and the number of child
# processes still alive.
_FAIL_IN_WORKER = """
import multiprocessing, os, sys
from eivpred import cli, montecarlo

parent, fit_stack, how = os.getpid(), montecarlo.fit_stack, sys.argv[1]

def failing(*args, **kwargs):
    if os.getpid() != parent:
        if how == "exit":
            os._exit(1)
        raise RuntimeError("a defect in a worker")
    return fit_stack(*args, **kwargs)

montecarlo.fit_stack = failing
code = cli.main(sys.argv[2:])
print(code, len(multiprocessing.active_children()))
"""


def linear_spec_dict():
    return {
        "family": "linear",
        "intercept": [1.0],
        "z_slopes": [[0.5]],
        "latent_slopes": [[1.0]],
        "latent_mean": [0.5],
        "latent_cov": [[1.0]],
        "errors": {
            "sigma_e": [[0.0]],
            "sigma_eps": [[0.3]],
            "sigma_delta": [[0.5]],
            "sigma_eps_delta": [[0.1]],
        },
        "z_dist": {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]},
    }


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


class TestSimulate:
    def test_writes_files_with_row_count(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sim.json",
            {"spec": linear_spec_dict(), "n": 25, "seed": 3, "out": str(tmp_path / "ds")},
        )
        assert main(["simulate", "--config", cfg]) == EXIT_OK
        rows = (tmp_path / "ds.csv").read_text().strip().splitlines()
        assert len(rows) == 26  # header + n
        data, spec = models.load_dataset(tmp_path / "ds")
        assert data.n == 25
        assert models.validate(spec) == []

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sim.json",
            {"spec": linear_spec_dict(), "n": 10, "seed": 9, "out": str(tmp_path / "a")},
        )
        main(["simulate", "--config", cfg])
        first = (tmp_path / "a.csv").read_bytes()
        main(["simulate", "--config", cfg])
        assert (tmp_path / "a.csv").read_bytes() == first

    def test_seed_override_changes_data(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sim.json",
            {"spec": linear_spec_dict(), "n": 10, "seed": 9, "out": str(tmp_path / "b")},
        )
        main(["simulate", "--config", cfg])
        base = (tmp_path / "b.csv").read_bytes()
        main(["simulate", "--config", cfg, "--seed", "10"])
        assert (tmp_path / "b.csv").read_bytes() != base

    def test_invalid_spec_exits_2_with_violations(self, tmp_path, capsys):
        spec = linear_spec_dict()
        spec["errors"]["sigma_eps_delta"] = [[2.0]]  # |corr| > 1
        cfg = write_config(
            tmp_path, "bad.json", {"spec": spec, "n": 10, "seed": 1, "out": str(tmp_path / "x")}
        )
        assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
        assert "not PSD" in capsys.readouterr().err

    def test_unknown_z_kind_naming_singular_exits_2(self, tmp_path, capsys):
        spec = dict(linear_spec_dict(), z_dist=dict(linear_spec_dict()["z_dist"], kind="nonsingular"))
        out = tmp_path / "x"
        cfg = write_config(tmp_path, "bad.json", {"spec": spec, "n": 10, "seed": 1, "out": str(out)})
        assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert line == "spec violation: unknown z distribution kind 'nonsingular'"
        assert not out.with_suffix(".csv").exists()

    def test_missing_output_prefix_exits_2_before_drawing(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the dataset was drawn")

        monkeypatch.setattr(cli, "sample", unreachable)
        cfg = write_config(tmp_path, "sim.json", {"spec": linear_spec_dict(), "n": 10, "seed": 1})
        assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "spec violation: simulate needs an output prefix (config 'out' or --out)"
        ]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "unk.json",
            {"spec": linear_spec_dict(), "n": 5, "seed": 1, "out": "x", "bogus": True},
        )
        assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err


class TestTransform:
    def test_error_free_spec_echoes_parameters(self, tmp_path, capsys):
        spec = {
            "family": "exponential",
            "scale": 2.0,
            "rate": 0.7,
            "latent_mean": 0.3,
            "latent_var": 1.0,
            "sigma2_e": 0.1,
            "sigma2_delta": 0.0,
        }
        cfg = write_config(tmp_path, "tr.json", {"spec": spec})
        assert main(["transform", "--config", cfg]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["params"]["scale"] == 2.0
        assert out["params"]["rate"] == 0.7

    def test_quadratic_reports_squared_reliability_curvature(self, tmp_path, capsys):
        spec = {
            "family": "quadratic",
            "intercept": 0.4,
            "slope": 0.7,
            "curvature": 1.3,
            "latent_mean": 1.0,
            "latent_var": 1.0,
            "sigma2_e": 0.2,
            "sigma2_delta": 1.0,
        }
        cfg = write_config(tmp_path, "trq.json", {"spec": spec})
        assert main(["transform", "--config", cfg]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["params"]["curvature"] == pytest.approx(1.3 * 0.25, abs=1e-15)

    def test_abs_fields_present(self, tmp_path, capsys):
        spec = {
            "family": "absolute_value",
            "scale": 1.0,
            "shift": 1.0,
            "latent_mean": 0.0,
            "latent_var": 1.0,
            "sigma2_e": 0.1,
            "sigma2_delta": 1.0,
        }
        cfg = write_config(tmp_path, "tra.json", {"spec": spec})
        assert main(["transform", "--config", cfg]) == EXIT_OK
        params = json.loads(capsys.readouterr().out)["params"]
        assert {"scale", "gain", "offset"} <= set(params)


class TestFitPredict:
    def test_noiseless_dataset_near_zero_residual(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 1))
        z = rng.standard_normal((50, 1))
        y = 1.0 + 0.5 * z + 2.0 * x
        data = models.Dataset(y=y, z=z, x=x, seed=0)
        spec = models.spec_from_dict(linear_spec_dict())
        models.save_dataset(data, spec, tmp_path / "clean")
        cfg = write_config(
            tmp_path,
            "fp.json",
            {
                "data": str(tmp_path / "clean"),
                "family": "linear",
                "predict": [{"z0": [0.0], "x0": [1.0]}],
            },
        )
        assert main(["fit-predict", "--config", cfg]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["fit"]["residual_moment"][0][0] <= 1e-20
        assert report["predictions"][0]["individual"][0] == pytest.approx(3.0, abs=1e-9)

    def test_golden_report_is_byte_stable(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(
            [
                "fit-predict",
                "--config",
                str(DATA_DIR / "golden_fit_predict_config.json"),
                "--out",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        assert out.read_bytes() == (DATA_DIR / "golden_fit_predict.json").read_bytes()

    def test_nonlinear_family_fit_predict(self, tmp_path, capsys):
        spec = {
            "family": "absolute_value",
            "scale": 1.0,
            "shift": 1.0,
            "latent_mean": 0.0,
            "latent_var": 1.0,
            "sigma2_e": 0.05,
            "sigma2_delta": 0.5,
        }
        sim = write_config(
            tmp_path, "sim_abs.json", {"spec": spec, "n": 2000, "seed": 5, "out": str(tmp_path / "abs")}
        )
        assert main(["simulate", "--config", sim]) == EXIT_OK
        capsys.readouterr()
        fp = write_config(
            tmp_path,
            "fp_abs.json",
            {
                "data": str(tmp_path / "abs"),
                "family": "absolute_value",
                "predict": [{"x0": 1.0}],
            },
        )
        assert main(["fit-predict", "--config", fp]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["fit"]["converged"] is True
        assert {"scale", "gain", "offset"} <= set(report["fit"]["params"])
        assert np.isfinite(report["predictions"][0]["individual"][0])

    def test_chisquare_without_assertion_carries_note(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "fp2.json",
            {
                "data": str(DATA_DIR / "golden_dataset"),
                "family": "linear",
                "predict": [{"z0": [0.0], "x0": [0.5]}],
                "regions": [{"kind": "chi_square", "alpha": 0.05}],
            },
        )
        assert main(["fit-predict", "--config", cfg]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        notes = report["predictions"][0]["regions"][0]["notes"]
        assert any("purely-normal" in n for n in notes)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda lines: lines[:100], "99 rows of 3 values, but"),
            (lambda lines: lines[:7] + [lines[7] + "x"] + lines[8:], "could not convert"),
            (lambda lines: lines[:7] + [lines[7].rsplit(",", 1)[0]] + lines[8:], "number of columns"),
            (lambda lines: ["y_1,x_1,z_1"] + lines[1:], "header ['y_1', 'x_1', 'z_1']"),
            (
                lambda lines: lines[:7] + ["nan," + lines[7].split(",", 1)[1]] + lines[8:],
                "line 8, column y_1: nan is not finite",
            ),
            (
                lambda lines: lines[:9] + [lines[9].rsplit(",", 1)[0] + ",-inf"] + lines[10:],
                "line 10, column x_1: -inf is not finite",
            ),
        ],
        ids=["truncated", "non_numeric", "short_row", "header", "nan_response", "inf_covariate"],
    )
    def test_damaged_dataset_exits_2_with_one_line(self, tmp_path, capsys, damage, message):
        sim = {"spec": linear_spec_dict(), "n": 200, "seed": 4, "out": str(tmp_path / "ds")}
        assert main(["simulate", "--config", write_config(tmp_path, "sim.json", sim)]) == EXIT_OK
        csv_path = tmp_path / "ds.csv"
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(damage(lines)) + "\n")
        capsys.readouterr()
        fp = write_config(tmp_path, "fp.json", {"data": str(tmp_path / "ds"), "family": "linear"})
        assert main(["fit-predict", "--config", fp]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"i/o error: {csv_path}: ") and message in line

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda text: text.splitlines()[0] + "\n", "not valid JSON"),
            (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "n"}), "missing key 'n'"),
            (lambda text: json.dumps(dict(json.loads(text), seed="abc")), "'seed' must be an integer, got 'abc'"),
            (lambda text: json.dumps(dict(json.loads(text), seed=1.5)), "'seed' must be an integer, got 1.5"),
            (lambda text: json.dumps(dict(json.loads(text), seed=True)), "'seed' must be an integer, got True"),
            (lambda text: json.dumps(dict(json.loads(text), n="abc")), "'n' must be an integer, got 'abc'"),
            (lambda text: json.dumps(dict(json.loads(text), n=200.0)), "'n' must be an integer, got 200.0"),
            (lambda text: json.dumps(dict(json.loads(text), n=True)), "'n' must be an integer, got True"),
            (lambda text: json.dumps(dict(json.loads(text), n=0)), "'n' must be at least 1, got 0"),
            (lambda text: json.dumps(dict(json.loads(text), n=-200)), "'n' must be at least 1, got -200"),
            (
                lambda text: json.dumps(dict(json.loads(text), has_hidden="no")),
                "'has_hidden' must be true or false, got 'no'",
            ),
            (
                lambda text: json.dumps(dict(json.loads(text), has_hidden=0)),
                "'has_hidden' must be true or false, got 0",
            ),
            (lambda text: "[1, 2]", "must hold a JSON object, got list"),
        ],
        ids=[
            "cut_after_first_line",
            "missing_n",
            "seed_str",
            "seed_float",
            "seed_bool",
            "n_str",
            "n_float",
            "n_bool",
            "n_zero",
            "n_negative",
            "has_hidden_str",
            "has_hidden_int",
            "not_an_object",
        ],
    )
    def test_damaged_sidecar_exits_2_with_one_line(self, tmp_path, capsys, damage, message):
        sim = {"spec": linear_spec_dict(), "n": 200, "seed": 4, "out": str(tmp_path / "ds")}
        assert main(["simulate", "--config", write_config(tmp_path, "sim.json", sim)]) == EXIT_OK
        sidecar = tmp_path / "ds.spec.json"
        sidecar.write_text(damage(sidecar.read_text()))
        capsys.readouterr()
        fp = write_config(tmp_path, "fp.json", {"data": str(tmp_path / "ds"), "family": "linear"})
        assert main(["fit-predict", "--config", fp]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"i/o error: {sidecar}: ") and message in line

    def test_header_only_dataset_exits_2_with_one_line(self, tmp_path):
        """A dataset CSV with its header and no rows is reported by its row
        count alone: no warning from the parser, and the sidecar's columns."""
        sim = {"spec": linear_spec_dict(), "n": 200, "seed": 4, "out": str(tmp_path / "ds")}
        assert main(["simulate", "--config", write_config(tmp_path, "sim.json", sim)]) == EXIT_OK
        csv_path, sidecar = tmp_path / "ds.csv", tmp_path / "ds.spec.json"
        csv_path.write_bytes(csv_path.read_bytes().split(b"\r\n")[0] + b"\r\n")
        fp = write_config(tmp_path, "fp.json", {"data": str(tmp_path / "ds"), "family": "linear"})
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "eivpred.cli", "fit-predict", "--config", fp],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
        assert done.stderr == (
            f"i/o error: {csv_path}: 0 rows of 3 values, but {sidecar} gives n = 200 and 3 columns\n"
        )

    @pytest.mark.parametrize("suffix", [".csv", ".spec.json"])
    def test_non_utf8_dataset_file_exits_2_with_one_line(self, tmp_path, capsys, suffix):
        """A dataset CSV or sidecar that is not UTF-8 is a dataset error."""
        sim = {"spec": linear_spec_dict(), "n": 200, "seed": 4, "out": str(tmp_path / "ds")}
        assert main(["simulate", "--config", write_config(tmp_path, "sim.json", sim)]) == EXIT_OK
        damaged = tmp_path / f"ds{suffix}"
        damaged.write_bytes(b"\xe9" + damaged.read_bytes())  # a Latin-1 letter: not UTF-8
        capsys.readouterr()
        fp = write_config(tmp_path, "fp.json", {"data": str(tmp_path / "ds"), "family": "linear"})
        assert main(["fit-predict", "--config", fp]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"i/o error: {damaged}: ") and "can't decode byte 0xe9" in line

    def test_config_out_is_written(self, tmp_path, capsys):
        out = tmp_path / "sub" / "report.json"
        config = {
            "data": str(DATA_DIR / "golden_dataset"),
            "family": "linear",
            "predict": [{"z0": [0.0], "x0": [0.5]}],
            "out": str(out),
        }
        assert main(["fit-predict", "--config", write_config(tmp_path, "fp.json", config)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["fit"]["family"] == "linear"

    def test_malformed_sidecar_spec_exits_2_with_one_line(self, tmp_path, capsys):
        sim = {"spec": linear_spec_dict(), "n": 50, "seed": 4, "out": str(tmp_path / "ds")}
        assert main(["simulate", "--config", write_config(tmp_path, "sim.json", sim)]) == EXIT_OK
        sidecar = tmp_path / "ds.spec.json"
        payload = json.loads(sidecar.read_text())
        payload["spec"]["latent_mean"] = "abc"
        sidecar.write_text(json.dumps(payload))
        capsys.readouterr()
        fp = write_config(tmp_path, "fp.json", {"data": str(tmp_path / "ds"), "family": "linear"})
        assert main(["fit-predict", "--config", fp]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "spec violation: spec field 'latent_mean' must be a numeric array, got 'abc'"
        ]

    def test_flat_matrix_in_sidecar_spec_exits_2_with_one_line(self, tmp_path, capsys):
        sim = {"spec": linear_spec_dict(), "n": 50, "seed": 4, "out": str(tmp_path / "ds")}
        assert main(["simulate", "--config", write_config(tmp_path, "sim.json", sim)]) == EXIT_OK
        sidecar = tmp_path / "ds.spec.json"
        payload = json.loads(sidecar.read_text())
        payload["spec"]["latent_cov"] = [1.0]
        sidecar.write_text(json.dumps(payload))
        capsys.readouterr()
        fp = write_config(tmp_path, "fp.json", {"data": str(tmp_path / "ds"), "family": "linear"})
        assert main(["fit-predict", "--config", fp]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "spec violation: spec field 'latent_cov' must be a 2-D array, got [1.0]"
        ]

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"predict": [{"x0": [1.5]}]}, "z0 must have shape (1,)"),
            ({"predict": [{"z0": None, "x0": [1.5]}]}, "z0 must have shape (1,)"),
            ({"sigma_eps_delta": [0.1, 0.2]}, "sigma_eps_delta must have shape (1, 1), got (2,)"),
        ],
        ids=["missing_z0", "null_z0", "sigma_eps_delta_size_2"],
    )
    def test_point_that_does_not_fit_exits_3_with_one_line(self, tmp_path, capsys, change, message):
        """A point or cross-covariance of the wrong shape for the fit is a
        dimension error, not a NaN prediction or a failed reshape."""
        config = json.loads((DATA_DIR / "golden_fit_predict_config.json").read_text())
        config.update(change, data=str(DATA_DIR / "golden_dataset"))
        assert main(["fit-predict", "--config", write_config(tmp_path, "fp.json", config)]) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "family, region, line",
        [
            ("quadratic", {}, "config schema error: 'k0' is a required property"),
            ("quadratic", {"k0": 0.7}, "config schema error: 0.7 is greater than the maximum of 0.5"),
            ("quadratic", {"k0": 0}, "config schema error: 0 is less than or equal to the minimum of 0"),
            (
                "linear",
                {"k0": 0.4},
                "spec violation: quadratic_bound regions apply to the quadratic family only",
            ),
        ],
        ids=["no-k0", "k0-above-half", "k0-zero", "linear-family"],
    )
    def test_bad_quadratic_bound_region_exits_2_before_reading_data(
        self, tmp_path, capsys, monkeypatch, family, region, line
    ):
        """A missing floor is not taken as 1/2 (the narrowest interval)."""

        def unreachable(prefix):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "load_dataset", unreachable)
        config = {
            "data": str(tmp_path / "ds"),
            "family": family,
            "predict": [{"x0": 0.5}],
            "regions": [dict(region, kind="quadratic_bound", alpha=0.1)],
        }
        assert main(["fit-predict", "--config", write_config(tmp_path, "fp.json", config)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [line]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    def test_non_finite_sidecar_spec_exits_2_with_one_line(self, tmp_path, capsys, value):
        sim = {"spec": linear_spec_dict(), "n": 50, "seed": 4, "out": str(tmp_path / "ds")}
        assert main(["simulate", "--config", write_config(tmp_path, "sim.json", sim)]) == EXIT_OK
        sidecar = tmp_path / "ds.spec.json"
        payload = json.loads(sidecar.read_text())
        payload["spec"]["latent_cov"] = [[value]]
        sidecar.write_text(json.dumps(payload))
        capsys.readouterr()
        fp = write_config(tmp_path, "fp.json", {"data": str(tmp_path / "ds"), "family": "linear"})
        assert main(["fit-predict", "--config", fp]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"spec violation: every entry of spec field 'latent_cov' must be a finite number, got [[{value}]]"
        ]

    @pytest.mark.parametrize(
        "key, change, value",
        [
            *(
                (key, change, value)
                for key, change in [
                    ("sigma_eps_delta", lambda v: {"sigma_eps_delta": [[v]]}),
                    ("x0", lambda v: {"predict": [{"z0": [0.0], "x0": [1.0]}, {"z0": [0.0], "x0": [v]}]}),
                    ("z0", lambda v: {"predict": [{"z0": [v], "x0": [1.0]}]}),
                ]
                for value in (float("nan"), float("inf"))
            ),
            # NaN passes the schema's bounds on a region's alpha and k0, for no
            # comparison with it is true; an infinity fails them
            ("alpha", lambda v: {"regions": [{"kind": "chebyshev", "alpha": v}]}, float("nan")),
            ("k0", lambda v: {"regions": [{"kind": "quadratic_bound", "alpha": 0.1, "k0": v}]}, float("nan")),
        ],
        ids=[
            *(f"{key}-{value}" for key in ("sigma_eps_delta", "x0", "z0") for value in ("NaN", "Infinity")),
            "alpha-NaN",
            "k0-NaN",
        ],
    )
    def test_non_finite_input_exits_2_before_reading_data(
        self, tmp_path, capsys, monkeypatch, key, change, value
    ):
        """JSON's NaN and Infinity parse as numbers; a prediction input holding
        one is a config error, not a NaN in the report or a runtime error."""

        def unreachable(prefix):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "load_dataset", unreachable)
        config = json.loads((DATA_DIR / "golden_fit_predict_config.json").read_text())
        config.update(change(value), data=str(DATA_DIR / "golden_dataset"))
        assert main(["fit-predict", "--config", write_config(tmp_path, "fp.json", config)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"config error: {key} must hold finite numbers only"]

    def test_ragged_sigma_eps_delta_exits_2_before_reading_data(self, tmp_path, capsys, monkeypatch):
        """The schema admits rows of any lengths; numpy cannot stack ragged ones."""

        def unreachable(prefix):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "load_dataset", unreachable)
        config = json.loads((DATA_DIR / "golden_fit_predict_config.json").read_text())
        config.update(sigma_eps_delta=[[0.1], [0.2, 0.3]], data=str(DATA_DIR / "golden_dataset"))
        assert main(["fit-predict", "--config", write_config(tmp_path, "fp.json", config)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "config error: the rows of sigma_eps_delta must all have the same length"
        ]

    @pytest.mark.parametrize(
        "region, key",
        [
            ({"kind": "chebyshev", "k0": 0.3}, "k0"),
            ({"kind": "chebyshev", "purely_normal": True}, "purely_normal"),
            ({"kind": "chi_square", "k0": 0.3}, "k0"),
            ({"kind": "quadratic_bound", "k0": 0.3, "purely_normal": True}, "purely_normal"),
        ],
        ids=["chebyshev-k0", "chebyshev-purely_normal", "chi_square-k0", "quadratic_bound-purely_normal"],
    )
    def test_region_key_its_kind_does_not_read_exits_2_before_reading_data(
        self, tmp_path, capsys, monkeypatch, region, key
    ):
        def unreachable(prefix):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "load_dataset", unreachable)
        config = {
            "data": str(tmp_path / "ds"),
            "family": "quadratic",
            "predict": [{"x0": 0.5}],
            "regions": [dict(region, alpha=0.1)],
        }
        assert main(["fit-predict", "--config", write_config(tmp_path, "fp.json", config)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"config schema error: Additional properties are not allowed ('{key}' was unexpected)"
        ]

    @pytest.mark.parametrize("data", ["golden_dataset", "missing"])
    def test_polynomial_without_degree_exits_2_before_reading_data(self, tmp_path, capsys, data):
        fp = write_config(tmp_path, "fp.json", {"data": str(DATA_DIR / data), "family": "polynomial"})
        assert main(["fit-predict", "--config", fp]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config schema error: 'degree' is a required property\n"

    @pytest.mark.parametrize(
        "family, sizes, unread",
        [
            ("linear", {"degree": 5, "harmonics": 3}, "degree, harmonics"),
            ("quadratic", {"degree": 4}, "degree"),
            ("polynomial", {"degree": 3, "harmonics": 2}, "harmonics"),
            ("exponential", {"harmonics": 1}, "harmonics"),
            ("trigonometric", {"degree": 2}, "degree"),
            ("absolute_value", {"degree": 2, "harmonics": 2}, "degree, harmonics"),
        ],
    )
    def test_size_key_the_family_does_not_read_exits_2_before_reading_data(
        self, tmp_path, capsys, monkeypatch, family, sizes, unread
    ):
        """A fit reads only its family's own size key: a ``degree`` or
        ``harmonics`` that it would ignore is rejected, not dropped."""

        def unreachable(prefix):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "load_dataset", unreachable)
        config = {"data": str(tmp_path / "ds"), "family": family, "predict": [{"x0": 0.5}], **sizes}
        assert main(["fit-predict", "--config", write_config(tmp_path, "fp.json", config)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"config error: a {family} fit does not read {unread}"]

    def test_degree_above_the_cap_exits_2_before_reading_data(self, tmp_path, capsys, monkeypatch):
        def unreachable(prefix):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "load_dataset", unreachable)
        cap = estimators.MAX_POLY_DEGREE
        config = {"data": str(tmp_path / "ds"), "family": "polynomial", "degree": cap}
        assert cli._load_config(write_config(tmp_path, "cap.json", config), "fit-predict")["degree"] == cap
        config["degree"] = cap + 1
        assert main(["fit-predict", "--config", write_config(tmp_path, "fp.json", config)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"config schema error: {cap + 1} is greater than the maximum of {cap}"
        ]


class TestExperiment:
    def experiment_config(self, tmp_path, **extra):
        payload = {
            "suite": "coverage",
            "spec": linear_spec_dict(),
            "n_grid": [500],
            "replications": 50,
            "alphas": [0.05],
            "master_seed": 11,
            "region_kinds": ["chebyshev", "chi_square"],
            "purely_normal": True,
            "out": str(tmp_path / "report"),
        }
        payload.update(extra)
        if payload["suite"] != "coverage":  # keys only the coverage suite reads
            for key in {"alphas", "region_kinds", "purely_normal"} - extra.keys():
                del payload[key]
        return write_config(tmp_path, "exp.json", payload)

    def test_smoke_grid_completes_quickly(self, tmp_path):
        start = time.perf_counter()
        cfg = self.experiment_config(tmp_path)
        assert main(["experiment", "--config", cfg]) == EXIT_OK
        assert time.perf_counter() - start < 60.0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["experiment"] == "coverage"
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.splitlines()[0] == "experiment,n,alpha,kind,statistic,value,se"

    def test_elapsed_line_is_on_stderr_to_the_millisecond(self, tmp_path, capsys):
        cfg = self.experiment_config(tmp_path, n_grid=[50], replications=5)
        assert main(["experiment", "--config", cfg]) == EXIT_OK
        out, err = capsys.readouterr()
        assert re.fullmatch(r"elapsed: \d+\.\d{3}s", err.splitlines()[-1])
        paths = [(tmp_path / "report").with_suffix(suffix) for suffix in (".json", ".csv")]
        assert out.splitlines() == [str(path) for path in paths]
        assert not any("elapsed" in path.read_text() for path in paths)

    def test_check_pass_and_fail_exit_codes(self, tmp_path):
        ok_cfg = self.experiment_config(
            tmp_path,
            checks=[
                {"statistic": "coverage", "kind": "chebyshev", "alpha": 0.05, "n": 500, "min": 0.9}
            ],
        )
        assert main(["experiment", "--config", ok_cfg, "--check"]) == EXIT_OK
        bad_cfg = self.experiment_config(
            tmp_path,
            checks=[
                {"statistic": "coverage", "kind": "chebyshev", "alpha": 0.05, "n": 500, "min": 1.1}
            ],
        )
        assert main(["experiment", "--config", bad_cfg, "--check"]) == EXIT_CHECK_FAILED

    def test_undefined_slope_gets_no_row(self, tmp_path, capsys):
        """With one sample size the log-log slopes are undefined: the report
        omits their rows, so it holds no NaN, and a check on one finds no row."""
        check = {"statistic": "prediction_error_loglog_slope", "max": 0.0}
        cfg = self.experiment_config(
            tmp_path, suite="consistency", n_grid=[200], replications=5, checks=[check]
        )
        code = main(["experiment", "--config", cfg, "--check"])

        def reject(constant):
            raise ValueError(f"{constant} in the report")

        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        assert [row["statistic"] for row in report["rows"] if "n" not in row] == []
        assert "nan" not in (tmp_path / "report.csv").read_text()
        assert code == EXIT_CHECK_FAILED
        assert f"CHECK FAILED: no report row matches {check}" in capsys.readouterr().err.splitlines()

    def test_seed_override_reproducible(self, tmp_path):
        cfg = self.experiment_config(tmp_path)
        main(["experiment", "--config", cfg, "--seed", "99"])
        first = (tmp_path / "report.json").read_bytes()
        main(["experiment", "--config", cfg, "--seed", "99"])
        assert (tmp_path / "report.json").read_bytes() == first
        main(["experiment", "--config", cfg, "--seed", "100"])
        assert (tmp_path / "report.json").read_bytes() != first

    @pytest.mark.parametrize("seed, alias", [("-1", str(2**64 - 1)), ("5", str(2**70 + 5))])
    def test_seeds_equal_modulo_2_to_the_64_give_the_same_report_rows(self, tmp_path, seed, alias):
        """The streams mask the master seed to 64 bits, so two seeds that agree
        there give the same rows and failures through the batched chunks (40
        and 13 replications at n = 100 and 300) on two workers."""
        cfg = self.experiment_config(tmp_path, n_grid=[100, 300], replications=60)
        reports = []
        for value in (seed, alias):
            assert main(["experiment", "--config", cfg, "--seed", value, "--threads", "2"]) == EXIT_OK
            reports.append(json.loads((tmp_path / "report.json").read_text()))
        assert reports[0]["rows"] == reports[1]["rows"]
        assert reports[0]["failures"] == reports[1]["failures"]
        assert [r["provenance"]["master_seed"] for r in reports] == [int(seed), int(alias)]

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = self.experiment_config(tmp_path)
        main(["experiment", "--config", cfg, "--threads", "1"])
        one = (tmp_path / "report.json").read_bytes()
        main(["experiment", "--config", cfg, "--threads", "3"])
        assert (tmp_path / "report.json").read_bytes() == one

    def test_thread_count_env_var(self, tmp_path, monkeypatch):
        """``EIVPRED_THREADS`` is not read: the worker count is ``--threads``, else 1."""
        counts = []
        run = cli._SUITES["coverage"]
        monkeypatch.setitem(cli._SUITES, "coverage", lambda cfg: counts.append(cfg.threads) or run(cfg))
        monkeypatch.setenv("EIVPRED_THREADS", "3")
        cfg = self.experiment_config(tmp_path, replications=5)
        assert main(["experiment", "--config", cfg]) == EXIT_OK
        assert main(["experiment", "--config", cfg, "--threads", "2"]) == EXIT_OK
        assert counts == [1, 2]

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("-1", "--threads must be a positive integer, got -1"),
            ("0", "--threads must be a positive integer, got 0"),
        ],
        ids=["flag_negative", "flag_zero"],
    )
    def test_bad_thread_count_exits_2_without_report(self, tmp_path, capsys, flag, message):
        """The run stops before any replication."""
        cfg = self.experiment_config(tmp_path)
        assert main(["experiment", "--config", cfg, "--threads", flag]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "report.json").exists()

    def test_non_utf8_config_exits_2_with_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "binary.json"
        cfg.write_bytes(bytes(range(128, 256)))
        assert main(["experiment", "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("config error: 'utf-8' codec can't decode byte 0x80")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("alphas", [1.5], "alphas must lie in (0, 1)"),
            ("latent_cov", [[-1.0]], "latent covariance not PSD"),
        ],
    )
    def test_invalid_experiment_exits_2_without_report(self, tmp_path, capsys, field, value, message):
        extra = {"replications": 5}
        if field == "alphas":
            extra["alphas"] = value
        else:
            extra["spec"] = dict(linear_spec_dict(), latent_cov=value)
        cfg = self.experiment_config(tmp_path, **extra)
        assert main(["experiment", "--config", cfg]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_grid", [], "n_grid must be non-empty and strictly ascending, got []"),
            ("n_grid", [500, 200], "n_grid must be non-empty and strictly ascending, got [500, 200]"),
            ("alphas", [], "alphas must be non-empty"),
            ("region_kinds", [], "region_kinds must be non-empty"),
        ],
        ids=["empty-n_grid", "descending-n_grid", "empty-alphas", "empty-region_kinds"],
    )
    def test_bad_grid_exits_2_with_one_line(self, tmp_path, capsys, field, value, message):
        cfg = self.experiment_config(tmp_path, **{field: value})
        assert main(["experiment", "--config", cfg]) == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"spec violation: {message}"
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize(
        "spec", [make_poly_spec(), make_trig_spec()], ids=["degree-default", "harmonics-default"]
    )
    def test_consistency_fit_size_defaults_to_the_spec(self, tmp_path, capsys, spec):
        """The fit has the spec's own degree (three) or harmonic count (two)."""
        cfg = self.experiment_config(
            tmp_path, suite="consistency", spec=models.spec_to_dict(spec), n_grid=[400], replications=2
        )
        assert main(["experiment", "--config", cfg]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "report.json").read_text())
        rates = [r["value"] for r in report["rows"] if r["statistic"] == "failure_rate"]
        assert rates == [0.0]

    @pytest.mark.parametrize(
        "key, value", [("threads", 2), ("k0", 0.4), ("degree", 2), ("harmonics", 1)]
    )
    def test_run_setting_with_another_home_exits_2_before_the_run(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        """The worker count comes from ``--threads``, the reliability floor and
        the fit size from the spec; the config keys that repeated them are gone."""

        def unreachable(cfg):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(cli._SUITES, "coverage", unreachable)
        cfg = self.experiment_config(tmp_path, **{key: value})
        assert main(["experiment", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"config schema error: Additional properties are not allowed ('{key}' was unexpected)"
        ]

    @pytest.mark.parametrize(
        "suite, extra, unread",
        [
            (
                "consistency",
                {"alphas": [0.5], "region_kinds": ["chebyshev"], "test_subjects": 10},
                "alphas, region_kinds, test_subjects",
            ),
            ("coverage", {"mean_prediction": True, "test_subjects": 10}, "mean_prediction, test_subjects"),
            ("abs_failure", {"fixed_subject": True, "purely_normal": True}, "fixed_subject, purely_normal"),
        ],
        ids=["consistency", "coverage", "abs_failure"],
    )
    def test_key_the_suite_does_not_read_exits_2_before_the_run(
        self, tmp_path, capsys, monkeypatch, suite, extra, unread
    ):
        def unreachable(cfg):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(cli._SUITES, suite, unreachable)
        payload = json.loads(Path(self.experiment_config(tmp_path, suite=suite)).read_text())
        payload.update(extra)
        cfg = write_config(tmp_path, "unread.json", payload)
        assert main(["experiment", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"config error: the {suite} suite does not read {unread}"
        ]

    def test_every_replication_failed_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch):
        def failing(data, family, **options):
            raise NonConvergence(f"no {family} fit at n = {data[0].shape[1]}")

        monkeypatch.setattr(montecarlo, "fit_stack", failing)
        cfg = self.experiment_config(tmp_path, suite="consistency", n_grid=[20], replications=3)
        assert main(["experiment", "--config", cfg]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: all 3 replications failed; first failure: no linear fit at n = 20"
        ]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "how, line",
        [
            ("raise", "internal error: RuntimeError: a defect in a worker"),
            (
                "exit",
                "internal error: BrokenProcessPool: A process in the process pool was terminated "
                "abruptly while the future was running or pending.",
            ),
        ],
    )
    def test_a_failing_worker_process_exits_3_with_one_line(self, tmp_path, how, line):
        """A worker's failure reaches the CLI as one line; the run neither
        hangs nor leaves a process behind."""
        cfg = self.experiment_config(tmp_path)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", _FAIL_IN_WORKER, how, "experiment", "--config", cfg, "--threads", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines() == [line]
        assert done.stdout.split() == [str(EXIT_RUNTIME), "0"]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "suite, spec, n_grid, message",
        [
            ("consistency", linear_spec_dict(), [2, 500], "[2] are below 3, the smallest sample a linear"),
            ("consistency", models.spec_to_dict(make_poly_spec()), [3, 100], "[3] are below 4"),
            ("coverage", models.spec_to_dict(make_exponential_spec()), [1, 2, 400], "[1, 2] are below 3"),
            ("abs_failure", models.spec_to_dict(make_abs_spec()), [3, 400], "[3] are below 4"),
        ],
        ids=["ols-linear", "ols-polynomial", "nls-exponential", "nls-abs_failure"],
    )
    def test_too_small_sample_size_exits_2_before_the_run(
        self, tmp_path, capsys, monkeypatch, suite, spec, n_grid, message
    ):
        def unreachable(cfg):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(cli._SUITES, suite, unreachable)
        cfg = self.experiment_config(tmp_path, suite=suite, spec=spec, n_grid=n_grid)
        assert main(["experiment", "--config", cfg]) == EXIT_CONFIG
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("spec violation: n_grid entries ") and message in line

    def test_degree_above_the_cap_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch):
        """The cap limits the fit, not the spec: ``transform`` still takes the
        spec, and an experiment that would fit it stops before its run."""

        def unreachable(cfg):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(cli._SUITES, "consistency", unreachable)
        cap = estimators.MAX_POLY_DEGREE
        spec = models.spec_to_dict(make_poly_spec(coefs=[0.5, -0.2, 0.1, 0.05, 0.02, 0.01, 0.005][: cap + 1]))
        transform_config = write_config(tmp_path, "transform.json", {"spec": spec})
        assert main(["transform", "--config", transform_config, "--out", str(tmp_path / "t.json")]) == EXIT_OK
        cfg = self.experiment_config(tmp_path, suite="consistency", spec=spec, n_grid=[100])
        assert main(["experiment", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"spec violation: degree {cap + 1} above cap {cap}; raw powers become too ill-conditioned"
        ]
        assert not (tmp_path / "report.json").exists()

    def test_missing_output_prefix_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch):
        def unreachable(cfg):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(cli._SUITES, "coverage", unreachable)
        payload = json.loads(Path(self.experiment_config(tmp_path)).read_text())
        del payload["out"]
        cfg = write_config(tmp_path, "no_out.json", payload)
        assert main(["experiment", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "spec violation: experiment needs an output prefix (config 'out' or --out)"
        ]

    def test_abs_failure_on_another_family_exits_2_with_one_line(self, tmp_path, capsys):
        cfg = self.experiment_config(tmp_path, suite="abs_failure", replications=2)
        assert main(["experiment", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "spec violation: the abs_failure suite needs an absolute_value spec, got linear"
        ]
        assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "command, spec, message",
    [
        (
            "transform",
            dict(models.spec_to_dict(make_poly_spec()), coefs="abc"),
            "spec field 'coefs' must be a numeric array, got 'abc'",
        ),
        (
            "simulate",
            dict(linear_spec_dict(), z_dist=dict(linear_spec_dict()["z_dist"], df=3)),
            "unknown spec z_dist field 'df'",
        ),
        (
            "experiment",
            dict(models.spec_to_dict(make_quadratic_spec()), latent_var="x"),
            "spec field 'latent_var' must be a number, got 'x'",
        ),
        (
            "transform",
            dict(linear_spec_dict(), latent_cov=[1.0]),
            "spec field 'latent_cov' must be a 2-D array, got [1.0]",
        ),
        (
            "simulate",
            dict(linear_spec_dict(), z_dist=dict(linear_spec_dict()["z_dist"], cov=1.0)),
            "spec z_dist field 'cov' must be a 2-D array, got 1.0",
        ),
        (
            "experiment",
            dict(linear_spec_dict(), errors=dict(linear_spec_dict()["errors"], sigma_e=[[[0.0]]])),
            "spec errors field 'sigma_e' must be a 2-D array, got [[[0.0]]]",
        ),
        # JSON's NaN and Infinity parse as numbers
        *(
            (
                command,
                dict(models.spec_to_dict(make_quadratic_spec()), latent_var=value),
                f"spec field 'latent_var' must be a finite number, got {value}",
            )
            for value in (float("nan"), float("inf"))
            for command in ("transform", "simulate", "experiment")
        ),
    ],
    ids=[
        "transform-coefs-str",
        "simulate-z_dist-unknown-key",
        "experiment-latent_var-str",
        "transform-latent_cov-flat",
        "simulate-z_dist-cov-number",
        "experiment-sigma_e-3d",
        *(f"{command}-latent_var-{value}" for value in ("NaN", "Infinity")
          for command in ("transform", "simulate", "experiment")),
    ],
)
def test_malformed_spec_value_exits_2_with_one_line(tmp_path, capsys, command, spec, message):
    out = str(tmp_path / "report")
    config = {
        "transform": {"spec": spec},
        "simulate": {"spec": spec, "n": 10, "seed": 1, "out": out},
        "experiment": {
            "suite": "consistency",
            "spec": spec,
            "n_grid": [200],
            "replications": 2,
            "master_seed": 1,
            "out": out,
        },
    }[command]
    assert main([command, "--config", write_config(tmp_path, "c.json", config)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"spec violation: {message}"]
    assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]


@pytest.mark.parametrize(
    "command, key, value",
    [("experiment", "replications", 20.0), ("simulate", "n", 100.0), ("simulate", "seed", 5.0)],
    ids=["experiment-replications", "simulate-n", "simulate-seed"],
)
def test_integer_valued_float_exits_2_with_one_line(tmp_path, capsys, command, key, value):
    """JSON Schema counts 20.0 as an integer; a config's integer is a JSON
    integer, since the CLI passes it on where Python needs an int."""
    out = str(tmp_path / "report")
    config = {
        "simulate": {"spec": linear_spec_dict(), "n": 10, "seed": 1, "out": out},
        "experiment": {
            "suite": "consistency",
            "spec": linear_spec_dict(),
            "n_grid": [200],
            "replications": 2,
            "master_seed": 1,
            "out": out,
        },
    }[command]
    config[key] = value
    assert main([command, "--config", write_config(tmp_path, "c.json", config)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"config schema error: {value!r} is not of type 'integer'"]
    assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]


_DEAD_FLAGS = [
    ("simulate", ["--check"]),
    ("simulate", ["--threads", "2"]),
    ("transform", ["--seed", "3"]),
    ("transform", ["--check"]),
    ("transform", ["--threads", "5"]),
    ("fit-predict", ["--seed", "3"]),
    ("fit-predict", ["--check"]),
    ("fit-predict", ["--threads", "2"]),
]


@pytest.mark.parametrize(
    "command, flag", _DEAD_FLAGS, ids=[f"{command}{flag[0]}" for command, flag in _DEAD_FLAGS]
)
def test_flag_the_command_does_not_read_exits_2_before_any_work(tmp_path, capsys, command, flag):
    """Each subcommand accepts only the flags its command reads; the config
    is not even opened."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(tmp_path / "missing.json"), *flag])
    assert exc.value.code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"eivpred: error: unrecognized arguments: {' '.join(flag)}"
    )


def test_fit_predict_and_coverage_build_the_same_regions(tmp_path, capsys, monkeypatch):
    """Both paths get their regions from predictors.build_region: on the same
    fit and point, every kind has the same threshold and shape."""
    seen = []

    def first(value):
        """The first fit's part of a prediction or region built on a stack."""
        arrays = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return dataclasses.replace(
            value, **{k: v[0] for k, v in arrays.items() if isinstance(v, np.ndarray)}
        )

    def recording_fit(data, family, **options):
        stack = estimators.fit_stack(data, family, **options)
        y, z, x = data
        seen.append((models.Dataset(y=y[0], z=z[0], x=x[0], seed=0), stack[0]))
        return stack

    def recording_region(kind, stack, preds, alpha, **options):
        region = predictors.build_region(kind, stack, preds, alpha, **options)
        seen.append((first(preds), first(region)))
        return region

    monkeypatch.setattr(montecarlo, "fit_stack", recording_fit)
    monkeypatch.setattr(montecarlo, "build_region", recording_region)
    spec = make_quadratic_spec(reliability_floor=0.4)
    cfg = montecarlo.ExperimentConfig(
        spec=spec,
        n_grid=(400,),
        replications=1,
        alphas=(0.1,),
        master_seed=5,
        region_kinds=predictors.REGION_KINDS,
        purely_normal=True,
    )
    assert montecarlo.run_coverage(cfg).failures == []
    (data, fit), *built = seen
    assert [region.kind for _, region in built] == list(predictors.REGION_KINDS)

    models.save_dataset(data, spec, tmp_path / "replication")
    regions = [
        {"kind": "chebyshev", "alpha": 0.1},
        {"kind": "chi_square", "alpha": 0.1, "purely_normal": True},
        {"kind": "quadratic_bound", "alpha": 0.1, "k0": 0.4},
    ]
    point = {"x0": built[0][0].x0.tolist()}
    fp_config = {
        "data": str(tmp_path / "replication"),
        "family": "quadratic",
        "predict": [point],
        "regions": regions,
    }
    fp = write_config(tmp_path, "fp.json", fp_config)
    assert main(["fit-predict", "--config", fp]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["fit"]["params"] == params_to_dict(fit.params)
    for (_, region), entry in zip(built, report["predictions"][0]["regions"], strict=True):
        assert entry["kind"] == region.kind
        assert entry["threshold"] == region.threshold
        assert entry["shape"] == (None if region.shape is None else region.shape.tolist())


@pytest.mark.parametrize("error", [OverflowError, FloatingPointError, np.linalg.LinAlgError])
def test_numeric_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch, error):
    def failing(spec):
        raise error("numbers went wrong")

    monkeypatch.setattr(cli, "transform", failing)
    cfg = write_config(tmp_path, "tr.json", {"spec": linear_spec_dict()})
    assert main(["transform", "--config", cfg]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.splitlines() == [f"numeric error: {error.__name__}: numbers went wrong"]


def test_unexpected_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    def failing(config, args):
        raise ValueError("an unforeseen defect")

    monkeypatch.setitem(cli._COMMANDS, "transform", failing)
    cfg = write_config(tmp_path, "tr.json", {"spec": linear_spec_dict()})
    assert main(["transform", "--config", cfg]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.splitlines() == ["internal error: ValueError: an unforeseen defect"]
    assert "Traceback" not in err
