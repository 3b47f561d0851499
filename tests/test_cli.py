import base64
import binascii
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import apply_superoperator, site_channels, write_channel_model
from qdev import cli, fileio
from qdev.cli import main
from qdev.linalg import ValidationError
from qdev.models import appendix_b_fixtures, heat_bath


def write_setup(path, directions, q):
    Path(path).write_text(json.dumps({"directions": directions, "q": q}))


def write_config(path, **kwargs):
    Path(path).write_text(json.dumps(kwargs))


ZZ = fileio.encode_complex_matrix(np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])))
LATTICE = {"n_sites": 2, "local_dim": 2, "beta": 0.5, "terms": [{"support": [0, 1], "matrix": ZZ}]}


def verify_manifest(path) -> bool:
    """Recompute the SHA-256 of every input a manifest records; True when
    all match."""
    for input_path, recorded in json.loads(Path(path).read_text())["inputs"].items():
        if hashlib.sha256(Path(input_path).read_bytes()).hexdigest() != recorded:
            return False
    return True


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture()
def scalar_model(workdir):
    fileio.save_model("scalar.json", hamiltonian=np.zeros((1, 1)),
                      jumps=[np.zeros((1, 1), dtype=complex)])
    write_setup("setup.json", [[1.0]], 1)
    return workdir


class TestModelNew:
    def test_depolarizing_roundtrip(self, workdir):
        assert main(["model", "new", "--template", "depolarizing", "--dim", "3",
                     "-o", "depol.json"]) == 0
        model = fileio.load_model("depol.json")
        assert model.template == "depolarizing"
        assert model.context.primitive
        assert np.allclose(model.context.sigma, np.eye(3) / 3, atol=1e-9)
        assert Path("depol.json.manifest.json").exists()

    def test_classical_template(self, workdir):
        Path("rates.json").write_text(json.dumps([[-1.0, 1.0], [0.5, -0.5]]))
        assert main(["model", "new", "--template", "classical",
                     "--rates-file", "rates.json", "-o", "chain.json"]) == 0
        model = fileio.load_model("chain.json")
        assert np.allclose(np.diag(model.context.sigma).real,
                           [1 / 3, 2 / 3], atol=1e-9)

    def test_appendix_b_template(self, workdir):
        assert main(["model", "new", "--template", "appendix-b", "--which", "p-channel",
                     "--p", "0.3", "-o", "pchan.json"]) == 0
        model = fileio.load_model("pchan.json")
        assert np.allclose(model.context.sigma, np.diag([0.3, 0.7]), atol=1e-9)

    def test_heat_bath_template(self, workdir):
        Path("lattice.json").write_text(json.dumps(LATTICE))
        assert main(["model", "new", "--template", "heat-bath",
                     "--lattice-file", "lattice.json", "-o", "hb.json"]) == 0
        model = fileio.load_model("hb.json")
        residual = np.max(np.abs(apply_superoperator(model.context.heisenberg.conj().T,
                                                     model.context.sigma)))
        assert residual < 1e-9
        direct = heat_bath(fileio.load_lattice("lattice.json")).heisenberg_superoperator()
        assert np.max(np.abs(model.context.heisenberg - direct)) <= 1e-12
        assert fileio.load_json("hb.json")["kind"] == "lindblad"

    def test_heat_bath_channel_difference_file_still_loads(self, workdir):
        # The earlier spelling of a heat-bath model: the unital channel
        # sum_v Psi_v - (n - 1) id, whose difference with id is the generator.
        Path("lattice.json").write_text(json.dumps(LATTICE))
        lind = heat_bath(fileio.load_lattice("lattice.json"))
        channel = sum(site_channels(lind, 2)) - np.eye(16)
        write_channel_model("old.json", channel, template="heat-bath")
        old = fileio.load_model("old.json").context
        assert np.max(np.abs(old.heisenberg - lind.heisenberg_superoperator())) <= 1e-12
        # That channel is not CP, but its difference with id is conditionally
        # CP: it decodes to 7 traceless jumps.
        assert old.lindbladian.k == 7

    def test_heat_bath_model_reaches_every_verb(self, workdir):
        Path("lattice.json").write_text(json.dumps(LATTICE))
        assert main(["model", "new", "--template", "heat-bath",
                     "--lattice-file", "lattice.json", "-o", "hb.json"]) == 0
        # Jump 1 of site 0 against jump 2, so the Brownian mean is zero.
        direction = [0.0] * 8
        direction[1] = direction[2] = 1.0 / math.sqrt(2.0)
        write_setup("setup.json", [direction], 1)
        write_config("config.json", dt=1e-2, t_max=0.5, n_paths=50, base_seed=3)
        assert main(["bound", "--model", "hb.json", "--setup", "setup.json",
                     "--r", "0.3", "--t", "1", "-o", "bound.csv"]) == 0
        assert main(["rate", "--model", "hb.json", "--setup", "setup.json",
                     "--grid=-0.5:0.5:3", "-o", "rate.csv"]) == 0
        assert main(["simulate", "--model", "hb.json", "--setup", "setup.json",
                     "--config", "config.json", "--r", "0.3", "-o", "sim.csv"]) == 0
        for name in ("bound.csv", "rate.csv", "sim.csv"):
            assert {row["status"] for row in fileio.read_csv(name)[1]} == {"ok"}
        assert main(["model", "new", "--template", "tensor", "--factors", "hb.json", "hb.json",
                     "-o", "pair.json"]) == 0
        assert fileio.load_model("pair.json").context.dim == 16

    @pytest.mark.parametrize("lattice", [
        {k: v for k, v in LATTICE.items() if k != "terms"},
        {k: v for k, v in LATTICE.items() if k != "n_sites"},
        {**LATTICE, "terms": {"support": [0, 1], "matrix": ZZ}},
        {**LATTICE, "terms": [{"matrix": ZZ}]},
        {**LATTICE, "terms": [{"support": [0, 1]}]},
        {**LATTICE, "terms": [{"support": "01", "matrix": ZZ}]},
        {**LATTICE, "terms": [{"support": [0, 0], "matrix": ZZ}]},
        {**LATTICE, "terms": [{"support": [0], "matrix": ZZ}]},
        {**LATTICE, "local_dim": "two"},
        {**LATTICE, "beta": math.nan},
        {**LATTICE, "n_sites": 40},
        {**LATTICE, "n_sites": 2.5},
        {**LATTICE, "local_dim": 2.5},
    ], ids=["no-terms", "no-n_sites", "terms-object", "no-support", "no-matrix",
            "support-string", "support-repeated", "matrix-size", "local_dim-string",
            "beta-nan", "beyond-guard", "n_sites-fraction", "local_dim-fraction"])
    def test_malformed_lattice_rejected(self, workdir, capsys, lattice):
        Path("lattice.json").write_text(json.dumps(lattice))
        assert main(["model", "new", "--template", "heat-bath",
                     "--lattice-file", "lattice.json", "-o", "hb.json"]) == 1
        assert json.loads(capsys.readouterr().err.strip())["code"] == "validation"
        assert not Path("hb.json").exists()

    @pytest.mark.parametrize("rates", [{"rates": [[-1.0, 1.0], [0.5, -0.5]]}, [[-1.0, 1.0], [0.5]],
                                       [[-1.0, "x"], [0.5, -0.5]], [[-1.0, 1.0], [math.inf, -0.5]]],
                             ids=["object", "ragged", "string", "inf"])
    def test_malformed_rates_rejected(self, workdir, capsys, rates):
        Path("rates.json").write_text(json.dumps(rates))
        assert main(["model", "new", "--template", "classical",
                     "--rates-file", "rates.json", "-o", "chain.json"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation" and "rates.json" in err["message"]
        assert not Path("chain.json").exists()

    def test_non_finite_sigma_rejected(self, workdir, capsys):
        rho = np.diag([0.5, math.inf]).astype(complex)
        Path("sigma.json").write_text(json.dumps({"dim": 2, "rho": fileio.encode_complex_matrix(rho)}))
        assert main(["model", "new", "--template", "depolarizing", "--sigma", "sigma.json",
                     "-o", "depol.json"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation" and "rho" in err["message"]
        assert not Path("depol.json").exists()

    def test_tensor_template(self, workdir):
        main(["model", "new", "--template", "depolarizing", "--dim", "2", "-o", "one.json"])
        assert main(["model", "new", "--template", "tensor", "--factors", "one.json",
                     "one.json", "-o", "two.json"]) == 0
        model = fileio.load_model("two.json")
        assert model.context.dim == 4


class TestAppendixBModels:
    """The appendix-B channel-difference models, held as jumps, reach every
    verb that needs a jump-form generator."""

    JUMPS = {"psi": 3, "psi-tilde": 3, "p-channel": 2}

    def model(self, which):
        """m.json for the channel, and setup.json: one Brownian channel along jump 0."""
        assert main(["model", "new", "--template", "appendix-b", "--which", which, "-o", "m.json"]) == 0
        write_setup("setup.json", [[1.0] + [0.0] * (self.JUMPS[which] - 1)], 1)

    @pytest.mark.parametrize("which", ["psi", "psi-tilde", "p-channel"])
    def test_template_writes_jump_form(self, workdir, which):
        self.model(which)
        doc = fileio.load_json("m.json")
        assert doc["kind"] == "lindblad" and doc["template"] == f"appendix-b:{which}"
        assert len(doc["jumps"]) == self.JUMPS[which]
        fx = appendix_b_fixtures()
        channel = {"psi": fx.psi, "psi-tilde": fx.psi_tilde, "p-channel": fx.p_channel}[which]
        heis = fileio.load_model("m.json").context.heisenberg
        assert np.max(np.abs(heis - (channel - np.eye(4)))) <= 1e-12

    @pytest.mark.parametrize("which", ["psi", "psi-tilde", "p-channel"])
    def test_bound_and_simulate(self, workdir, which):
        self.model(which)
        write_config("config.json", dt=1e-2, t_max=0.5, n_paths=50, base_seed=3)
        assert main(["bound", "--model", "m.json", "--setup", "setup.json",
                     "--r", "0.3", "--t", "1", "-o", "bound.csv"]) == 0
        assert main(["simulate", "--model", "m.json", "--setup", "setup.json",
                     "--config", "config.json", "--r", "0.3", "-o", "sim.csv"]) == 0
        for name in ("bound.csv", "sim.csv"):
            assert {row["status"] for row in fileio.read_csv(name)[1]} == {"ok"}

    @pytest.mark.parametrize("which", ["psi", "p-channel"])
    def test_rate(self, workdir, which):
        self.model(which)
        assert main(["rate", "--model", "m.json", "--setup", "setup.json",
                     "--grid=-0.5:0.5:3", "-o", "rate.csv"]) == 0
        assert len(fileio.read_csv("rate.csv")[1]) == 3

    def test_rate_refuses_psi_tilde(self, workdir, capsys):
        # psi-tilde is BKM- but not KMS-symmetric
        self.model("psi-tilde")
        assert main(["rate", "--model", "m.json", "--setup", "setup.json",
                     "--grid=-0.5:0.5:3", "-o", "rate.csv"]) == 1
        assert "KMS-symmetric" in json.loads(capsys.readouterr().err.strip())["message"]

    @pytest.mark.parametrize("which", ["psi", "psi-tilde", "p-channel"])
    def test_inequalities_setup_is_not_ignored(self, workdir, capsys, which):
        self.model(which)
        assert main(["inequalities", "--model", "m.json", "-o", "report"]) == 0
        assert "bohr_frequencies" in json.loads(Path("report.json").read_text())
        capsys.readouterr()
        code = main(["inequalities", "--model", "m.json", "--setup", "setup.json", "-o", "lip"])
        if code == 0:
            assert len(json.loads(Path("lip.json").read_text())["tilde_lipschitz"]) == 1
        else:
            assert code == 1
            assert "jumps are not modular eigenvectors" in json.loads(capsys.readouterr().err.strip())["message"]

    def test_non_cp_channel_file_refused(self, workdir, capsys):
        # Psi(X) = 0.1 Tr(X) id + 0.8 X^T is unital, but Psi - id is not
        # conditionally completely positive.
        w = np.eye(2).reshape(-1)
        write_channel_model("noncp.json", 0.1 * np.outer(w, w) + 0.8 * np.eye(4)[[0, 2, 1, 3]])
        assert main(["inequalities", "--model", "noncp.json", "-o", "report"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation" and "noncp.json" in err["message"]
        assert "not conditionally completely positive" in err["message"]
        assert not Path("report.json").exists()


class TestBoundVerb:
    def test_gaussian_bound_rows(self, scalar_model, capsys):
        code = main(["bound", "--model", "scalar.json", "--setup", "setup.json",
                     "--r", "1.0", "--t", "1,2,4", "-o", "bound.csv"])
        assert code == 0
        header, rows = fileio.read_csv("bound.csv")
        assert header == ["t", "r0", "exponent", "prefactor", "bound", "residual", "status"]
        assert len(rows) == 3
        assert float(rows[0]["residual"]) <= 1e-12 and rows[0]["status"] == "ok"
        assert float(rows[0]["exponent"]) == pytest.approx(0.5, abs=1e-10)
        assert float(rows[2]["bound"]) == pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_negative_r_names_index(self, scalar_model, capsys):
        code = main(["bound", "--model", "scalar.json", "--setup", "setup.json",
                     "--r", "-0.5", "--t", "1", "-o", "bound.csv"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation"
        assert "entry 0 is -0.5" in err["message"]

    @pytest.mark.parametrize("flag, value", [("--r", "nan"), ("--r", "inf"), ("--t", "1,nan"),
                                             ("--t", "-inf"), ("--t", "-1"), ("--t", ",")])
    def test_non_finite_input_rejected(self, scalar_model, capsys, flag, value):
        args = {"--r": "1.0", "--t": "1"}
        args[flag] = value
        code = main(["bound", "--model", "scalar.json", "--setup", "setup.json",
                     "--r", args["--r"], "--t", args["--t"], "-o", "bound.csv"])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["code"] == "validation"
        assert not Path("bound.csv").exists()

    @pytest.mark.parametrize("spelling", ["nested", "packed"])
    def test_non_finite_model_rejected(self, scalar_model, capsys, spelling):
        doc = fileio.load_json("scalar.json")
        jump = np.array([[complex(math.nan, 0.0)]])
        doc["jumps"] = [fileio.encode_complex_matrix(jump) if spelling == "nested"
                        else base64.b64encode(jump.tobytes()).decode()]
        Path("scalar.json").write_text(json.dumps(doc))
        code = main(["bound", "--model", "scalar.json", "--setup", "setup.json",
                     "--r", "1.0", "--t", "1", "-o", "bound.csv"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation" and "jumps[0]" in err["message"]
        assert not Path("bound.csv").exists()

    @pytest.mark.parametrize("rho, message", [
        (2 * np.eye(3) / 3, "trace 2.0 differs from 1"),
        (np.array([[0.4, 0.3, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.3]]), "deviates from Hermitian"),
        (np.diag([0.6, 0.5, -0.1]), "eigenvalue -1.000e-01"),
    ], ids=["trace-2", "non-hermitian", "negative-eigenvalue"])
    def test_state_that_is_not_a_state_rejected(self, workdir, capsys, rho, message):
        # The prefactor ||Gamma^(-1)(rho)|| bounds the tail only for a state,
        # and a trajectory starts only from one; the error names the file.
        assert main(["model", "new", "--template", "depolarizing", "--dim", "3",
                     "-o", "qutrit.json"]) == 0
        capsys.readouterr()
        write_setup("setup.json", [[0.0, 1.0] + [0.0] * 7], 1)
        write_config("config.json", dt=1e-2, t_max=0.1, n_paths=4, base_seed=1)
        Path("state.json").write_text(json.dumps({"dim": 3, "rho": fileio.encode_complex_matrix(rho)}))
        common = ["--model", "qutrit.json", "--setup", "setup.json", "--state", "state.json", "--r", "0.3"]
        for verb, extra in (("bound", ["--t", "1"]), ("simulate", ["--config", "config.json"])):
            code = main([verb, *common, *extra, "-o", f"{verb}.csv"])
            assert code == 1
            err = json.loads(capsys.readouterr().err.strip())
            assert err["code"] == "validation" and message in err["message"]
            assert "state.json:rho" in err["message"]
            assert "np.float64" not in err["message"]
            assert not Path(f"{verb}.csv").exists()

    def test_missing_model_file(self, workdir, capsys):
        code = main(["bound", "--model", "nope.json", "--setup", "nope.json",
                     "--r", "1", "--t", "1", "-o", "out.csv"])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["code"] == "validation"

    def test_malformed_json_reports_path(self, workdir, capsys):
        Path("bad.json").write_text("{not json")
        code = main(["bound", "--model", "bad.json", "--setup", "bad.json",
                     "--r", "1", "--t", "1", "-o", "out.csv"])
        assert code == 1
        assert "bad.json" in json.loads(capsys.readouterr().err.strip())["message"]


class TestRateVerb:
    def test_grid_rows(self, scalar_model):
        code = main(["rate", "--model", "scalar.json", "--setup", "setup.json",
                     "--grid=-1:1:5", "-o", "rate.csv"])
        assert code == 0
        header, rows = fileio.read_csv("rate.csv")
        assert header == ["s0", "rate", "residual", "status"]
        assert len(rows) == 5
        values = [float(r["rate"]) for r in rows]
        grid = np.linspace(-1, 1, 5)
        assert np.allclose(values, grid**2 / 2, atol=1e-8)

    def test_grid_with_negative_lower_end_as_separate_argument(self, scalar_model):
        for grid, out in ((["--grid", "-0.5:0.5:3"], "spaced.csv"), (["--grid=-0.5:0.5:3"], "joined.csv")):
            assert main(["rate", "--model", "scalar.json", "--setup", "setup.json", *grid,
                         "-o", out]) == 0
        assert fileio.read_csv("spaced.csv") == fileio.read_csv("joined.csv")

    def test_non_finite_grid_rejected(self, scalar_model, capsys):
        Path("grid.json").write_text("[[0.5], [NaN]]")
        for grid in (["--grid-file", "grid.json"], ["--grid=nan:1:5"], ["--grid=0:inf:5"]):
            code = main(["rate", "--model", "scalar.json", "--setup", "setup.json", *grid,
                         "-o", "rate.csv"])
            assert code == 1
            assert json.loads(capsys.readouterr().err.strip())["code"] == "validation"
        assert not Path("rate.csv").exists()

    @pytest.mark.parametrize("grid", [{"points": [[0.5]]}, [[0.5], [1.0, 2.0]], "0.5"],
                             ids=["object", "ragged", "string"])
    def test_malformed_grid_file_rejected(self, scalar_model, capsys, grid):
        Path("grid.json").write_text(json.dumps(grid))
        code = main(["rate", "--model", "scalar.json", "--setup", "setup.json",
                     "--grid-file", "grid.json", "-o", "rate.csv"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation" and "grid.json" in err["message"]
        assert not Path("rate.csv").exists()

    def test_empty_grid_rejected(self, scalar_model, capsys):
        code = main(["rate", "--model", "scalar.json", "--setup", "setup.json",
                     "--grid", "0:1:0", "-o", "rate.csv"])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["code"] == "validation"
        assert not Path("rate.csv").exists()


class TestNonObjectJson:
    @pytest.mark.parametrize("verb,name,doc", [
        ("bound", "model", "x"),
        ("bound", "setup", [1, 2]),
        ("simulate", "config", [1, 2]),
        ("simulate", "model", 3),
    ])
    def test_top_level_must_be_object(self, scalar_model, capsys, verb, name, doc):
        write_config("config.json", dt=1e-2, t_max=1.0, n_paths=5, base_seed=1)
        Path(f"bad-{name}.json").write_text(json.dumps(doc))
        files = {"model": "scalar.json", "setup": "setup.json", "config": "config.json"}
        files[name] = f"bad-{name}.json"
        args = [verb, "--model", files["model"], "--setup", files["setup"], "--r", "0.5"]
        args += ["--t", "1"] if verb == "bound" else ["--config", files["config"]]
        code = main(args + ["-o", "out.csv"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation"
        assert f"bad-{name}.json" in err["message"] and "JSON object" in err["message"]


class TestMalformedFields:
    @pytest.mark.parametrize("name, field, value", [
        ("scalar.json", "dim", "x"), ("scalar.json", "jumps", 3), ("setup.json", "q", "one"),
        ("setup.json", "directions", {"a": 1}), ("scalar.json", "dim", 1.5), ("setup.json", "q", 1.6),
        ("setup.json", "q", True)])
    def test_model_and_setup_fields_rejected(self, scalar_model, capsys, name, field, value):
        doc = fileio.load_json(name)
        doc[field] = value
        Path(name).write_text(json.dumps(doc))
        code = main(["bound", "--model", "scalar.json", "--setup", "setup.json",
                     "--r", "1", "--t", "1", "-o", "bound.csv"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation" and name in err["message"] and field in err["message"]

    def test_integral_numbers_load_as_integers(self, scalar_model):
        write_config("config.json", dt=1e-2, t_max=1.0, n_paths=3.0, base_seed=1.0)
        write_setup("setup.json", [[1.0]], 1.0)
        doc = fileio.load_json("scalar.json")
        doc["dim"] = 1.0
        Path("scalar.json").write_text(json.dumps(doc))
        assert main(["simulate", "--model", "scalar.json", "--setup", "setup.json",
                     "--config", "config.json", "--r", "0.5", "-o", "sim.csv"]) == 0
        config = fileio.load_config("config.json")
        assert (config.n_paths, config.base_seed) == (3, 1)
        assert type(config.n_paths) is int and type(config.base_seed) is int

    def test_sigma_dim_rejected(self, workdir, capsys):
        rho = fileio.encode_complex_matrix(np.eye(2) / 2)
        Path("sigma.json").write_text(json.dumps({"dim": "two", "rho": rho}))
        assert main(["model", "new", "--template", "depolarizing", "--sigma", "sigma.json",
                     "-o", "depol.json"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation" and "dim" in err["message"]

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_depolarizing_dim_below_one_rejected(self, workdir, capsys, dim):
        assert main(["model", "new", "--template", "depolarizing", "--dim", dim,
                     "-o", "depol.json"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation" and f"--dim must be at least 1, got {dim}" in err["message"]
        assert not Path("depol.json").exists()

    @pytest.mark.parametrize("source", ["dim", "sigma"])
    def test_depolarizing_guard_checked_before_any_state(self, workdir, capsys, monkeypatch, source):
        def refuse(*args, **kwargs):
            raise AssertionError("a state was built or loaded before the dimension guard")

        monkeypatch.setattr(cli, "maximally_mixed", refuse)
        monkeypatch.setattr(fileio, "load_state", refuse)
        if source == "dim":
            argv = ["--dim", "2000"]
        else:
            Path("sigma.json").write_text(json.dumps(
                {"dim": 2000, "rho": fileio.encode_complex_matrix(np.eye(2) / 2)}))
            argv = ["--sigma", "sigma.json"]
        assert main(["model", "new", "--template", "depolarizing", *argv, "-o", "depol.json"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation" and "dimension 2000 exceeds guard 64" in err["message"]
        assert not Path("depol.json").exists()

    @pytest.mark.parametrize("dims", [(2, 2, 3), (2, 3, 3)], ids=["ragged-jumps", "jumps-vs-hamiltonian"])
    def test_jump_size_mismatch_rejected(self, scalar_model, capsys, dims):
        hdim, *jdims = dims
        doc = {"kind": "lindblad", "dim": hdim,
               "hamiltonian": fileio.encode_complex_matrix(np.zeros((hdim, hdim))),
               "jumps": [fileio.encode_complex_matrix(np.eye(n)) for n in jdims]}
        Path("scalar.json").write_text(json.dumps(doc))
        code = main(["bound", "--model", "scalar.json", "--setup", "setup.json",
                     "--r", "1", "--t", "1", "-o", "bound.csv"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        bad = jdims.index(3)
        assert err["code"] == "validation" and f"jumps[{bad}]" in err["message"]
        assert not Path("bound.csv").exists()

    @pytest.mark.parametrize("source", ["dim", "sigma"])
    def test_depolarizing_above_guard_rejected(self, workdir, capsys, source):
        # d = 65: the state is 65 x 65; the d^2 jumps are never built.
        if source == "dim":
            args = ["--dim", "65"]
        else:
            Path("sigma.json").write_text(json.dumps(
                {"dim": 65, "rho": fileio.encode_complex_matrix(np.eye(65) / 65)}))
            args = ["--sigma", "sigma.json"]
        assert main(["model", "new", "--template", "depolarizing", *args, "-o", "depol.json"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation" and "exceeds guard 64" in err["message"]
        assert not Path("depol.json").exists()

    def test_env_seed_rejected(self, scalar_model, capsys, monkeypatch):
        monkeypatch.setenv("QDEV_SEED", "abc")
        write_config("config.json", dt=1e-2, t_max=1.0, n_paths=5)
        code = main(["simulate", "--model", "scalar.json", "--setup", "setup.json",
                     "--config", "config.json", "--r", "1.0", "-o", "sim.csv"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation" and "QDEV_SEED" in err["message"]


class TestSimulateVerb:
    def test_seed_is_mandatory(self, scalar_model, capsys, monkeypatch):
        monkeypatch.delenv("QDEV_SEED", raising=False)
        write_config("config.json", dt=1e-2, t_max=1.0, n_paths=50)
        code = main(["simulate", "--model", "scalar.json", "--setup", "setup.json",
                     "--config", "config.json", "--r", "1.0", "-o", "sim.csv"])
        assert code == 1
        assert "base_seed" in json.loads(capsys.readouterr().err.strip())["message"]

    def test_env_seed_honored_and_flag_overrides(self, scalar_model, monkeypatch):
        write_config("config.json", dt=1e-2, t_max=1.0, n_paths=50)
        monkeypatch.setenv("QDEV_SEED", "123")
        assert main(["simulate", "--model", "scalar.json", "--setup", "setup.json",
                     "--config", "config.json", "--r", "1.0", "-o", "env.csv"]) == 0
        assert main(["simulate", "--model", "scalar.json", "--setup", "setup.json",
                     "--config", "config.json", "--r", "1.0", "--seed", "123",
                     "-o", "flag.csv"]) == 0
        assert Path("env.csv").read_bytes() == Path("flag.csv").read_bytes()
        manifest = json.loads(Path("flag.csv.manifest.json").read_text())
        assert manifest["base_seed"] == 123

    @pytest.mark.parametrize("source", ["config", "flag", "env"])
    def test_negative_seed_rejected(self, scalar_model, capsys, monkeypatch, source):
        monkeypatch.delenv("QDEV_SEED", raising=False)
        write_config("config.json", dt=1e-2, t_max=1.0, n_paths=5,
                     **({"base_seed": -3} if source == "config" else {}))
        args = ["simulate", "--model", "scalar.json", "--setup", "setup.json",
                "--config", "config.json", "--r", "1.0", "-o", "sim.csv"]
        if source == "flag":
            args += ["--seed", "-5"]
        elif source == "env":
            monkeypatch.setenv("QDEV_SEED", "-7")
        assert main(args) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation" and "base_seed" in err["message"]
        assert not Path("sim.csv").exists()

    def test_byte_identical_reruns_and_threads(self, scalar_model):
        write_config("config.json", dt=1e-2, t_max=2.0, n_paths=400, base_seed=7,
                     checkpoints=[1.0, 2.0])
        args = ["simulate", "--model", "scalar.json", "--setup", "setup.json",
                "--config", "config.json", "--r", "0.5"]
        assert main(args + ["-o", "a.csv"]) == 0
        assert main(args + ["-o", "b.csv"]) == 0
        assert main(["--threads", "4"] + args + ["-o", "c.csv"]) == 0
        a = Path("a.csv").read_bytes()
        assert a == Path("b.csv").read_bytes() == Path("c.csv").read_bytes()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, scalar_model, capsys, threads):
        write_config("config.json", dt=1e-2, t_max=1.0, n_paths=3, base_seed=1)
        code = main(["--threads", threads, "simulate", "--model", "scalar.json", "--setup",
                     "setup.json", "--config", "config.json", "--r", "0.5", "-o", "sim.csv"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation"
        assert f"--threads must be at least 1, got {threads}" in err["message"]
        assert not Path("sim.csv").exists()

    def test_paths_dump(self, scalar_model, monkeypatch):
        # two-path blocks, so that --threads 4 really splits the ensemble
        monkeypatch.setattr("qdev.trajectories.BLOCK_PATHS", 2)
        write_config("config.json", dt=1e-2, t_max=1.0, n_paths=3, base_seed=1,
                     checkpoints=[0.5, 1.0])
        args = ["simulate", "--model", "scalar.json", "--setup", "setup.json",
                "--config", "config.json", "--r", "0.5", "-o", "sim.csv"]
        assert main(args + ["--paths-dump", "paths.csv"]) == 0
        assert main(["--threads", "4"] + args + ["--paths-dump", "paths4.csv"]) == 0
        assert Path("paths.csv").read_bytes() == Path("paths4.csv").read_bytes()
        manifest = json.loads(Path("paths.csv.manifest.json").read_text())
        assert manifest["base_seed"] == 1
        assert verify_manifest("paths.csv.manifest.json")
        header, rows = fileio.read_csv("paths.csv")
        assert header == ["path", "t", "estimator0"]
        assert len(rows) == 6
        _, sim_rows = fileio.read_csv("sim.csv")
        for sim_row in sim_rows:
            dumped = [float(row["estimator0"]) for row in rows if row["t"] == sim_row["t"]]
            assert len(dumped) == 3
            assert np.mean(dumped) == pytest.approx(float(sim_row["estimator_mean0"]), abs=1e-12)

    @pytest.mark.parametrize("field, value", [
        ("dt", math.nan), ("t_max", math.inf), ("dt", math.inf),
        ("checkpoints", [math.nan]), ("checkpoints", [1.0, math.inf])])
    def test_non_finite_config_rejected(self, scalar_model, capsys, field, value):
        config = {"dt": 1e-2, "t_max": 1.0, "n_paths": 3, "base_seed": 1, field: value}
        write_config("config.json", **config)
        code = main(["simulate", "--model", "scalar.json", "--setup", "setup.json",
                     "--config", "config.json", "--r", "0.5", "-o", "sim.csv"])
        assert code == 1
        error = json.loads(capsys.readouterr().err.strip())
        assert error["code"] == "validation"
        assert "finite" in error["message"]
        assert not Path("sim.csv").exists()

    @pytest.mark.parametrize("field, value", [
        ("n_paths", math.nan), ("dt", "abc"), ("t_max", None), ("base_seed", "x"),
        ("n_paths", 64.9), ("n_paths", True), ("base_seed", 7.5)])
    def test_unconvertible_config_rejected(self, scalar_model, capsys, field, value):
        config = {"dt": 1e-2, "t_max": 1.0, "n_paths": 3, "base_seed": 1, field: value}
        write_config("config.json", **config)
        code = main(["simulate", "--model", "scalar.json", "--setup", "setup.json",
                     "--config", "config.json", "--r", "0.5", "-o", "sim.csv"])
        assert code == 1
        error = json.loads(capsys.readouterr().err.strip())
        assert error["code"] == "validation"
        assert not Path("sim.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("scheme", "euler_maruyama"), ("positivity_clip", 1e-10), ("n_path", 3)],
        ids=["scheme", "positivity_clip", "n_path"])
    def test_unknown_config_key_rejected(self, scalar_model, capsys, key, value):
        # The config schema is TrajectoryConfig's fields: retired keys and
        # typos fail loudly instead of being ignored.
        write_config("config.json", dt=1e-2, t_max=1.0, n_paths=3, base_seed=1, **{key: value})
        code = main(["simulate", "--model", "scalar.json", "--setup", "setup.json",
                     "--config", "config.json", "--r", "0.5", "-o", "sim.csv"])
        assert code == 1
        error = json.loads(capsys.readouterr().err.strip())
        assert error["code"] == "validation"
        assert repr(key) in error["message"]
        assert not Path("sim.csv").exists()

    def test_readme_config_loads(self, workdir):
        # The config of the README's command-line tour follows the schema.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        opener = "cat > config.json <<'JSON'\n"
        start = readme.index(opener) + len(opener)
        Path("config.json").write_text(readme[start:readme.index("\nJSON\n", start)])
        config = fileio.load_config("config.json")
        assert (config.dt, config.t_max, config.n_paths, config.base_seed) == (1e-3, 5.0, 2000, 7)
        assert config.checkpoints == (1.0, 5.0)


class TestCompareVerb:
    def test_join_and_verdict(self, scalar_model):
        write_config("config.json", dt=1e-3, t_max=4.0, n_paths=2000, base_seed=20240817)
        main(["simulate", "--model", "scalar.json", "--setup", "setup.json",
              "--config", "config.json", "--r", "1.0", "-o", "sim.csv"])
        main(["bound", "--model", "scalar.json", "--setup", "setup.json",
              "--r", "1.0", "--t", "4.0", "-o", "bound.csv"])
        assert main(["compare", "--simulate-csv", "sim.csv", "--bound-csv", "bound.csv",
                     "-o", "verdict.csv"]) == 0
        _, rows = fileio.read_csv("verdict.csv")
        assert len(rows) == 1
        assert rows[0]["consistent"] == "true"
        assert float(rows[0]["margin"]) > 0

    SIM = "t,estimate,ci_low,ci_high\n4.0,0.02,0.01,0.03\n"
    BOUND = "t,bound\n4.0,0.1\n"

    @pytest.mark.parametrize("sim, bound", [
        (None, BOUND),
        (SIM, None),
        (SIM.replace("estimate", "est"), BOUND),
        (SIM.replace("ci_low", "low"), BOUND),
        (SIM.replace("ci_high", "high"), BOUND),
        (SIM.replace("t,", "time,"), BOUND),
        (SIM, BOUND.replace("bound", "b")),
        (SIM, BOUND.replace("t,", "time,")),
        (SIM.replace("0.02", "x"), BOUND),
        (SIM.replace(",0.03", ""), BOUND),
        (SIM, BOUND.replace("0.1", "")),
    ], ids=["no-simulate", "no-bound", "no-estimate", "no-ci_low", "no-ci_high", "no-sim-t",
            "no-bound-column", "no-bound-t", "text-cell", "short-row", "empty-cell"])
    def test_malformed_csv_rejected(self, workdir, capsys, sim, bound):
        for name, text in (("sim.csv", sim), ("bound.csv", bound)):
            if text is not None:
                Path(name).write_text(text)
        assert main(["compare", "--simulate-csv", "sim.csv", "--bound-csv", "bound.csv",
                     "-o", "verdict.csv"]) == 1
        assert json.loads(capsys.readouterr().err.strip())["code"] == "validation"
        assert not Path("verdict.csv").exists()


class TestInequalitiesVerb:
    def test_depolarizing_report(self, workdir):
        main(["model", "new", "--template", "depolarizing", "--dim", "3", "-o", "depol.json"])
        write_setup("setup.json", [([0.0] * 1 + [1.0] + [0.0] * 7)], 1)
        assert main(["inequalities", "--model", "depol.json", "--setup", "setup.json",
                     "-o", "report"]) == 0
        report = json.loads(Path("report.json").read_text())
        assert report["spectral_gap"] == pytest.approx(1.0, abs=1e-9)
        assert report["symmetry"]["GNS"]["symmetric"]
        assert report["lsi_alpha2"] == pytest.approx(1 / (3 * math.log(2)), abs=1e-12)
        header, rows = fileio.read_csv("report.csv")
        assert header == ["quantity", "value"]
        assert any(r["quantity"] == "ti_constant" for r in rows)

    def test_closed_form_read_from_the_generator_not_the_tag(self, workdir):
        Path("rates.json").write_text(json.dumps([[-1.0, 1.0], [3.0, -3.0]]))
        assert main(["model", "new", "--template", "classical",
                     "--rates-file", "rates.json", "-o", "chain.json"]) == 0
        doc = fileio.load_json("chain.json")
        doc["template"] = "depolarizing"
        Path("chain.json").write_text(json.dumps(doc))
        assert main(["inequalities", "--model", "chain.json", "-o", "report"]) == 0
        report = json.loads(Path("report.json").read_text())
        assert report["spectral_gap"] == pytest.approx(4.0, abs=1e-9)
        assert "lsi_alpha2" not in report and "ti_constant" not in report

    def test_one_dimensional_model_report(self, workdir):
        assert main(["model", "new", "--template", "depolarizing", "--dim", "1", "-o", "one.json"]) == 0
        assert main(["inequalities", "--model", "one.json", "-o", "report"]) == 0
        report = json.loads(Path("report.json").read_text())
        assert report["spectral_gap"] == 0.0
        assert "lsi_alpha2" not in report

    def test_heat_bath_report_has_no_bohr_frequencies(self, workdir, capsys):
        Path("lattice.json").write_text(json.dumps(LATTICE))
        assert main(["model", "new", "--template", "heat-bath",
                     "--lattice-file", "lattice.json", "-o", "hb.json"]) == 0
        assert main(["inequalities", "--model", "hb.json", "-o", "report"]) == 0
        report = json.loads(Path("report.json").read_text())
        assert report["bohr_frequencies"] is None
        assert report["symmetry"]["KMS"]["symmetric"]
        write_setup("setup.json", [[1.0] + [0.0] * 7], 1)
        capsys.readouterr()
        assert main(["inequalities", "--model", "hb.json", "--setup", "setup.json", "-o", "report"]) == 1
        assert "jumps are not modular eigenvectors" in json.loads(capsys.readouterr().err.strip())["message"]

    def test_sigma_condition_reported(self, workdir):
        Path("sigma.json").write_text(json.dumps({"dim": 3, "rho": [[[0.6, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                                                    [[0.0, 0.0], [0.3, 0.0], [0.0, 0.0]],
                                                                    [[0.0, 0.0], [0.0, 0.0], [0.1, 0.0]]]}))
        assert main(["model", "new", "--template", "depolarizing", "--sigma", "sigma.json",
                     "-o", "depol.json"]) == 0
        assert main(["inequalities", "--model", "depol.json", "-o", "report"]) == 0
        report = json.loads(Path("report.json").read_text())
        assert report["sigma_condition"] == pytest.approx(6.0, rel=1e-12)

    def test_unfaithful_model_names_sigma_min(self, workdir, capsys):
        # amplitude damping |0><1|: the stationary state |0><0| is not faithful
        Path("damping.json").write_text(json.dumps({
            "kind": "lindblad", "dim": 2, "hamiltonian": [[[0.0, 0.0]] * 2] * 2,
            "jumps": [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}))
        assert main(["inequalities", "--model", "damping.json", "-o", "report"]) == 1
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert "not faithful" in message
        assert "smallest eigenvalue" in message and "1.0e-12" in message
        assert not Path("report.json").exists()

    def test_gibbs_state_below_the_threshold_names_sigma_min(self, workdir, capsys):
        # The ZZ heat-bath chain at n = 5, beta = 4 has a faithful Gibbs state
        # whose smallest eigenvalue, about 6e-15, lies below FAITHFUL_EPS.
        terms = [{"support": [i, i + 1], "matrix": ZZ} for i in range(4)]
        Path("lattice.json").write_text(json.dumps(
            {"n_sites": 5, "local_dim": 2, "beta": 4.0, "terms": terms}))
        assert main(["model", "new", "--template", "heat-bath",
                     "--lattice-file", "lattice.json", "-o", "hb.json"]) == 0
        write_setup("setup.json", [[0.0, 1.0] + [0.0] * 18], 1)
        capsys.readouterr()
        for args in (["rate", "--setup", "setup.json", "--grid=-0.5:0.5:3", "-o", "rate.csv"],
                     ["inequalities", "-o", "report"]):
            assert main([args[0], "--model", "hb.json", *args[1:]]) == 1
            message = json.loads(capsys.readouterr().err.strip())["message"]
            assert "not faithful" in message and "smallest eigenvalue" in message
            assert "1.0e-12" in message and "stationary solve" in message

    def test_channel_difference_model_report(self, workdir):
        main(["model", "new", "--template", "appendix-b", "--which", "psi", "-o", "psi.json"])
        assert main(["inequalities", "--model", "psi.json", "-o", "psi_report"]) == 0
        report = json.loads(Path("psi_report.json").read_text())
        assert report["symmetry"]["KMS"]["symmetric"]
        assert not report["symmetry"]["BKM"]["symmetric"]


class TestConcentrateVerb:
    def test_poincare_rows(self, workdir):
        assert main(["concentrate", "--variant", "poincare", "--gap", "1.0",
                     "--sup-norm", "1.0", "--t", "6.0", "--r", "1.0",
                     "-o", "conc.csv"]) == 0
        _, rows = fileio.read_csv("conc.csv")
        assert float(rows[0]["bound"]) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_ti_gaussian_requires_attestation(self, workdir, capsys):
        code = main(["concentrate", "--variant", "ti_gaussian", "--t", "1", "--r", "1",
                     "-o", "conc.csv"])
        assert code == 1
        assert main(["concentrate", "--variant", "ti_gaussian", "--attest-hypothesis",
                     "--t", "1", "--r", "1", "-o", "conc.csv"]) == 0


    @pytest.mark.parametrize("name,args", [
        ("dim", ["--variant", "depolarizing", "--dim", "2", "--eigenvalue-spread", "1"]),
        ("dim", ["--variant", "depolarizing", "--dim", "1", "--eigenvalue-spread", "1"]),
        ("eigenvalue_spread", ["--variant", "depolarizing", "--dim", "4", "--eigenvalue-spread=-1"]),
        ("gap", ["--variant", "poincare", "--gap", "0", "--sup-norm", "0"]),
        ("gap", ["--variant", "poincare", "--gap=-1", "--sup-norm", "1"]),
        ("sup_norm", ["--variant", "poincare", "--gap", "1", "--sup-norm=-1"]),
        ("lsi_alpha2", ["--variant", "tensor", "--lsi-alpha2", "0", "--n-factors", "0", "--alpha-u", "0"]),
        ("n_factors", ["--variant", "tensor", "--lsi-alpha2", "0.5", "--n-factors", "0", "--alpha-u", "1"]),
        ("alpha_u", ["--variant", "tensor", "--lsi-alpha2", "0.5", "--n-factors", "2", "--alpha-u=-1"]),
        ("ti_constant", ["--variant", "ti_lipschitz", "--ti-constant", "nan", "--lipschitz-value", "1"]),
        ("ti_constant", ["--variant", "ti_lipschitz", "--ti-constant", "inf", "--lipschitz-value", "1"]),
        ("lipschitz_value", ["--variant", "ti_lipschitz", "--ti-constant", "1", "--lipschitz-value=-1"]),
        ("ti_constant", ["--variant", "gibbs", "--ti-constant=-5", "--lipschitz-value", "1",
                         "--beta-h-norm", "1"]),
        ("beta_h_norm", ["--variant", "gibbs", "--ti-constant", "1", "--lipschitz-value", "1",
                         "--beta-h-norm=-1"]),
        ("beta_h_norm", ["--variant", "gibbs", "--ti-constant", "1", "--lipschitz-value", "1",
                         "--beta-h-norm", "1e4"]),
        ("prefactor", ["--variant", "poincare", "--gap", "1", "--sup-norm", "1", "--prefactor", "0"]),
        ("prefactor", ["--variant", "poincare", "--gap", "1", "--sup-norm", "1", "--prefactor", "nan"]),
        ("sup_norm", ["--variant", "poincare", "--gap", "1", "--sup-norm", "1e200"]),
        ("lipschitz_value", ["--variant", "ti_lipschitz", "--ti-constant", "1", "--lipschitz-value", "1e200"]),
        ("lipschitz_value", ["--variant", "gibbs", "--ti-constant", "1", "--lipschitz-value", "1e200",
                             "--beta-h-norm", "1"]),
        ("lsi_alpha2", ["--variant", "tensor", "--lsi-alpha2", "1e200", "--n-factors", "2", "--alpha-u", "1"]),
    ], ids=lambda a: a if isinstance(a, str) else "_".join(x.lstrip("-") for x in a[1:]))
    def test_bad_constant_rejected(self, workdir, capsys, name, args):
        code = main(["concentrate", *args, "--t", "1", "--r", "1", "-o", "conc.csv"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation" and name in err["message"]
        assert not Path("conc.csv").exists()

    def test_negative_time_rejected(self, workdir, capsys):
        code = main(["concentrate", "--variant", "poincare", "--gap", "1", "--sup-norm", "1",
                     "--t=-1e6", "--r", "1", "-o", "conc.csv"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation" and "time" in err["message"]
        assert not Path("conc.csv").exists()

    @pytest.mark.parametrize("flag, value, word", [("--r", "-0.5", "threshold"), ("--t", "", "empty")])
    def test_negative_threshold_or_empty_list_rejected(self, workdir, capsys, flag, value, word):
        args = {"--t": "4", "--r": "1"}
        args[flag] = value
        code = main(["concentrate", "--variant", "poincare", "--gap", "1", "--sup-norm", "1",
                     f"--t={args['--t']}", f"--r={args['--r']}", "-o", "conc.csv"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation" and word in err["message"]
        assert not Path("conc.csv").exists()


class TestDispatch:
    @pytest.mark.parametrize("verb", ["model-new", "bound", "simulate", "paths-dump", "inequalities"])
    def test_unwritable_output_rejected(self, scalar_model, capsys, verb):
        write_config("config.json", dt=0.1, t_max=1.0, n_paths=2, base_seed=1)
        out = str(Path("no_such_dir") / "x.csv")
        args = {
            "model-new": ["model", "new", "--template", "depolarizing", "--dim", "2", "-o", out],
            "bound": ["bound", "--model", "scalar.json", "--setup", "setup.json",
                      "--r", "1", "--t", "1", "-o", out],
            "simulate": ["simulate", "--model", "scalar.json", "--setup", "setup.json",
                         "--config", "config.json", "--r", "1", "-o", out],
            "paths-dump": ["simulate", "--model", "scalar.json", "--setup", "setup.json",
                           "--config", "config.json", "--r", "1", "-o", "sim.csv",
                           "--paths-dump", out],
            "inequalities": ["inequalities", "--model", "scalar.json", "-o", out],
        }[verb]
        assert main(args) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["code"] == "validation" and "no_such_dir" in err["message"]

    def test_unknown_verb(self, workdir, capsys):
        assert main(["transmogrify"]) == 1
        assert json.loads(capsys.readouterr().err.strip())["code"] == "validation"

    def test_manifest_verification(self, scalar_model):
        main(["bound", "--model", "scalar.json", "--setup", "setup.json",
              "--r", "1.0", "--t", "1", "-o", "bound.csv"])
        assert verify_manifest("bound.csv.manifest.json")
        Path("scalar.json").write_text(Path("scalar.json").read_text() + " ")
        assert not verify_manifest("bound.csv.manifest.json")

    def test_digest_of_file_larger_than_a_chunk(self, workdir):
        data = np.random.default_rng(3).bytes(2 * fileio.DIGEST_CHUNK + 12345)
        Path("big.bin").write_bytes(data)
        assert fileio._digest("big.bin") == hashlib.sha256(data).hexdigest()

    def test_inputs_never_mutated(self, scalar_model):
        before = Path("scalar.json").read_bytes()
        main(["bound", "--model", "scalar.json", "--setup", "setup.json",
              "--r", "1.0", "--t", "1", "-o", "bound.csv"])
        assert Path("scalar.json").read_bytes() == before


class TestComplexMatrixFormat:
    def test_roundtrip(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        decoded = fileio.decode_complex_matrix(fileio.encode_complex_matrix(m))
        assert np.array_equal(decoded, m)

    def test_nested_keeps_negative_zero(self):
        decoded = fileio.decode_complex_matrix([[[-0.0, 1.0], [2.0, -0.0]]])
        assert np.signbit(decoded.real).tolist() == [[True, False]]
        assert np.signbit(decoded.imag).tolist() == [[False, True]]
        m = np.array([[complex(-0.0, -0.0), complex(0.0, -0.0)]] * 2)
        again = fileio.decode_complex_matrix(fileio.encode_complex_matrix(m))
        assert again.tobytes() == m.tobytes()

    def test_shape_rejected(self):
        with pytest.raises(ValidationError):
            fileio.decode_complex_matrix([[1.0, 2.0]])

    def test_non_square_channel_names_field(self, workdir, capsys):
        channel = np.zeros((4, 5, 2)).tolist()
        Path("ch.json").write_text(json.dumps({"kind": "channel_difference", "dim": 2,
                                               "channel": channel}))
        assert main(["inequalities", "--model", "ch.json", "-o", "report"]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation" and "ch.json:channel" in err["message"]
        assert "(4, 5, 2)" in err["message"]
        assert not Path("report.json").exists()

    @pytest.mark.parametrize("d", [1, 3])
    def test_model_file_compact_and_bit_exact(self, d, rng, workdir):
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = h + h.conj().T
        jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
        fileio.save_model("m.json", hamiltonian=h, jumps=jumps, template="depolarizing")
        text = Path("m.json").read_text()
        assert "\n" not in text
        doc = json.loads(text)
        # Packed: base64 of the row-major little-endian complex128 entries.
        for stored, m in zip([doc["hamiltonian"], *doc["jumps"]], [h, *jumps]):
            assert stored == base64.b64encode(m.astype("<c16").tobytes()).decode("ascii")
            decoded = fileio.decode_complex_matrix(stored)
            assert decoded.tobytes() == m.tobytes()
            assert decoded.dtype == np.complex128 and decoded.flags.writeable

        def pairs(m):  # the nested spelling of earlier versions, indented
            return [[[float(x.real), float(x.imag)] for x in row] for row in m]

        Path("old.json").write_text(json.dumps(
            {"kind": "lindblad", "dim": d, "hamiltonian": pairs(h),
             "jumps": [pairs(l) for l in jumps], "template": "depolarizing"}, indent=1))
        for path in ("old.json", "m.json"):
            lind = fileio.load_model(path).context.lindbladian
            assert [l.tobytes() for l in lind.jumps] == [l.tobytes() for l in jumps]

    @pytest.mark.parametrize("text", ["not base64!", "AAAA=AAA", "", "AAAA",
                                      base64.b64encode(bytes(24)).decode(),
                                      base64.b64encode(bytes(32)).decode(),
                                      "AAAAAAAAAAAA\nAAAAAAAAAA==",
                                      "AAAAAAAAAAAAAAAAAAAAAA==é"],
                             ids=["alphabet", "padding", "empty", "3-bytes", "24-bytes",
                                  "32-bytes", "newline", "non-ascii"])
    def test_packed_rejected(self, text):
        with pytest.raises(ValidationError, match="packed matrix"):
            fileio.decode_complex_matrix(text)

    def test_packed_decodes_without_strict_mode(self, monkeypatch):
        # a2b_base64 takes no strict_mode before Python 3.11; pin that signature.
        plain = binascii.a2b_base64
        monkeypatch.setattr(binascii, "a2b_base64", lambda data: plain(data))
        m = np.array([[1 + 2j]])
        assert fileio.decode_complex_matrix(fileio._pack_complex_matrix(m)).tobytes() == m.tobytes()
        with pytest.raises(ValidationError, match="packed matrix"):
            fileio.decode_complex_matrix("AAAA=AAA")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("spelling", ["nested", "packed"])
    def test_non_finite_rejected(self, spelling, value):
        m = np.eye(2, dtype=complex)
        m[1, 0] = complex(0.0, value)
        data = (fileio.encode_complex_matrix(m) if spelling == "nested"
                else base64.b64encode(m.astype("<c16").tobytes()).decode())
        with pytest.raises(ValidationError, match="finite"):
            fileio.decode_complex_matrix(data)


def modules_after(code: str, package: str = "scipy", cwd=None) -> list[str]:
    """Run ``code`` in a fresh interpreter; the modules of ``package`` (a
    dotted name) it loaded."""
    code += (f"\nimport sys; print(sorted(m for m in sys.modules "
             f"if m == {package!r} or m.startswith({package + '.'!r})))")
    src = str(Path(fileio.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1].replace("'", '"'))


def test_cli_import_loads_no_scipy():
    assert modules_after("import qdev.cli") == []


def test_cli_import_loads_no_numpy_random():
    # numpy.random costs about 18 ms to import; the trajectory streams load it
    # when a verb first needs one.
    assert modules_after("import qdev.cli", "numpy.random") == []


def test_every_verb_loads_no_scipy(scalar_model):
    write_config("config.json", dt=1e-2, t_max=1.0, n_paths=50, base_seed=3)
    verbs = [["model", "new", "--template", "depolarizing", "--dim", "2", "-o", "depol.json"],
             ["bound", "--model", "scalar.json", "--setup", "setup.json", "--r", "0.5",
              "--t", "1", "-o", "bound.csv"],
             ["rate", "--model", "scalar.json", "--setup", "setup.json", "--grid=-1:1:5",
              "-o", "rate.csv"],
             ["simulate", "--model", "scalar.json", "--setup", "setup.json",
              "--config", "config.json", "--r", "0.5", "-o", "sim.csv"],
             ["compare", "--simulate-csv", "sim.csv", "--bound-csv", "bound.csv",
              "-o", "verdict.csv"],
             ["inequalities", "--model", "depol.json", "-o", "report"],
             ["concentrate", "--variant", "poincare", "--gap", "1.0", "--sup-norm", "1.0",
              "--t", "6.0", "--r", "1.0", "-o", "conc.csv"],
             ["check", "--suite", "paper-fixtures"]]
    code = "from qdev.cli import main\n" + "".join(f"assert main({v!r}) == 0\n" for v in verbs)
    assert modules_after(code, cwd=scalar_model) == []
    for name in ("depol.json", "verdict.csv", "report.json", "conc.csv"):
        assert Path(name).exists()


class TestJsonReportFormat:
    def test_bound_json_mirror_embeds_manifest(self, scalar_model):
        code = main(["--format", "json", "bound", "--model", "scalar.json",
                     "--setup", "setup.json", "--r", "1.0", "--t", "4.0",
                     "-o", "bound_report.json"])
        assert code == 0
        doc = json.loads(Path("bound_report.json").read_text())
        assert doc["columns"][:2] == ["t", "r0"]
        assert doc["rows"][0][doc["columns"].index("exponent")] == pytest.approx(0.5, abs=1e-10)
        assert doc["manifest"]["tool"] == "qdev"
        assert "scalar.json" in doc["manifest"]["inputs"]
