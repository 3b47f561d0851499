import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdev import fileio
from qdev.cli import main
from qdev.linalg import ValidationError


def write_setup(path, directions, q):
    Path(path).write_text(json.dumps({"directions": directions, "q": q}))


def write_config(path, **kwargs):
    Path(path).write_text(json.dumps(kwargs))


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
        assert np.allclose(model.context.sigma.matrix, np.eye(3) / 3, atol=1e-9)
        assert Path("depol.json.manifest.json").exists()

    def test_classical_template(self, workdir):
        Path("rates.json").write_text(json.dumps([[-1.0, 1.0], [0.5, -0.5]]))
        assert main(["model", "new", "--template", "classical",
                     "--rates-file", "rates.json", "-o", "chain.json"]) == 0
        model = fileio.load_model("chain.json")
        assert np.allclose(np.diag(model.context.sigma.matrix).real,
                           [1 / 3, 2 / 3], atol=1e-9)

    def test_appendix_b_template(self, workdir):
        assert main(["model", "new", "--template", "appendix-b", "--which", "p-channel",
                     "--p", "0.3", "-o", "pchan.json"]) == 0
        model = fileio.load_model("pchan.json")
        assert np.allclose(model.context.sigma.matrix, np.diag([0.3, 0.7]), atol=1e-9)

    def test_heat_bath_template(self, workdir):
        zz = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
        lattice = {"n_sites": 2, "local_dim": 2, "beta": 0.5,
                   "terms": [{"support": [0, 1], "matrix": fileio.encode_complex_matrix(zz)}]}
        Path("lattice.json").write_text(json.dumps(lattice))
        assert main(["model", "new", "--template", "heat-bath",
                     "--lattice-file", "lattice.json", "-o", "hb.json"]) == 0
        model = fileio.load_model("hb.json")
        residual = np.max(np.abs(model.context.schrodinger.apply(model.context.sigma.matrix)))
        assert residual < 1e-9

    def test_tensor_template(self, workdir):
        main(["model", "new", "--template", "depolarizing", "--dim", "2", "-o", "one.json"])
        assert main(["model", "new", "--template", "tensor", "--factors", "one.json",
                     "one.json", "-o", "two.json"]) == 0
        model = fileio.load_model("two.json")
        assert model.context.dim == 4


class TestBoundVerb:
    def test_gaussian_bound_rows(self, scalar_model, capsys):
        code = main(["bound", "--model", "scalar.json", "--setup", "setup.json",
                     "--r", "1.0", "--t", "1,2,4", "-o", "bound.csv"])
        assert code == 0
        header, rows = fileio.read_csv("bound.csv")
        assert header[:2] == ["t", "r0"]
        assert len(rows) == 3
        assert float(rows[0]["exponent"]) == pytest.approx(0.5, abs=1e-10)
        assert float(rows[2]["bound"]) == pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_negative_r_names_index(self, scalar_model, capsys):
        code = main(["bound", "--model", "scalar.json", "--setup", "setup.json",
                     "--r", "-0.5", "--t", "1", "-o", "bound.csv"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["code"] == "validation"
        assert "r[0]" in err["message"]

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
        assert header == ["s0", "rate", "status"]
        assert len(rows) == 5
        values = [float(r["rate"]) for r in rows]
        grid = np.linspace(-1, 1, 5)
        assert np.allclose(values, grid**2 / 2, atol=1e-8)

    def test_header_only_for_empty_grid(self, scalar_model):
        code = main(["rate", "--model", "scalar.json", "--setup", "setup.json",
                     "--grid", "0:1:0", "-o", "rate.csv"])
        assert code == 0
        header, rows = fileio.read_csv("rate.csv")
        assert header == ["s0", "rate", "status"] and rows == []


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
        header, rows = fileio.read_csv("paths.csv")
        assert header == ["path", "t", "estimator0"]
        assert len(rows) == 6
        _, sim_rows = fileio.read_csv("sim.csv")
        for sim_row in sim_rows:
            dumped = [float(row["estimator0"]) for row in rows if row["t"] == sim_row["t"]]
            assert len(dumped) == 3
            assert np.mean(dumped) == pytest.approx(float(sim_row["estimator_mean0"]), abs=1e-12)

    def test_config_scheme_checked_at_load(self, scalar_model, capsys):
        args = ["simulate", "--model", "scalar.json", "--setup", "setup.json",
                "--config", "config.json", "--r", "0.5", "-o", "sim.csv"]
        write_config("config.json", dt=1e-2, t_max=1.0, n_paths=3, base_seed=1,
                     scheme="euler_maruyama")
        assert main(args) == 0
        write_config("config.json", dt=1e-2, t_max=1.0, n_paths=3, base_seed=1,
                     scheme="milstein")
        capsys.readouterr()
        assert main(args) == 1
        error = json.loads(capsys.readouterr().err.strip())
        assert error["code"] == "validation"
        assert "milstein" in error["message"]


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


class TestDispatch:
    def test_unknown_verb(self, workdir, capsys):
        assert main(["transmogrify"]) == 1
        assert json.loads(capsys.readouterr().err.strip())["code"] == "validation"

    def test_manifest_verification(self, scalar_model):
        main(["bound", "--model", "scalar.json", "--setup", "setup.json",
              "--r", "1.0", "--t", "1", "-o", "bound.csv"])
        assert fileio.verify_manifest("bound.csv.manifest.json")
        Path("scalar.json").write_text(Path("scalar.json").read_text() + " ")
        assert not fileio.verify_manifest("bound.csv.manifest.json")

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

    def test_shape_rejected(self):
        with pytest.raises(ValidationError):
            fileio.decode_complex_matrix([[1.0, 2.0]])

    @pytest.mark.parametrize("d", [1, 3])
    def test_model_file_compact_and_bit_exact(self, d, rng, workdir):
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = h + h.conj().T
        jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
        fileio.save_model("m.json", hamiltonian=h, jumps=jumps, template="depolarizing")

        def pairs(m):  # the former per-entry encoder
            return [[[float(x.real), float(x.imag)] for x in row] for row in m]

        indented = json.dumps({"kind": "lindblad", "dim": d, "hamiltonian": pairs(h),
                               "jumps": [pairs(l) for l in jumps], "template": "depolarizing"},
                              indent=1)
        text = Path("m.json").read_text()
        assert "\n" not in text
        assert json.loads(text) == json.loads(indented)
        doc = fileio.load_json("m.json")
        assert np.array_equal(fileio.decode_complex_matrix(doc["hamiltonian"]), h)
        for stored, l in zip(doc["jumps"], jumps):
            assert np.array_equal(fileio.decode_complex_matrix(stored), l)


def test_cli_import_leaves_out_scipy_stats():
    code = "import sys, qdev.cli; sys.exit('scipy.stats' in sys.modules)"
    src = str(Path(fileio.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


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
