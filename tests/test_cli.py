import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from pubpriv.entropics import InputEnsemble
from pubpriv.qcore import DensityOperator
from pubpriv.serialize import ensemble_to_json

from conftest import cli_env

FAST_REGION = ["--alphabet-x", "2", "--alphabet-y", "2", "--restarts", "2", "--max-iters", "100"]


def run_cli(args, cwd, env_extra=None):
    return subprocess.run([sys.executable, "-m", "pubpriv"] + [str(a) for a in args],
                          cwd=cwd, capture_output=True, text=True, env=cli_env(env_extra), timeout=600)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def experiment_spec(tmp_path):
    spec = {
        "channel": {"p_main": [[1.0, 0.0], [0.0, 1.0]], "p_eve": [[0.5, 0.5], [0.5, 0.5]]},
        "input_p": [0.5, 0.5],
        "code": {"n": 8, "M": 4, "S": 4, "delta": 0.5, "seed": 12, "decoder": "ML", "trials": 40},
        "security": "exact",
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(spec))
    return path


class TestRegionCommand:
    def test_identity_reaches_unit_rates(self, tmp_path):
        r = run_cli(["region", "--zoo", "identity", "--dim", "2", "--rs", "0",
                     "--weights", "1,0", "0,1", "--seed", "5", "--out", "r.csv"] + FAST_REGION, tmp_path)
        assert r.returncode == 0, r.stderr
        rows = read_rows(tmp_path / "r.csv")
        by_w = {(row["w_R"], row["w_P"]): row for row in rows}
        assert abs(float(by_w[("1.0", "0.0")]["R"]) - 1.0) < 1e-3
        assert abs(float(by_w[("0.0", "1.0")]["P"]) - 1.0) < 1e-3
        assert (tmp_path / "r.csv.manifest.json").exists()

    def test_depolarizing_yields_nothing(self, tmp_path):
        r = run_cli(["region", "--zoo", "depolarizing", "--p", "1.0", "--rs", "0",
                     "--weights", "1,1", "--restarts", "1", "--max-iters", "40",
                     "--alphabet-x", "2", "--alphabet-y", "1", "--out", "d.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        row = read_rows(tmp_path / "d.csv")[0]
        assert float(row["R"]) <= 1e-6 and float(row["P"]) <= 1e-6

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["region", "--zoo", "dephasing", "--p", "1.0", "--rs", "0", "0.5",
                "--weights", "0,1", "--seed", "3", "--out", "a.csv"] + FAST_REGION
        r = run_cli(args, tmp_path)
        assert r.returncode == 0, r.stderr
        first = (tmp_path / "a.csv").read_bytes()
        r = run_cli(args, tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "a.csv").read_bytes() == first

    def test_missing_channel_is_validation_error(self, tmp_path):
        r = run_cli(["region", "--rs", "0", "--out", "x.csv"], tmp_path)
        assert r.returncode == 2, r.stderr

    def test_malformed_channel_json(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        r = run_cli(["region", "--channel-json", "bad.json", "--rs", "0", "--out", "x.csv"], tmp_path)
        assert r.returncode == 2, r.stderr


class TestSkpCommand:
    def test_dephasing_key_sweep(self, tmp_path):
        r = run_cli(["skp", "--zoo", "dephasing", "--p", "1.0", "--rs", "0", "1",
                     "--seed", "2", "--alphabet-y", "2", "--restarts", "2",
                     "--max-iters", "100", "--out", "s.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        rows = read_rows(tmp_path / "s.csv")
        assert abs(float(rows[0]["P"]) - 0.0) < 1e-2
        assert abs(float(rows[1]["P"]) - 1.0) < 1e-2


class TestSimulateCommand:
    def test_noiseless_full_key(self, tmp_path, experiment_spec):
        r = run_cli(["simulate", "--config", experiment_spec, "--out", "sim.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        row = read_rows(tmp_path / "sim.csv")[0]
        assert float(row["error"]) == 0.0
        assert float(row["message_secrecy"]) == 0.0

    def test_rerun_is_byte_identical(self, tmp_path, experiment_spec):
        r = run_cli(["simulate", "--config", experiment_spec, "--out", "s1.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli(["simulate", "--config", experiment_spec, "--out", "s2.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()

    def test_security_budget_maps_to_exit_3(self, tmp_path):
        spec = {
            "channel": {"p_main": [[1.0, 0.0], [0.0, 1.0]], "p_eve": [[0.5, 0.5], [0.5, 0.5]]},
            "input_p": [0.5, 0.5],
            "code": {"n": 40, "M": 4, "S": 1, "delta": 0.5, "seed": 1, "trials": 5},
            "security": "exact",
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(spec))
        r = run_cli(["simulate", "--config", path, "--out", "b.csv"], tmp_path)
        assert r.returncode == 3, r.stderr
        assert "security" in r.stderr

    def test_nan_channel_is_validation_error(self, tmp_path):
        # json reads the bare token NaN; a NaN entry fails no <, > or sum check
        (tmp_path / "nan.json").write_text(
            '{"channel": {"p_joint": [[[NaN, 0.5], [0.25, 0.25]], [[0.25, 0.25], [0.25, 0.25]]]},'
            ' "input_p": [0.5, 0.5], "code": {"n": 8, "M": 4, "delta": 0.5, "seed": 1, "trials": 5}}')
        r = run_cli(["simulate", "--config", "nan.json", "--out", "n.csv"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert "finite" in r.stderr

    def test_seed_flag_overrides_spec(self, tmp_path, experiment_spec):
        r = run_cli(["simulate", "--config", experiment_spec, "--seed", "99", "--out", "s.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert read_rows(tmp_path / "s.csv")[0]["seed"] == "99"


class TestResourcesCommand:
    def test_section3(self, tmp_path):
        r = run_cli(["resources", "derive", "section3", "--ib", "1", "--ie", "0.4"], tmp_path)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["final_terms"] == ["1 [c→c]_priv"]

    def test_ds03(self, tmp_path):
        r = run_cli(["resources", "derive", "ds03", "--a", "1", "--b", "1", "--c", "0"], tmp_path)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert "1 [c→c]_pub" in doc["final_terms"]

    def test_unknown_derivation_lists_available(self, tmp_path):
        r = run_cli(["resources", "derive", "bogus", "--a", "1", "--b", "1", "--c", "0"], tmp_path)
        assert r.returncode == 2, r.stderr
        for name in ("section3", "ds03", "otp_combination"):
            assert name in r.stderr


class TestEntropyCommand:
    def test_quantities_emitted(self, tmp_path):
        ens = InputEnsemble.over_y([0.5, 0.5], [DensityOperator.basis_state(0, 2),
                                                DensityOperator.basis_state(1, 2)])
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(ensemble_to_json(ens)))
        r = run_cli(["entropy", "--zoo", "dephasing", "--p", "1.0", "--ensemble", path], tmp_path)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert abs(doc["I_YB_given_X"] - 1.0) < 1e-12
        assert abs(doc["I_YE_given_X"] - 1.0) < 1e-12

    def test_nan_in_ensemble_is_a_validation_error(self, tmp_path):
        ens = InputEnsemble.over_y([0.5, 0.5], [DensityOperator.basis_state(0, 2),
                                                DensityOperator.basis_state(1, 2)])
        doc = ensemble_to_json(ens)
        text = json.dumps(doc).replace("1.0, 0.0", "NaN, 0.0", 1)
        assert "NaN" in text
        path = tmp_path / "ens.json"
        path.write_text(text)
        r = run_cli(["entropy", "--zoo", "dephasing", "--p", "1.0", "--ensemble", path], tmp_path)
        assert r.returncode == 2, r.stderr
        assert "non-finite entry" in r.stderr
        assert "converge" not in r.stderr


class TestReplay:
    def test_region_replay_byte_identical(self, tmp_path):
        args = ["region", "--zoo", "identity", "--dim", "2", "--rs", "0",
                "--weights", "1,0", "--seed", "4", "--out", "r.csv"] + FAST_REGION
        r = run_cli(args, tmp_path)
        assert r.returncode == 0, r.stderr
        first = (tmp_path / "r.csv").read_bytes()
        (tmp_path / "r.csv").unlink()
        r = run_cli(["replay", "--manifest", "r.csv.manifest.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "r.csv").read_bytes() == first

    def test_simulate_replay_byte_identical(self, tmp_path, experiment_spec):
        r = run_cli(["simulate", "--config", experiment_spec, "--out", "s.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        first = (tmp_path / "s.csv").read_bytes()
        r = run_cli(["replay", "--manifest", "s.csv.manifest.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "s.csv").read_bytes() == first


class TestEnvOverrides:
    def test_seed_env_var(self, tmp_path, experiment_spec):
        r = run_cli(["simulate", "--config", experiment_spec, "--out", "s.csv"], tmp_path,
                    env_extra={"PUBPRIV_SEED": "77"})
        assert r.returncode == 0, r.stderr
        assert read_rows(tmp_path / "s.csv")[0]["seed"] == "77"


class TestManifestContents:
    def test_digests_and_version(self, tmp_path, experiment_spec):
        r = run_cli(["simulate", "--config", experiment_spec, "--out", "s.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["tool_version"]
        assert str(experiment_spec) in manifest["input_digests"]
        digest = manifest["input_digests"][str(experiment_spec)]
        assert len(digest) == 64


class TestColdStart:
    def test_import_loads_no_scipy(self):
        code = "import sys, pubpriv.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env(), timeout=120)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"
