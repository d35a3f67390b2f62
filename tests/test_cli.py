import csv
import hashlib
import json
import platform
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pubpriv import cli, region
from pubpriv.entropics import InputEnsemble
from pubpriv.qcore import DensityOperator
from pubpriv.serialize import ensemble_to_json

from conftest import cli_env

FAST_REGION = ["--alphabet-x", "2", "--alphabet-y", "2", "--restarts", "2", "--max-iters", "100"]
README = Path(__file__).resolve().parent.parent / "README.md"


def run_process(args, cwd, env_extra=None):
    """`python -m pubpriv` in a child process: for the entry point and its real exit codes."""
    return subprocess.run([sys.executable, "-m", "pubpriv"] + [str(a) for a in args],
                          cwd=cwd, capture_output=True, text=True, env=cli_env(env_extra), timeout=600)


@pytest.fixture
def run_cli(monkeypatch, capsys):
    """`cli.main` in this process, from directory `cwd`; returns its code and captured output."""
    def run(args, cwd, env_extra=None):
        monkeypatch.chdir(cwd)
        for name, value in (env_extra or {}).items():
            monkeypatch.setenv(name, value)
        argv = [str(a) for a in args]
        capsys.readouterr()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(argv, code, out, err)
    return run


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
    def test_identity_reaches_unit_rates(self, tmp_path, run_cli):
        r = run_cli(["region", "--zoo", "identity", "--dim", "2", "--rs", "0",
                     "--weights", "1,0", "0,1", "--seed", "5", "--out", "r.csv"] + FAST_REGION, tmp_path)
        assert r.returncode == 0, r.stderr
        rows = read_rows(tmp_path / "r.csv")
        by_w = {(row["w_R"], row["w_P"]): row for row in rows}
        assert abs(float(by_w[("1.0", "0.0")]["R"]) - 1.0) < 1e-3
        assert abs(float(by_w[("0.0", "1.0")]["P"]) - 1.0) < 1e-3
        assert (tmp_path / "r.csv.manifest.json").exists()

    def test_depolarizing_yields_nothing(self, tmp_path, run_cli):
        r = run_cli(["region", "--zoo", "depolarizing", "--p", "1.0", "--rs", "0",
                     "--weights", "1,1", "--restarts", "1", "--max-iters", "40",
                     "--alphabet-x", "2", "--alphabet-y", "1", "--out", "d.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        row = read_rows(tmp_path / "d.csv")[0]
        assert float(row["R"]) <= 1e-6 and float(row["P"]) <= 1e-6

    def test_rerun_is_byte_identical(self, tmp_path, run_cli):
        args = ["region", "--zoo", "dephasing", "--p", "1.0", "--rs", "0", "0.5",
                "--weights", "0,1", "--seed", "3", "--out", "a.csv"] + FAST_REGION
        r = run_cli(args, tmp_path)
        assert r.returncode == 0, r.stderr
        first = (tmp_path / "a.csv").read_bytes()
        r = run_cli(args, tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "a.csv").read_bytes() == first

    def test_missing_channel_is_validation_error(self, tmp_path):
        r = run_process(["region", "--rs", "0", "--out", "x.csv"], tmp_path)
        assert r.returncode == 2, r.stderr

    def test_malformed_channel_json(self, tmp_path, run_cli):
        (tmp_path / "bad.json").write_text("{not json")
        r = run_cli(["region", "--channel-json", "bad.json", "--rs", "0", "--out", "x.csv"], tmp_path)
        assert r.returncode == 2, r.stderr


class TestSkpCommand:
    def test_dephasing_key_sweep(self, tmp_path, run_cli):
        r = run_cli(["skp", "--zoo", "dephasing", "--p", "1.0", "--rs", "0", "1",
                     "--seed", "2", "--alphabet-y", "2", "--restarts", "2",
                     "--max-iters", "100", "--out", "s.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        rows = read_rows(tmp_path / "s.csv")
        assert abs(float(rows[0]["P"]) - 0.0) < 1e-2
        assert abs(float(rows[1]["P"]) - 1.0) < 1e-2


class TestSimulateCommand:
    def test_noiseless_full_key(self, tmp_path, experiment_spec, run_cli):
        r = run_cli(["simulate", "--config", experiment_spec, "--out", "sim.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        row = read_rows(tmp_path / "sim.csv")[0]
        assert float(row["error"]) == 0.0
        assert float(row["message_secrecy"]) == 0.0

    def test_rerun_is_byte_identical(self, tmp_path, experiment_spec, run_cli):
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
        r = run_process(["simulate", "--config", path, "--out", "b.csv"], tmp_path)
        assert r.returncode == 3, r.stderr
        assert "security" in r.stderr

    def test_type_enumeration_budget_maps_to_exit_3(self, tmp_path, run_cli):
        """An 8-symbol input law at n = 40 has more type classes than the exact acceptance may enumerate."""
        spec = {"channel": {"p_main": np.eye(8).tolist(), "p_eve": np.full((8, 8), 1 / 8).tolist()},
                "input_p": [1 / 8] * 8, "code": {"n": 40, "M": 4, "delta": 0.5, "seed": 1, "trials": 5}}
        (tmp_path / "types.json").write_text(json.dumps(spec))
        r = run_cli(["simulate", "--config", "types.json", "--out", "t.csv"], tmp_path)
        assert r.returncode == 3, r.stderr
        assert "type enumeration at n=40" in r.stderr

    def test_nan_channel_is_validation_error(self, tmp_path, run_cli):
        # json reads the bare token NaN; a NaN entry fails no <, > or sum check
        (tmp_path / "nan.json").write_text(
            '{"channel": {"p_joint": [[[NaN, 0.5], [0.25, 0.25]], [[0.25, 0.25], [0.25, 0.25]]]},'
            ' "input_p": [0.5, 0.5], "code": {"n": 8, "M": 4, "delta": 0.5, "seed": 1, "trials": 5}}')
        r = run_cli(["simulate", "--config", "nan.json", "--out", "n.csv"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert "finite" in r.stderr

    def test_pair_law_with_one_public_message(self, tmp_path, run_cli):
        """An 'input_law' spec runs at the default K_pub = 1; ([1], [p]) writes the rows of 'input_p': p."""
        code = {"n": 10, "M": 8, "S": 2, "delta": 0.5, "seed": 3, "trials": 20}
        specs = {"pair": {"input_law": {"p_x": [0.5, 0.5], "p_a_given_x": [[0.85, 0.15], [0.15, 0.85]]}},
                 "one-row": {"input_law": {"p_x": [1.0], "p_a_given_x": [[0.7, 0.3]]}},
                 "1-D": {"input_p": [0.7, 0.3]}}
        for name, law in specs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps({"channel": CHANNEL, **law, "code": code,
                                                               "security": "exact"}))
            r = run_cli(["simulate", "--config", f"{name}.json", "--out", f"{name}.csv"], tmp_path)
            assert r.returncode == 0, r.stderr
        assert read_rows(tmp_path / "pair.csv")[0]["rate_public"] == "0.0"
        assert (tmp_path / "one-row.csv").read_bytes() == (tmp_path / "1-D.csv").read_bytes()

    def test_seed_flag_overrides_spec(self, tmp_path, experiment_spec, run_cli):
        r = run_cli(["simulate", "--config", experiment_spec, "--seed", "99", "--out", "s.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert read_rows(tmp_path / "s.csv")[0]["seed"] == "99"

    def test_empty_sweep_is_validation_error(self, tmp_path, experiment_spec, run_cli):
        """`"sweep": []` would run nothing and write a header-only CSV."""
        spec = {**json.loads(experiment_spec.read_text()), "sweep": []}
        (tmp_path / "empty.json").write_text(json.dumps(spec))
        r = run_cli(["simulate", "--config", "empty.json", "--out", "e.csv"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert "'sweep'" in r.stderr
        assert not (tmp_path / "e.csv").exists()


class TestResourcesCommand:
    def test_section3(self, tmp_path):
        r = run_process(["resources", "derive", "section3", "--ib", "1", "--ie", "0.4"], tmp_path)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["final_terms"] == ["1 [c→c]_priv"]

    def test_ds03(self, tmp_path, run_cli):
        r = run_cli(["resources", "derive", "ds03", "--a", "1", "--b", "1", "--c", "0"], tmp_path)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert "1 [c→c]_pub" in doc["final_terms"]

    def test_unknown_derivation_lists_available(self, tmp_path, run_cli):
        r = run_cli(["resources", "derive", "bogus", "--a", "1", "--b", "1", "--c", "0"], tmp_path)
        assert r.returncode == 2, r.stderr
        for name in ("section3", "ds03", "otp_combination"):
            assert name in r.stderr


class TestEntropyCommand:
    def test_quantities_emitted(self, tmp_path, run_cli):
        ens = InputEnsemble.over_y([0.5, 0.5], [DensityOperator.basis_state(0, 2),
                                                DensityOperator.basis_state(1, 2)])
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(ensemble_to_json(ens)))
        r = run_cli(["entropy", "--zoo", "dephasing", "--p", "1.0", "--ensemble", path], tmp_path)
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert abs(doc["I_YB_given_X"] - 1.0) < 1e-12
        assert abs(doc["I_YE_given_X"] - 1.0) < 1e-12

    def test_nan_in_ensemble_is_a_validation_error(self, tmp_path, run_cli):
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
    def test_region_replay_byte_identical(self, tmp_path, run_cli):
        args = ["region", "--zoo", "identity", "--dim", "2", "--rs", "0",
                "--weights", "1,0", "--seed", "4", "--out", "r.csv"] + FAST_REGION
        r = run_cli(args, tmp_path)
        assert r.returncode == 0, r.stderr
        first = (tmp_path / "r.csv").read_bytes()
        (tmp_path / "r.csv").unlink()
        r = run_cli(["replay", "--manifest", "r.csv.manifest.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "r.csv").read_bytes() == first

    def test_simulate_replay_byte_identical(self, tmp_path, experiment_spec, run_cli):
        r = run_cli(["simulate", "--config", experiment_spec, "--out", "s.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        first = (tmp_path / "s.csv").read_bytes()
        r = run_cli(["replay", "--manifest", "s.csv.manifest.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "s.csv").read_bytes() == first


class TestEnvOverrides:
    def test_environment_sets_no_option(self, tmp_path, experiment_spec, run_cli):
        r = run_cli(["simulate", "--config", experiment_spec, "--out", "s.csv"], tmp_path,
                    env_extra={"PUBPRIV_SEED": "77"})
        assert r.returncode == 0, r.stderr
        assert read_rows(tmp_path / "s.csv")[0]["seed"] == "12"


class TestManifestContents:
    def test_digests_and_version(self, tmp_path, experiment_spec, run_cli):
        r = run_cli(["simulate", "--config", experiment_spec, "--out", "s.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["tool_version"]
        assert str(experiment_spec) in manifest["input_digests"]
        digest = manifest["input_digests"][str(experiment_spec)]
        assert len(digest) == 64


    def test_machine_fields(self, tmp_path, experiment_spec, run_cli, monkeypatch):
        """The Python, numpy and BLAS versions, numpy's enabled dispatch targets and OPENBLAS_CORETYPE only when set;
        no scipy field, even where scipy is loaded."""
        monkeypatch.setitem(sys.modules, "scipy", SimpleNamespace(__version__="1.17.1"))
        for coretype in (None, "Haswell"):
            cli._machine.cache_clear()
            if coretype:
                monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
            else:
                monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
            r = run_cli(["simulate", "--config", experiment_spec, "--out", "s.csv"], tmp_path)
            assert r.returncode == 0, r.stderr
            machine = json.loads((tmp_path / "s.csv.manifest.json").read_text())["machine"]
            blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
            want = {"python": platform.python_version(), "numpy": np.__version__,
                    "blas": f"{blas['name']} {blas['version']}",
                    "numpy_cpu_dispatch": np.__config__.CONFIG["SIMD Extensions"]["found"]}
            if coretype:
                want["OPENBLAS_CORETYPE"] = coretype
            assert machine == want
        cli._machine.cache_clear()

    def test_the_machine_loads_no_scipy(self):
        code = ("import sys, pubpriv.cli as cli; machine = cli._machine(); "
                "assert 'scipy' not in sys.modules and 'scipy' not in machine")
        r = subprocess.run([sys.executable, "-c", code], env=cli_env(), capture_output=True, text=True, timeout=120)
        assert r.returncode == 0, r.stderr

    def test_digests_are_per_call(self, tmp_path, experiment_spec, run_cli):
        r = run_cli(["simulate", "--config", experiment_spec, "--out", "s.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli(["region", "--zoo", "identity", "--rs", "0", "--weights", "1,0", "--out", "r.csv"]
                    + FAST_REGION, tmp_path)
        assert r.returncode == 0, r.stderr
        assert json.loads((tmp_path / "r.csv.manifest.json").read_text())["input_digests"] == {}


class TestReplayContract:
    """Replay re-runs a manifest's stored options as they are, on the inputs it recorded."""

    def test_replay_names_each_machine_field_that_differs(self, tmp_path, experiment_spec, run_cli):
        r = run_cli(["simulate", "--config", experiment_spec, "--out", "s.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        first = (tmp_path / "s.csv").read_bytes()
        r = run_cli(["replay", "--manifest", "s.csv.manifest.json"], tmp_path)
        assert r.returncode == 0 and "machine" not in r.stderr, r.stderr
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        # scipy: as older region manifests have it
        manifest["machine"].update(numpy="1.0.0", OPENBLAS_CORETYPE="Prescott", scipy="1.17.1")
        (tmp_path / "old.manifest.json").write_text(json.dumps(manifest))
        r = run_cli(["replay", "--manifest", "old.manifest.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "s.csv").read_bytes() == first
        lines = r.stderr.splitlines()
        assert len(lines) == 3
        assert "OPENBLAS_CORETYPE = 'Prescott'" in lines[0]
        assert "numpy = '1.0.0'" in lines[1] and repr(np.__version__) in lines[1]
        assert "scipy = '1.17.1', this one has None" in lines[2]

    def test_replay_names_a_tool_version_that_differs(self, tmp_path, experiment_spec, run_cli):
        r = run_cli(["simulate", "--config", experiment_spec, "--out", "s.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["tool_version"] == cli.__version__
        manifest["tool_version"] = "0.1.0"
        (tmp_path / "old.manifest.json").write_text(json.dumps(manifest))
        r = run_cli(["replay", "--manifest", "old.manifest.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stderr.splitlines() == [f"replay: the run used pubpriv '0.1.0', this is {cli.__version__!r}; "
                                         "outputs may differ where the tool has changed since"]

    def test_a_machine_that_is_not_an_object_is_an_input_error(self, tmp_path, experiment_spec, run_cli):
        r = run_cli(["simulate", "--config", experiment_spec, "--out", "s.csv"], tmp_path)
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        manifest["machine"] = "x86"
        (tmp_path / "old.manifest.json").write_text(json.dumps(manifest))
        r = run_cli(["replay", "--manifest", "old.manifest.json"], tmp_path)
        assert r.returncode == 2 and "'machine' must be an object" in r.stderr

    def test_replay_ignores_environment(self, tmp_path, experiment_spec, run_cli):
        r = run_cli(["simulate", "--config", experiment_spec, "--out", "s.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        first = (tmp_path / "s.csv").read_bytes()
        (tmp_path / "s.csv").unlink()
        r = run_cli(["replay", "--manifest", "s.csv.manifest.json"], tmp_path, env_extra={"PUBPRIV_SEED": "77"})
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "s.csv").read_bytes() == first

    def test_replays_manifest_with_threads_option(self, tmp_path, experiment_spec, run_cli):
        # the manifest layout written before the --threads flag was removed
        r = run_cli(["simulate", "--config", "exp.json", "--out", "s.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        first = (tmp_path / "s.csv").read_bytes()
        (tmp_path / "s.csv").unlink()
        old = {
            "input_digests": {"exp.json": hashlib.sha256(experiment_spec.read_bytes()).hexdigest()},
            "options": {"config": "exp.json", "out": "s.csv", "seed": None, "threads": 1},
            "output": "s.csv",
            "seed": None,
            "subcommand": "simulate",
            "tool_version": "0.1.0",
        }
        (tmp_path / "old.manifest.json").write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
        r = run_cli(["replay", "--manifest", "old.manifest.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "s.csv").read_bytes() == first
        assert "threads" not in json.loads((tmp_path / "s.csv.manifest.json").read_text())["options"]

    def test_replays_region_manifest_with_tol_option(self, tmp_path, run_cli):
        # the manifest layout written before the --tol flag became the constant region.CONVERGENCE_TOL
        r = run_cli(["region", "--zoo", "identity", "--weights", "1,0", "--out", "r.csv", "--alphabet-x", "2",
                     "--alphabet-y", "2", "--restarts", "1", "--max-iters", "20"], tmp_path)
        assert r.returncode == 0, r.stderr
        first = (tmp_path / "r.csv").read_bytes()
        (tmp_path / "r.csv").unlink()
        old = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        old["options"]["tol"] = 1e-5
        (tmp_path / "old.manifest.json").write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
        r = run_cli(["replay", "--manifest", "old.manifest.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "r.csv").read_bytes() == first
        assert "tol" not in json.loads((tmp_path / "r.csv.manifest.json").read_text())["options"]

    def test_manifest_replays_from_another_directory(self, tmp_path, experiment_spec, run_cli):
        """Relative paths are stored relative to the manifest's directory, so a sibling directory replays it."""
        (tmp_path / "sub").mkdir()
        (tmp_path / "other").mkdir()
        r = run_cli(["simulate", "--config", "exp.json", "--out", "sub/s.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        first = (tmp_path / "sub" / "s.csv").read_bytes()
        manifest = (tmp_path / "sub" / "s.csv.manifest.json").read_bytes()
        (tmp_path / "sub" / "s.csv").unlink()
        r = run_cli(["replay", "--manifest", "../sub/s.csv.manifest.json"], tmp_path / "other")
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "sub" / "s.csv").read_bytes() == first
        assert (tmp_path / "sub" / "s.csv.manifest.json").read_bytes() == manifest

    @pytest.mark.parametrize("change", ["edited", "deleted"])
    def test_changed_input_is_refused(self, tmp_path, experiment_spec, run_cli, change):
        r = run_cli(["simulate", "--config", "exp.json", "--out", "s.csv"], tmp_path)
        assert r.returncode == 0, r.stderr
        (tmp_path / "s.csv").unlink()
        if change == "edited":
            spec = json.loads(experiment_spec.read_text())
            spec["code"]["trials"] = 41
            experiment_spec.write_text(json.dumps(spec))
        else:
            experiment_spec.unlink()
        r = run_cli(["replay", "--manifest", "s.csv.manifest.json"], tmp_path)
        assert r.returncode == 2
        assert "exp.json" in r.stderr
        assert not (tmp_path / "s.csv").exists()


VALID_CODE = {"n": 8, "M": 4, "delta": 0.5, "seed": 1, "trials": 5}
CHANNEL = {"p_main": [[1.0, 0.0], [0.0, 1.0]], "p_eve": [[0.5, 0.5], [0.5, 0.5]]}
KET = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]
ENSEMBLE = {"p_x": [1.0], "p_y_given_x": [[0.5, 0.5]], "rho_xy": [KET]}  # |0> and |1>, each with weight 1/2
IDENTITY_KRAUS = {"kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}
NAN_KRAUS = {"kraus": [[[[1.0, 0.0], [float("nan"), 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}  # json writes NaN
MALFORMED = {
    # id: (files to write, argv, word the message must name, raw Python message it must not print)
    "spec-is-a-list": ({"spec.json": [1, 2]}, ["simulate", "--config", "spec.json", "--out", "s.csv"],
                       "experiment spec", "AttributeError"),
    "unknown-code-key": ({"spec.json": {"channel": CHANNEL, "input_p": [0.5, 0.5],
                                        "code": {**VALID_CODE, "bogus": 1}}},
                         ["simulate", "--config", "spec.json", "--out", "s.csv"],
                         "bogus", "unexpected keyword argument"),
    "weights-not-numbers": ({}, ["region", "--zoo", "identity", "--weights", "1,x", "--out", "r.csv"],
                            "weights", "could not convert"),
    "manifest-without-options": ({"m.json": {"subcommand": "simulate"}}, ["replay", "--manifest", "m.json"],
                                 "options", "error: 'options'"),
    "ensemble-is-a-list": ({"ens.json": []},
                           ["entropy", "--zoo", "dephasing", "--p", "1.0", "--ensemble", "ens.json"],
                           "ensemble", "list indices"),
    "negative-seed": ({}, ["region", "--zoo", "identity", "--seed", "-1", "--weights", "1,0", "--out", "r.csv"]
                      + FAST_REGION, "seed", "expected non-negative integer"),
    "non-finite-weights": ({}, ["region", "--zoo", "identity", "--weights", "nan,1", "--out", "r.csv"],
                           "weights", "not subscriptable"),
    "non-finite-derivation-input": ({}, ["resources", "derive", "ds03", "--a", "inf", "--b", "1", "--c", "0"],
                                    "non-finite", "integer ratio"),
    "section3-negative-ie": ({}, ["resources", "derive", "section3", "--ib", "0.3", "--ie", "-0.1"],
                             "need I(X;B) >= I(X;E) >= 0, got (3/10, -1/10)", "Traceback"),
    "section3-ie-above-ib": ({}, ["resources", "derive", "section3", "--ib", "0.3", "--ie", "0.5"],
                             "need I(X;B) >= I(X;E) >= 0, got (3/10, 1/2)", "Traceback"),
    "nan-key-rate": ({}, ["region", "--zoo", "identity", "--rs", "nan", "--weights", "1,1", "--out", "r.csv"]
                     + FAST_REGION, "key rate", "RuntimeWarning"),
    "infinite-key-rate": ({}, ["skp", "--zoo", "dephasing", "--p", "0.5", "--rs", "inf", "--out", "k.csv",
                               "--alphabet-y", "2", "--restarts", "2", "--max-iters", "100"],
                          "key rate", "RuntimeWarning"),
    "nan-kraus-region": ({"ch.json": NAN_KRAUS}, ["region", "--channel-json", "ch.json", "--weights", "1,0",
                                                  "--out", "r.csv"] + FAST_REGION, "Kraus", "RuntimeWarning"),
    "nan-kraus-entropy": ({"ch.json": NAN_KRAUS, "ens.json": ENSEMBLE},
                          ["entropy", "--channel-json", "ch.json", "--ensemble", "ens.json"], "Kraus", "I_XB"),
    "nan-p-x": ({"ens.json": {**ENSEMBLE, "p_x": [float("nan")]}},
                ["entropy", "--zoo", "dephasing", "--p", "1.0", "--ensemble", "ens.json"], "p_x", "I_XB"),
    "nan-p-y-given-x": ({"ens.json": {**ENSEMBLE, "p_y_given_x": [[float("nan"), 0.5]]}},
                        ["entropy", "--zoo", "dephasing", "--p", "1.0", "--ensemble", "ens.json"],
                        "p_y_given_x", "I_XB"),
    "nan-cq-table": ({"t.json": [[float("nan"), 1.0], [0.5, 0.5]]},
                     ["region", "--cq-table", "t.json", "--weights", "1,0", "--out", "r.csv"] + FAST_REGION,
                     "p(b|a)", "RuntimeWarning"),
    "p-on-identity": ({}, ["region", "--zoo", "identity", "--p", "0.9", "--weights", "1,0", "--out", "r.csv"]
                      + FAST_REGION, "'p'", "TypeError"),
    "dim-on-dephasing": ({}, ["region", "--zoo", "dephasing", "--p", "0.5", "--dim", "3", "--weights", "1,0",
                              "--out", "r.csv"] + FAST_REGION, "'d'", "TypeError"),
    "p-without-zoo": ({"ch.json": IDENTITY_KRAUS}, ["region", "--channel-json", "ch.json", "--p", "0.5",
                                                    "--weights", "1,0", "--out", "r.csv"] + FAST_REGION,
                      "--p", "TypeError"),
    "unknown-spec-key": ({"spec.json": {"channel": CHANNEL, "input_p": [0.5, 0.5], "code": VALID_CODE,
                                        "securty": "exact"}},
                         ["simulate", "--config", "spec.json", "--out", "s.csv"], "securty", "KeyError"),
    "both-input-laws": ({"spec.json": {"channel": CHANNEL, "input_p": [0.5, 0.5], "code": VALID_CODE,
                                       "input_law": {"p_x": [1.0], "p_a_given_x": [[0.5, 0.5]]}}},
                        ["simulate", "--config", "spec.json", "--out", "s.csv"], "input_law", "KeyError"),
    "unknown-security-mode": ({"spec.json": {"channel": CHANNEL, "input_p": [0.5, 0.5], "code": VALID_CODE,
                                             "security": "exakt"}},
                              ["simulate", "--config", "spec.json", "--out", "s.csv"], "'security'", "KeyError"),
}


@pytest.mark.parametrize("files, argv, names, raw", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_exit_2_with_a_message(tmp_path, run_cli, files, argv, names, raw):
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    r = run_cli(argv, tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and names in r.stderr
    assert raw not in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("argv, named", [
    (["region", "--zoo", "identity", "--channel-json", "ch.json", "--out", "r.csv"], "--channel-json"),
    (["skp", "--zoo", "identity", "--alphabet-x", "2", "--out", "k.csv"], "--alphabet-x"),
    (["resources", "derive", "ds03", "--a", "1", "--b", "1", "--c", "0", "--seed", "5"], "--seed"),
    (["entropy", "--zoo", "identity", "--ensemble", "ens.json", "--seed", "1"], "--seed"),
    (["resources", "derive", "section3", "--ib", "1", "--ie", "0.4", "--a", "3", "--out", "s.json"], "--a"),
    (["resources", "derive", "section3", "--ib", "1", "--ie", "0.4", "--optimal-key", "1", "--out", "s.json"],
     "--optimal-key"),
    (["resources", "derive", "ds03", "--a", "1", "--b", "1", "--c", "0", "--ib", "1", "--out", "d.json"], "--ib"),
    (["resources", "derive", "ds03", "--a", "1", "--b", "1", "--c", "0", "--optimal-key", "1", "--out", "d.json"],
     "--optimal-key"),
    (["resources", "derive", "otp_combination", "--a", "1", "--b", "1", "--c", "0", "--ie", "0.4",
      "--out", "o.json"], "--ie"),
    (["region", "--zoo", "identity", "--tol", "1e-5", "--weights", "1,0", "--out", "r.csv"] + FAST_REGION, "--tol"),
], ids=["zoo-and-channel-json", "skp-alphabet-x", "resources-seed", "entropy-seed", "section3-a",
        "section3-optimal-key", "ds03-ib", "ds03-optimal-key", "otp-combination-ie", "region-tol"])
def test_parser_rejects_an_option_the_run_ignores(tmp_path, run_cli, argv, named):
    (tmp_path / "ch.json").write_text(json.dumps(IDENTITY_KRAUS))
    (tmp_path / "ens.json").write_text(json.dumps(ENSEMBLE))
    r = run_cli(argv, tmp_path)
    assert r.returncode == 2
    assert named in r.stderr and "Traceback" not in r.stderr
    assert not list(tmp_path.glob("*.manifest.json"))


def test_bad_weight_late_in_a_grid_fails_before_any_point(tmp_path, run_cli, monkeypatch):
    calls = []
    monkeypatch.setattr(region, "optimize_region", lambda *args: calls.append(args))
    r = run_cli(["region", "--zoo", "identity", "--weights", "1,0", "nan,1", "--out", "r.csv"], tmp_path)
    assert r.returncode == 2 and "weights" in r.stderr
    assert calls == []


def test_readme_commands_parse():
    """Every `pubpriv` line of the README's "Command line" block parses; none is run."""
    readme = README.read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("pubpriv ")]
    assert len(commands) == 8
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def readme_experiment_spec():
    """The "experiment (simulate)" object of the README's file formats, `//` comments stripped."""
    block = README.read_text(encoding="utf-8").split("```jsonc\n", 1)[1].split("```", 1)[0]
    return json.loads(re.sub(r"//[^\n]*", "", block.split("// experiment (simulate)\n", 1)[1]))


def test_readme_experiment_spec_runs(tmp_path, run_cli):
    spec = readme_experiment_spec()
    (tmp_path / "experiment.json").write_text(json.dumps(spec))
    r = run_cli(["simulate", "--config", "experiment.json", "--out", "sim.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert len(read_rows(tmp_path / "sim.csv")) == len(spec["sweep"])


def test_library_type_error_propagates(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a bug in the library")

    monkeypatch.setattr(cli, "pareto_surface", broken)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(TypeError, match="a bug in the library"):
        cli.main(["region", "--zoo", "identity", "--rs", "0", "--out", "r.csv"])


class TestColdStart:
    def test_import_loads_no_scipy(self):
        code = "import sys, pubpriv.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env(), timeout=120)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    @staticmethod
    def assert_loads_no_scipy(tmp_path, argv):
        """`pubpriv argv --out ...` in a child imports no scipy module, and writes the same CSV where scipy cannot
        load."""
        code = ("import sys\n{block}from pubpriv import cli\n"
                "code = cli.main(sys.argv[2:] + ['--out', sys.argv[1]])\n"
                "print(sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod))\n"
                "sys.exit(code)\n")
        for out, block in (("free.csv", ""), ("blocked.csv", "sys.modules['scipy'] = None\n")):
            r = subprocess.run([sys.executable, "-c", code.format(block=block), out, *argv], cwd=tmp_path,
                               capture_output=True, text=True, env=cli_env(), timeout=300)
            assert r.returncode == 0, r.stderr
            assert r.stdout.strip() == "[]"
        assert (tmp_path / "free.csv").read_bytes() == (tmp_path / "blocked.csv").read_bytes()

    def test_simulate_loads_no_scipy(self, tmp_path):
        (tmp_path / "experiment.json").write_text(json.dumps(readme_experiment_spec()))
        self.assert_loads_no_scipy(tmp_path, ["simulate", "--config", "experiment.json"])

    @pytest.mark.parametrize("argv", [
        ["region", "--zoo", "dephasing", "--p", "0.5", "--rs", "0", "0.5", "--weights", "1,0", "0,1"] + FAST_REGION,
        ["skp", "--zoo", "depolarizing", "--p", "0.3", "--rs", "0", "0.5", "--restarts", "2", "--max-iters", "100"],
    ], ids=["region", "skp"])
    def test_the_optimizer_loads_no_scipy(self, tmp_path, argv):
        self.assert_loads_no_scipy(tmp_path, argv)
