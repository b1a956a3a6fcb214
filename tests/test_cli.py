import json

import numpy as np
import pytest

from coverkit.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_split_reference_value(self, capsys):
        code, out, _ = _run(
            capsys, ["bounds", "--split", "--alpha", "0.1", "--delta", "0.05",
                     "--n1", "250"]
        )
        assert code == 0
        assert "0.177405" in out

    def test_cvplus_near_vacuous_flag(self, capsys):
        code, out, _ = _run(
            capsys, ["bounds", "--cvplus", "--alpha", "0.1", "--delta", "0.05",
                     "--K", "20", "--m", "25"]
        )
        assert code == 0
        assert "0.892327" in out and "VACUOUS-NEAR-1" in out

    def test_floor_vacuous_flag(self, capsys):
        code, out, _ = _run(capsys, ["bounds", "--floor", "--alpha", "0.1",
                                     "--n", "500"])
        assert code == 0
        assert "-0.5689" in out and "[VACUOUS]" in out

    def test_corrected_infeasible(self, capsys):
        code, out, _ = _run(
            capsys, ["bounds", "--corrected", "--alpha", "0.1", "--delta", "0.05",
                     "--n1", "10"]
        )
        assert code == 0
        assert "INFEASIBLE" in out

    def test_json_output(self, capsys):
        code, out, _ = _run(
            capsys, ["bounds", "--json", "--split", "--floor", "--alpha", "0.1",
                     "--delta", "0.05", "--n1", "250", "--n", "50000"]
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["bounds"]) == 2
        assert payload["bounds"][0]["value"] == pytest.approx(0.177405, abs=1e-5)
        assert payload["bounds"][1]["flag"] == ""

    def test_missing_params_exit_2(self, capsys):
        code, _, err = _run(capsys, ["bounds", "--split", "--alpha", "0.1"])
        assert code == 2 and "n1" in err

    def test_no_bound_selected_exit_2(self, capsys):
        code, _, _ = _run(capsys, ["bounds", "--alpha", "0.1"])
        assert code == 2

    def test_invalid_alpha_exit_2(self, capsys):
        code, _, _ = _run(
            capsys, ["bounds", "--split", "--alpha", "1.5", "--delta", "0.05",
                     "--n1", "10"]
        )
        assert code == 2


TINY = ["--n", "20", "--dims", "4", "--trials", "3", "--n-test", "40",
        "--cv-folds", "2", "--seed", "5"]


class TestSimulateCommand:
    def test_tiny_run_writes_all_outputs(self, capsys, tmp_path):
        code, out, _ = _run(capsys, ["simulate", *TINY, "--out-dir", str(tmp_path)])
        assert code == 0
        for name in ("manifest.json", "trials.csv", "summary.csv", "summary.json"):
            assert (tmp_path / name).exists(), name
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["finished"] is not None
        assert manifest["config"]["n"] == 20
        assert "outputs written" in out

    def test_manifest_records_the_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        code, _, _ = _run(
            capsys, ["simulate", *TINY, "--workers", "1", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        assert set(env) == {
            "python", "numpy", "scipy", "blas", "blas_threads", "cpu_count", "workers",
        }
        assert env["numpy"] == np.__version__ and env["workers"] == 1
        assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert set(env["blas_threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        }
        assert "name" in env["blas"] and env["cpu_count"] >= 1

    def test_missing_out_dir_exit_3_no_partials(self, capsys, tmp_path):
        missing = tmp_path / "does-not-exist"
        code, _, err = _run(capsys, ["simulate", *TINY, "--out-dir", str(missing)])
        assert code == 3
        assert not missing.exists()

    def test_invalid_config_exit_2(self, capsys, tmp_path):
        code, _, err = _run(
            capsys,
            ["simulate", "--n", "21", "--dims", "4", "--trials", "2",
             "--n-test", "20", "--cv-folds", "2", "--out-dir", str(tmp_path)],
        )
        assert code == 2  # cv_folds does not divide n
        assert not (tmp_path / "trials.csv").exists()

    def test_unknown_preset_exit_2(self, capsys, tmp_path):
        # argparse validates --preset choices itself and exits with code 2
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "nope", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_config_file_equals_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# tiny run\n"
            "mode = ridge_sim\n"
            "n = 20\n"
            "n_test = 40\n"
            "dims = 4\n"
            "alpha = 0.1\n"
            "trials = 3\n"
            "methods = split,jackknife+\n"
            "cv_folds = 2\n"
            "master_seed = 5\n"
        )
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dir_a.mkdir(), dir_b.mkdir()
        code_a, _, _ = _run(
            capsys, ["simulate", "--config", str(cfg), "--out-dir", str(dir_a)]
        )
        code_b, _, _ = _run(
            capsys,
            ["simulate", *TINY, "--methods", "split,jackknife+",
             "--out-dir", str(dir_b)],
        )
        assert code_a == 0 and code_b == 0
        assert (dir_a / "trials.csv").read_bytes() == (dir_b / "trials.csv").read_bytes()

    def test_bad_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = 20\nwat = 7\n")
        code, _, err = _run(
            capsys, ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]
        )
        assert code == 2 and "unknown config keys" in err

    def test_rerun_from_manifest_byte_identical(self, capsys, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dir_a.mkdir(), dir_b.mkdir()
        code, _, _ = _run(capsys, ["simulate", *TINY, "--out-dir", str(dir_a)])
        assert code == 0
        code, _, _ = _run(
            capsys,
            ["simulate", "--from-manifest", str(dir_a / "manifest.json"),
             "--out-dir", str(dir_b)],
        )
        assert code == 0
        for name in ("trials.csv", "summary.csv", "summary.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_out_dir_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COVERKIT_OUT_DIR", str(tmp_path))
        code, _, _ = _run(capsys, ["simulate", *TINY])
        assert code == 0
        assert (tmp_path / "trials.csv").exists()

    def test_midrun_io_failure_rolls_back_partials(self, capsys, tmp_path, monkeypatch):
        import coverkit.cli as cli_module

        def boom(records, path):
            raise OSError("disk full")

        monkeypatch.setattr(cli_module, "write_trials_csv", boom)
        code, _, err = _run(capsys, ["simulate", *TINY, "--out-dir", str(tmp_path)])
        assert code == 3
        assert list(tmp_path.iterdir()) == []  # manifest removed too

    def test_smoke_preset_fast(self, capsys, tmp_path):
        import time

        t0 = time.monotonic()
        code, _, _ = _run(capsys, ["simulate", "--preset", "smoke",
                                   "--out-dir", str(tmp_path)])
        assert code == 0
        assert time.monotonic() - t0 < 30.0


class TestFailedRuns:
    """A failed run changes nothing in the output directory."""

    SMOKE = ["simulate", "--preset", "smoke", "--trials", "2"]
    OUTPUTS = ("manifest.json", "trials.csv", "summary.csv", "summary.json")

    def test_interrupted_rerun_keeps_finished_run(self, capsys, tmp_path, monkeypatch):
        import coverkit.cli as cli_module

        code, _, _ = _run(capsys, [*self.SMOKE, "--out-dir", str(tmp_path)])
        assert code == 0
        before = {name: (tmp_path / name).read_bytes() for name in self.OUTPUTS}

        def interrupted(config, workers=1):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "run_trials", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main([*self.SMOKE, "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(self.OUTPUTS)
        assert {name: (tmp_path / name).read_bytes() for name in self.OUTPUTS} == before

    @pytest.mark.parametrize("argv", [
        ["simulate", *TINY, "--workers", "2"],
        ["adversary", "--method", "jk", "--n", "100", "--trials", "2",
         "--n-test", "10", "--alpha", "0.5", "--workers", "2"],
    ], ids=["simulate", "adversary"])
    def test_worker_crash_exit_3_no_partials(self, capsys, tmp_path, monkeypatch, argv):
        from concurrent.futures.process import BrokenProcessPool

        import coverkit.cli as cli_module

        def crashed(config, workers=1):
            raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr(cli_module, "run_trials", crashed)
        code, _, err = _run(capsys, [*argv, "--out-dir", str(tmp_path)])
        assert code == 3
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestAdversaryCommand:
    def test_invalid_method_exit_2(self, capsys, tmp_path):
        code, _, _ = _run(
            capsys,
            ["adversary", "--method", "bogus", "--n", "100",
             "--out-dir", str(tmp_path)],
        )
        assert code == 2

    def test_small_run(self, capsys, tmp_path):
        code, out, err = _run(
            capsys,
            ["adversary", "--method", "jk", "--n", "100", "--trials", "5",
             "--n-test", "30", "--alpha", "0.5", "--seed", "3",
             "--out-dir", str(tmp_path)],
        )
        assert code == 0
        assert (tmp_path / "adversary_trials.csv").exists()
        assert "P(alpha_hat >= 0.99)" in out
        assert "M1/M" in out

    def test_degenerate_window_warns(self, capsys, tmp_path):
        # alpha=0.1 at n=100 clamps the window to zero
        code, out, err = _run(
            capsys,
            ["adversary", "--method", "full", "--n", "100", "--trials", "5",
             "--n-test", "20", "--seed", "1", "--out-dir", str(tmp_path)],
        )
        assert code == 0
        assert "M1 = 0" in err and "degenerates" in err
        assert "theoretical floor" in out and "VACUOUS" in out


class TestVersionFlag:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
