import json

import numpy as np
import pytest

from coverkit._blas import pinned_libraries
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
            "python", "numpy", "scipy", "blas", "blas_threads", "blas_pinned",
            "cpu_count", "workers",
        }
        assert env["blas_pinned"] == pinned_libraries()
        assert all("openblas" in name.lower() for name in env["blas_pinned"])
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
        from coverkit.cli import _CONFIG_KEYS

        lines = [
            "mode = ridge_sim",
            "n = 20",
            "n_test = 40",
            "dims = 4",
            "alpha = 0.1",
            "trials = 3",
            "methods = split, jackknife+",
            "ridge_penalty = 1e-4",
            "cv_folds = 2",
            "master_seed = 5",
        ]
        assert {line.split(" =")[0] for line in lines} == set(_CONFIG_KEYS)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# tiny run\n" + "\n".join(lines) + "\n")
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

    def test_removed_d_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("n = 20\nn_test = 40\nalpha = 0.1\ntrials = 2\nd = 4\n")
        code, _, err = _run(
            capsys, ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]
        )
        assert code == 2 and "unknown config keys: ['d']" in err

    def test_unknown_mode_exit_2(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, ["simulate", *TINY, "--mode", "bogus", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_clock_mode_with_other_dims_exit_2(self, capsys, tmp_path):
        code, _, err = _run(
            capsys,
            ["simulate", "--mode", "adversary_jk", "--dims", "1,2", "--n", "100",
             "--n-test", "10", "--trials", "2", "--alpha", "0.5",
             "--out-dir", str(tmp_path)],
        )
        assert code == 2
        assert err.startswith("error:") and "d = 1" in err
        assert list(tmp_path.iterdir()) == []

    CLOCK = ["simulate", "--mode", "adversary_jk", "--dims", "1", "--n", "100",
             "--n-test", "10", "--trials", "2", "--alpha", "0.5"]

    @pytest.mark.parametrize("flags", [
        ["--methods", "split", "--cv-folds", "3", "--ridge-penalty", "5"],
        ["--methods", "split,full,jackknife+,cv+"],
        ["--ridge-penalty", "1e-4"],
        ["--cv-folds", "4"],
    ], ids=["all-three", "methods", "ridge-penalty", "cv-folds"])
    def test_ridge_flag_in_clock_mode_exit_2(self, capsys, tmp_path, flags):
        code, _, err = _run(capsys, [*self.CLOCK, *flags, "--out-dir", str(tmp_path)])
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "no effect" in err
        assert list(tmp_path.iterdir()) == []

    def test_clock_manifest_with_ridge_keys_replays(self, capsys, tmp_path):
        # versions 0.4 to 0.6 recorded the smoke preset's ridge keys in the
        # manifest of every clock run started by `simulate`
        first, replay = tmp_path / "first", tmp_path / "replay"
        first.mkdir(), replay.mkdir()
        code, _, _ = _run(capsys, [*self.CLOCK, "--out-dir", str(first)])
        assert code == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["config"].update(
            methods=["split", "full", "jackknife+", "cv+"], ridge_penalty=1e-4,
            cv_folds=4,
        )
        manifest["version"] = "0.6.3"
        old = tmp_path / "old-manifest.json"
        old.write_text(json.dumps(manifest))
        code, _, _ = _run(
            capsys,
            ["simulate", "--from-manifest", str(old), "--out-dir", str(replay)],
        )
        assert code == 0
        assert (replay / "trials.csv").read_bytes() == (first / "trials.csv").read_bytes()
        replayed = json.loads((replay / "manifest.json").read_text())["config"]
        assert not {"methods", "ridge_penalty", "cv_folds"} & set(replayed)

    def test_manifest_with_string_methods_replays(self, capsys, tmp_path):
        # version 0.3.0 stored methods as one comma-separated string
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dir_a.mkdir(), dir_b.mkdir()
        code, _, _ = _run(capsys, ["simulate", *TINY, "--out-dir", str(dir_a)])
        assert code == 0
        manifest = json.loads((dir_a / "manifest.json").read_text())
        assert manifest["config"]["methods"] == ["split", "full", "jackknife+", "cv+"]
        manifest["config"]["methods"] = "split,full,jackknife+,cv+"
        old = tmp_path / "old-manifest.json"
        old.write_text(json.dumps(manifest))
        code, _, _ = _run(
            capsys,
            ["simulate", "--from-manifest", str(old), "--out-dir", str(dir_b)],
        )
        assert code == 0
        for name in ("trials.csv", "summary.csv", "summary.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_manifest_without_blas_pinned_replays(self, capsys, tmp_path):
        # versions before 0.6.2 wrote no "blas_pinned" into the environment
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dir_a.mkdir(), dir_b.mkdir()
        code, _, _ = _run(capsys, ["simulate", *TINY, "--out-dir", str(dir_a)])
        assert code == 0
        manifest = json.loads((dir_a / "manifest.json").read_text())
        del manifest["environment"]["blas_pinned"]
        manifest["version"] = "0.6.1"
        old = tmp_path / "old-manifest.json"
        old.write_text(json.dumps(manifest))
        code, _, _ = _run(
            capsys,
            ["simulate", "--from-manifest", str(old), "--out-dir", str(dir_b)],
        )
        assert code == 0
        for name in ("trials.csv", "summary.csv", "summary.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_adversary_manifest_with_null_key_replays(self, capsys, tmp_path):
        # version 0.3.0 wrote "clock_M": null into every adversary manifest
        code, _, _ = _run(
            capsys,
            ["adversary", "--method", "jk", "--n", "100", "--trials", "3",
             "--n-test", "10", "--alpha", "0.5", "--out-dir", str(tmp_path)],
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["config"]["clock_M"] = None
        old = tmp_path / "old-manifest.json"
        old.write_text(json.dumps(manifest))
        replay = tmp_path / "replay"
        replay.mkdir()
        code, _, _ = _run(
            capsys,
            ["simulate", "--from-manifest", str(old), "--out-dir", str(replay)],
        )
        assert code == 0
        assert (replay / "trials.csv").read_bytes() == (
            tmp_path / "adversary_trials.csv"
        ).read_bytes()

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


# a simulate and an adversary run, each on two workers
_BOTH_COMMANDS = pytest.mark.parametrize("argv", [
    ["simulate", *TINY, "--workers", "2"],
    ["adversary", "--method", "jk", "--n", "100", "--trials", "2",
     "--n-test", "10", "--alpha", "0.5", "--workers", "2"],
], ids=["simulate", "adversary"])


@pytest.mark.parametrize("argv", [
    ["simulate", *TINY],
    ["adversary", "--method", "jk", "--n", "100", "--trials", "2",
     "--n-test", "10", "--alpha", "0.5"],
], ids=["simulate", "adversary"])
@pytest.mark.parametrize("workers", ["0", "-5"])
def test_fewer_than_one_worker_exit_2(capsys, tmp_path, argv, workers):
    code, _, err = _run(capsys, [*argv, "--workers", workers, "--out-dir", str(tmp_path)])
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "workers" in err
    assert list(tmp_path.iterdir()) == []


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

    @_BOTH_COMMANDS
    def test_manifest_staged_before_the_trials(self, capsys, tmp_path, monkeypatch, argv):
        # what a hard-killed run leaves: a `finished: null` manifest in the
        # staging directory, and nothing beside the earlier files
        import coverkit.cli as cli_module
        from coverkit.experiments import run_trials

        seen = []

        def inspected(config, workers=1):
            (staging,) = tmp_path.glob(".coverkit-staging-*")
            assert [p.name for p in staging.iterdir()] == ["manifest.json"]
            seen.append(json.loads((staging / "manifest.json").read_text()))
            assert [p.name for p in tmp_path.iterdir()] == [staging.name]
            return run_trials(config, workers=1)

        monkeypatch.setattr(cli_module, "run_trials", inspected)
        code, _, _ = _run(capsys, [*argv, "--out-dir", str(tmp_path)])
        assert code == 0 and seen
        assert all(manifest["finished"] is None for manifest in seen)
        final = json.loads((tmp_path / "manifest.json").read_text())
        assert final["finished"] is not None
        assert {**final, "finished": None} == seen[0]
        assert not list(tmp_path.glob(".coverkit-staging-*"))

    @_BOTH_COMMANDS
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

    def test_missing_n_exit_2(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, ["adversary", "--method", "jk", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert err == "error: missing required config key 'n'\n"

    def test_same_run_as_simulate(self, capsys, tmp_path):
        keys = ["--n", "100", "--n-test", "10", "--trials", "3", "--alpha", "0.5",
                "--seed", "3"]
        adv, sim = tmp_path / "adversary", tmp_path / "simulate"
        adv.mkdir(), sim.mkdir()
        code_adv, _, _ = _run(
            capsys, ["adversary", "--method", "jk", *keys, "--out-dir", str(adv)]
        )
        code_sim, _, _ = _run(
            capsys,
            ["simulate", "--mode", "adversary_jk", "--dims", "1", *keys,
             "--out-dir", str(sim)],
        )
        assert code_adv == 0 and code_sim == 0
        assert (adv / "adversary_trials.csv").read_bytes() == (
            sim / "trials.csv"
        ).read_bytes()
        # the smoke preset's ridge keys are not inherited by a clock run
        config = json.loads((sim / "manifest.json").read_text())["config"]
        assert not {"methods", "ridge_penalty", "cv_folds"} & set(config)

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
