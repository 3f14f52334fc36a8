import csv
import json
from pathlib import Path

import pytest

from utilsched import DegenerateBudgetError, simulate
from utilsched.cli import (
    ConfigError,
    RunManifest,
    expand_sweep,
    load_config_file,
    main,
)

DATA = Path(__file__).parent / "data"


def read_csv(path):
    with open(path, newline="") as f:
        header, *lines = csv.reader(f)
    return header, [dict(zip(header, line)) for line in lines]


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "users = 8,16\n"
            "mean_snr_db = 10\n"
            "concavity = 0.1\n"
            "seed = 3\n"
        )
        parsed = load_config_file(str(cfg))
        assert parsed["users"] == [8, 16]
        assert parsed["mean_snr_db"] == 10.0
        assert parsed["seed"] == 3

    def test_unknown_key_diagnosed_with_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("users = 2\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2.*bogus"):
            load_config_file(str(cfg))

    def test_bad_value_diagnosed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("users = many\n")
        with pytest.raises(ConfigError, match="many"):
            load_config_file(str(cfg))

    def test_missing_file_names_path(self, capsys):
        status = main(["ts-sweep", "--config", "/nonexistent/path.cfg"])
        assert status == 2
        assert "/nonexistent/path.cfg" in capsys.readouterr().err

    def test_directory_names_path(self, tmp_path, capsys):
        assert main(["ts-sweep", "--config", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_non_utf8_file_names_path(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"users = 2\n# caf\xe9\n")
        assert main(["ts-sweep", "--config", str(cfg)]) == 2
        assert str(cfg) in capsys.readouterr().err

    def test_expand_sweep_cartesian(self):
        points = expand_sweep({"users": [2, 4], "concavity": [0.1, 1.0], "seed": 0})
        assert len(points) == 4
        assert points[0]["users"] == 2 and points[0]["concavity"] == 0.1
        assert points[-1]["users"] == 4 and points[-1]["concavity"] == 1.0

    def test_non_sweepable_list_rejected(self):
        with pytest.raises(ConfigError):
            expand_sweep({"snr_gap_db": [3.0, 8.2]})


class TestSweepCommands:
    def test_ts_sweep_users_axis(self, tmp_path):
        status = main([
            "ts-sweep", "--users", "8,16,24,32", "--concavity", "0.1",
            "--snr-gap-db", "8.2", "--frames", "60", "--output", str(tmp_path),
        ])
        assert status == 0
        header, rows = read_csv(tmp_path / "ts_sweep.csv")
        assert len(rows) == 4
        assert [r["users"] for r in rows] == ["8", "16", "24", "32"]
        assert "taur" in header and "mean_rate_user_32" in header
        assert all(float(r["taur"]) > 0 for r in rows)

    def test_repeat_invocation_byte_identical(self, tmp_path):
        argv = ["gs-sweep", "--users", "4", "--frames", "80",
                "--mean-snr-db", "0,10", "--output", str(tmp_path)]
        assert main(argv) == 0
        first = (tmp_path / "gs_sweep.csv").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "gs_sweep.csv").read_bytes() == first

    def test_manifest_written_and_replays(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["ts-sweep", "--users", "4", "--frames", "50",
                     "--output", str(out1)]) == 0
        manifest = RunManifest.load(str(out1 / "ts_sweep.manifest.json"))
        assert manifest.command == "ts-sweep"
        status = main(["replay", str(out1 / "ts_sweep.manifest.json"),
                       "--output", str(out2)])
        assert status == 0
        assert (out2 / "ts_sweep.csv").read_bytes() == (out1 / "ts_sweep.csv").read_bytes()

    def test_numeric_failure_exit_3(self, tmp_path, capsys):
        # a power-control run that cannot converge in one iteration
        status = main([
            "jtpc", "--users", "2", "--frames", "10", "--training-samples", "20",
            "--delta", "0", "--max-iterations", "1", "--output", str(tmp_path),
        ])
        assert status == 3
        err = capsys.readouterr().err
        assert "failed" in err or "numeric" in err

    def test_budget_below_the_level_resolution_exit_0(self, tmp_path):
        # no water level below the peak resolves a budget of 1e-20: it goes
        # to the entries at the peak marginal instead of failing the run
        status = main([
            "jtpc", "--power-budget", "1e-20", "--training-samples", "200", "--frames", "10",
            "--output", str(tmp_path),
        ])
        assert status == 0
        _, rows = read_csv(tmp_path / "jtpc.csv")
        assert rows[0]["error"] == "" and rows[0]["taur"] != ""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_non_finite_statistics_exit_3(self, tmp_path, capsys):
        # mean gains near 1e308 overflow the rates to inf and the rates times
        # shares to NaN; the run must fail instead of writing NaN statistics
        status = main(["ts-sweep", "--mean-snr-db", "3080", "--frames", "10", "--output", str(tmp_path)])
        assert status == 3
        with open(tmp_path / "ts_sweep.csv", newline="") as f:
            header, cells = csv.reader(f)
        assert len(cells) == len(header)
        row = dict(zip(header, cells))
        assert row["taur"] == ""
        assert row["error"].startswith("FloatingPointError: non-finite taur")
        # the cell names the statistics, not the row's config again
        assert "taur" in row["error"] and "ExperimentConfig(" not in row["error"]
        assert "sweep point failed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the gain draw overflows on purpose
    def test_infinite_gains_exit_3_before_any_solve(self, tmp_path, capsys):
        # gains past the float range used to end in unsettled water levels
        status = main(["jtpc", "--mean-snr-db", "3080", "--training-samples", "20", "--frames", "5",
                       "--output", str(tmp_path)])
        assert status == 3
        _, rows = read_csv(tmp_path / "jtpc.csv")
        assert rows[0]["taur"] == ""
        assert rows[0]["error"].startswith("ValueError: gains must be finite and >= 0, got inf at [")
        assert "sweep point failed" in capsys.readouterr().err

    def test_error_with_commas_is_one_cell(self, tmp_path, monkeypatch):
        message = "users [0, 1] cannot meet their budgets, first frame 3"
        run = simulate.run_experiment

        def failing(config):
            if config.users == 3:
                raise DegenerateBudgetError(message)
            return run(config)

        monkeypatch.setattr(simulate, "run_experiment", failing)
        status = main(["ts-sweep", "--users", "2,3", "--frames", "20", "--output", str(tmp_path)])
        assert status == 3
        with open(tmp_path / "ts_sweep.csv", newline="") as f:
            header, *rows = list(csv.reader(f))
        assert [len(row) for row in rows] == [len(header)] * 2
        ok, failed = (dict(zip(header, row)) for row in rows)
        assert ok["error"] == "" and float(ok["taur"]) > 0
        assert failed["error"] == f"DegenerateBudgetError: {message}"
        assert failed["taur"] == "" and failed["users"] == "3"

    def test_snr_axis_sweep(self, tmp_path):
        status = main([
            "ts-sweep", "--users", "2", "--mean-snr-db", "0,5,10,15,20,25,30",
            "--frames", "40", "--output", str(tmp_path),
        ])
        assert status == 0
        _, rows = read_csv(tmp_path / "ts_sweep.csv")
        snrs = [float(r["mean_snr_db"]) for r in rows]
        assert len(rows) == 7
        assert snrs == sorted(snrs) and len(set(snrs)) == 7

    def test_output_dir_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UTILSCHED_OUTDIR", str(tmp_path))
        assert main(["ts-sweep", "--users", "2", "--frames", "20"]) == 0
        assert (tmp_path / "ts_sweep.csv").exists()

    def test_qtsl_sweep_over_feedback_bits(self, tmp_path):
        status = main([
            "qtsl", "--users", "3", "--feedback-bits", "1,2", "--frames", "40",
            "--output", str(tmp_path), "--tag", "bits",
        ])
        assert status == 0
        _, rows = read_csv(tmp_path / "bits.csv")
        assert [r["feedback_bits"] for r in rows] == ["1", "2"]

    def test_golden_schema(self, tmp_path):
        # pinned config: schema (header) is frozen; changing it is a breaking change
        assert main(["ts-sweep", "--users", "2", "--frames", "30",
                     "--output", str(tmp_path)]) == 0
        header, _ = read_csv(tmp_path / "ts_sweep.csv")
        assert header == [
            "users", "mean_snr_db", "snr_gap_db", "concavity", "policy", "alpha",
            "delta", "power_budget", "slots", "feedback_bits", "frames", "seed",
            "training_samples", "taur",
            "mean_rate_user_1", "mean_rate_user_2",
            "rate_std_user_1", "rate_std_user_2", "error",
        ]


class TestFairnessCommand:
    def test_asymmetric_run(self, tmp_path):
        status = main([
            "fairness", "--users", "2", "--mean-snr-db", "0,10",
            "--frames", "400", "--tolerance", "0.01", "--output", str(tmp_path),
        ])
        assert status == 0
        _, rows = read_csv(tmp_path / "fairness.csv")
        row = rows[0]
        assert float(row["spread"]) <= 0.01
        assert float(row["weight_user_1"]) > float(row["weight_user_2"])

    def test_wrong_snr_count_rejected(self, capsys):
        status = main(["fairness", "--users", "3", "--mean-snr-db", "0,10"])
        assert status == 2

    def test_unconverged_run_exit_3_and_no_csv(self, tmp_path, capsys):
        status = main(["fairness", "--users", "2", "--mean-snr-db", "0,10", "--frames", "50",
                       "--max-iterations", "0", "--tolerance", "1e-9", "--output", str(tmp_path)])
        assert status == 3
        assert "numeric error (ConvergenceError)" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


class TestReplayValidation:
    def test_missing_manifest(self, capsys):
        assert main(["replay", "/nonexistent/m.json"]) == 2

    def test_corrupt_manifest(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text("{not json")
        assert main(["replay", str(bad)]) == 2

    def test_directory_manifest_names_path(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_non_utf8_manifest_names_path(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_bytes(b'{"command": "ts-sweep\xff"}')
        assert main(["replay", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err

    def test_tampered_hash_detected(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["ts-sweep", "--users", "2", "--frames", "20",
                     "--output", str(out)]) == 0
        path = out / "ts_sweep.manifest.json"
        data = json.loads(path.read_text())
        data["sha256"] = "0" * 64
        path.write_text(json.dumps(data))
        assert main(["replay", str(path), "--output", str(tmp_path / "again")]) == 1
        assert "mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("config", {"frames": 100}),
        ("config", ["frames", "100"]),
        ("config", {"no_such_key": "1"}),
        ("command", "nosuch"),
        ("command", "replay"),
        ("sha256", "d4b0c8c7"),
        ("sha256", "D4B0C8C7943037E382F097075F64F2CF3739DBE3D5F17D4EF10D59FF2D41FE9E"),
        ("output_csv", "sub/ts_sweep.csv"),
        ("output_csv", "ts_sweep.json"),
        ("output_csv", 5),
    ], ids=["int-value", "list", "unknown-key", "unknown-command", "replay-command",
            "short-hash", "upper-hash", "nested-csv", "not-csv", "int-csv"])
    def test_malformed_manifest_exit_2_and_no_csv(self, tmp_path, capsys, field, value):
        data = json.loads((DATA / "ts_sweep.manifest.json").read_text())
        data[field] = dict(data["config"], **value) if isinstance(value, dict) else value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        assert main(["replay", str(path), "--output", str(tmp_path / "again")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(path) in err
        assert not (tmp_path / "again").exists()

    def test_rerun_csv_is_the_one_hashed(self, tmp_path, capsys):
        # a stale CSV with the recorded bytes sits where the manifest points;
        # a nested output_csv is refused, and a bare one is overwritten by the
        # re-run at seed 5, whose bytes differ
        out = tmp_path / "again"
        assert main(["replay", str(DATA / "ts_sweep.manifest.json"), "--output", str(out)]) == 0
        recorded = (out / "ts_sweep.csv").read_bytes()
        (out / "sub").mkdir()
        (out / "sub" / "ts_sweep.csv").write_bytes(recorded)
        data = json.loads((DATA / "ts_sweep.manifest.json").read_text())
        data["config"]["seed"] = "5"
        for name, status in (("sub/ts_sweep.csv", 2), ("ts_sweep.csv", 1)):
            path = tmp_path / "m.json"
            path.write_text(json.dumps(dict(data, output_csv=name)))
            capsys.readouterr()
            assert main(["replay", str(path), "--output", str(out)]) == status
            assert "replay verified" not in capsys.readouterr().out
        assert (out / "ts_sweep.csv").read_bytes() != recorded

    def test_negative_exponent_value_replays(self, tmp_path, capsys):
        # the manifest records -1e-05, which argparse would read as a flag
        out = tmp_path / "run"
        assert main(["ts-sweep", "--mean-snr-db=-0.00001", "--frames", "20", "--output", str(out)]) == 0
        assert main(["replay", str(out / "ts_sweep.manifest.json"), "--output", str(tmp_path / "again")]) == 0
        assert "replay verified" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_failed_rerun_status_passed_through(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["ts-sweep", "--mean-snr-db", "3080", "--frames", "10", "--output", str(out)]) == 3
        manifest = out / "ts_sweep.manifest.json"
        assert main(["replay", str(manifest), "--output", str(tmp_path / "again")]) == 3
        assert "replay verified" not in capsys.readouterr().out


class TestInvalidConfigRejectedUpFront:
    @pytest.mark.parametrize("argv", [
        ["gs-sweep", "--alpha", "2"],
        ["fairness", "--snr-gap-db", "-1"],
        ["fairness", "--users", "3", "--concavity", "0.1,1"],
        ["ts-sweep", "--snr-gap-db", "-1"],
        ["qtsl", "--feedback-bits", "40"],
        ["fairness", "--users", "2,4"],
        ["fairness", "--snr-gap-db", "1,2"],
        ["fairness", "--seed", "1,2"],
        ["fairness", "--tolerance", "0"],
        ["fairness", "--max-iterations", "-1"],
        ["jtpc", "--max-iterations", "0"],
        ["ts-sweep", "--mean-snr-db", "nan"],
        ["ts-sweep", "--snr-gap-db", "nan"],
        ["gs-sweep", "--mean-snr-db", "nan"],
        ["ts-sweep", "--mean-snr-db", "inf"],
        ["ts-sweep", "--snr-gap-db", "inf"],
        ["ts-sweep", "--concavity", "inf"],
        ["ts-sweep", "--mean-snr-db", "4000"],
        ["ts-sweep", "--concavity", "-1"],
        ["jtpc", "--power-budget", "-1"],
        ["jtpc", "--power-budget", "0"],
        ["jtpc", "--power-budget", "nan"],
        ["jtpc", "--delta", "-1"],
        ["jtpc", "--delta", "nan"],
        ["ts-sweep", "--seed", "-1"],
        ["fairness", "--tolerance", "nan"],
        ["fairness", "--step", "nan"],
        ["fairness", "--step", "0"],
    ])
    def test_exit_2_and_no_csv(self, tmp_path, argv):
        out = tmp_path / "run"
        assert main(argv + ["--frames", "20", "--output", str(out)]) == 2
        assert not out.exists() or not list(out.glob("*.csv"))

    @pytest.mark.parametrize("frames", ["100,200", "0"])
    def test_fairness_frames(self, tmp_path, frames, capsys):
        out = tmp_path / "run"
        assert main(["fairness", "--frames", frames, "--output", str(out)]) == 2
        assert not out.exists() or not list(out.glob("*.csv"))
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("args, key", [
        ("ts-sweep --users 0", "users"),
        ("gs-sweep --alpha 2", "alpha"),
        ("qtsl --slots 5000", "slots"),
        ("fairness --frames 0", "frames"),
        ("fairness --users 1000 --frames 10000", "frames * users"),
        ("qtsl --users 300 --slots 300", "users * slots"),
        ("jtpc --users 200 --training-samples 10000", "training_samples * users"),
    ])
    def test_error_names_the_key_typed(self, tmp_path, args, key, capsys):
        assert main(args.split() + ["--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert key in err
        assert not [name for name in ("n_users", "n_frames", "n_slots", "smoothing", "n_samples") if name in err]


class TestMemoryKnobsRejectedUpFront:
    @pytest.mark.parametrize("argv", [
        ["qtsl", "--slots", "1025"],
        ["qtsl", "--slots", "-1"],
        ["qtsl", "--slots", "4,5000"],
        ["jtpc", "--users", "2", "--training-samples", "500001"],
        ["jtpc", "--users", "101"],
        ["jtpc", "--training-samples", "0"],
        ["qtsl", "--users", "257"],
        ["qtsl", "--users", "128", "--slots", "1024"],
        ["qtsl", "--users", "64,65", "--slots", "1024"],
    ])
    def test_exit_2_and_no_csv(self, tmp_path, argv, capsys):
        out = tmp_path / "run"
        assert main(argv + ["--frames", "20", "--output", str(out)]) == 2
        assert not out.exists() or not list(out.glob("*.csv"))
        assert "config error" in capsys.readouterr().err

    def test_fairness_sample_set(self, tmp_path, capsys):
        # rejected before any of the 500,001 frames is drawn
        out = tmp_path / "run"
        assert main(["fairness", "--users", "2", "--frames", "500001", "--output", str(out)]) == 2
        assert not out.exists() or not list(out.glob("*.csv"))
        assert "config error" in capsys.readouterr().err

    def test_bounds_themselves_accepted(self):
        from utilsched.simulate import MAX_JTPC_ENTRIES, MAX_SLOTS, ExperimentConfig

        ExperimentConfig(users=2, policy="qtsl", slots=MAX_SLOTS)
        ExperimentConfig(users=2, policy="jtpc", training_samples=MAX_JTPC_ENTRIES // 2)
        # the training set is sized only for jtpc
        ExperimentConfig(users=1000, policy="ts", training_samples=10_000)

    def test_qtsl_entry_bound_itself_accepted(self):
        from utilsched.simulate import MAX_SLOT_ENTRIES, ExperimentConfig

        ExperimentConfig(users=MAX_SLOT_ENTRIES // 1024, policy="qtsl", slots=1024)
        ExperimentConfig(users=256, policy="qtsl")  # 0 slots: one per user
        # the users x slots bound is for qtsl only
        ExperimentConfig(users=257, policy="ts")


class TestParentManifestsReplay:
    """Every manifest recorded in ``tests/data`` replays to the same bytes.

    The ts-sweep, jtpc and fairness ones predate the CLI taking its keys from
    ExperimentConfig: the fairness one lists every sweep key, including the
    ones fairness ignores, and the sweep ones lack ``max_iterations``.
    """

    @pytest.mark.parametrize(
        "name", sorted(p.name.removesuffix(".manifest.json") for p in DATA.glob("*.manifest.json"))
    )
    def test_replays_verified(self, tmp_path, name, capsys):
        manifest = DATA / f"{name}.manifest.json"
        assert main(["replay", str(manifest), "--output", str(tmp_path)]) == 0
        assert "replay verified" in capsys.readouterr().out

