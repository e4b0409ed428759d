import csv
import dataclasses
import errno
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from stpnrca import bench, cli, pipeline, synth
from stpnrca.cli import main
from stpnrca.config import RunConfig
from stpnrca.persist import BUNDLE_FILE, load_bundle, save_bundle
from stpnrca.timeseries import TimeSeries, read_csv, write_csv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, toy_bundle, toy_nominal, toy_fault_ts, toy_fresh_nominal):
    root = tmp_path_factory.mktemp("cli")
    save_bundle(toy_bundle, root / "bundle")
    write_csv(toy_nominal, root / "nominal.csv")
    write_csv(toy_fault_ts, root / "fault.csv")
    write_csv(toy_fresh_nominal, root / "fresh.csv")
    return root


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def report_and_labels(workdir, tmp_path):
    report_path = tmp_path / "fault.report.json"
    run(
        "rca", "--model", workdir / "bundle", "--data", workdir / "fault.csv",
        "--method", "s3", "--force", "--out", report_path,
    )
    labels_path = tmp_path / "fault.labels.json"
    labels = {
        "case_id": "fault",
        "mode": 0,
        "channels": ["x1", "x2", "x3", "x4"],
        "seed": 3,
        "fault": {"kind": "node_delay", "node": 0, "delay": 5},
        "failed_patterns": [],
        "failed_nodes": [0],
    }
    labels_path.write_text(json.dumps(labels))
    return report_path, labels_path


class TestSimulate:
    def test_builtin_modes_and_cases(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run(
            "simulate", "--out", out, "--modes", "builtin", "--cases", "3",
            "--samples", "600",
        )
        assert code == 0
        names = sorted(os.listdir(out))
        assert "nominal_mode1.csv" in names and "nominal_mode6.csv" in names
        assert "case01.csv" in names and "case03.csv" in names
        labels = json.loads((out / "case01.labels.json").read_text())
        assert labels["fault"]["kind"] == "pattern_break"
        assert labels["failed_patterns"]
        ts = read_csv(out / "case01.csv")
        assert ts.n_samples == 600 and ts.n_channels == 5

    def test_node_delay_fault(self, tmp_path):
        out = tmp_path / "sim"
        code = run(
            "simulate", "--out", out, "--nodes", "6",
            "--fault", "node-delay:3:5", "--samples", "500", "--name", "delayed",
        )
        assert code == 0
        labels = json.loads((out / "delayed.labels.json").read_text())
        assert labels["failed_nodes"] == [3]
        assert (out / "delayed_nominal.csv").exists()

    def test_csv_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """simulate_var scans with GEMMs, which OpenBLAS may split across
        threads and then round otherwise; at 52 channels a carry product of
        2.6 million multiply-adds did. The files must be the same bytes at 1
        and at 2 threads."""
        src = str(Path(cli.__file__).resolve().parent.parent)
        runs = {"builtin": ["--modes", "builtin", "--cases", "1"],
                "nodes": ["--nodes", "52", "--fault", "node-delay:3:5"]}
        for threads in (1, 2):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            for name, args in runs.items():
                out = subprocess.run(
                    [sys.executable, "-m", "stpnrca.cli", "simulate",
                     "--out", str(tmp_path / f"{name}{threads}"), "--samples", "3000", *args],
                    env=env, capture_output=True, text=True,
                )
                assert out.returncode == 0, out.stderr
        for name in runs:
            files = sorted(os.listdir(tmp_path / f"{name}1"))
            assert files == sorted(os.listdir(tmp_path / f"{name}2"))
            for file in files:
                assert (tmp_path / f"{name}1" / file).read_bytes() == (
                    tmp_path / f"{name}2" / file).read_bytes(), file

    def test_invalid_fault_spec_no_partial_files(self, tmp_path):
        out = tmp_path / "sim"
        code = run("simulate", "--out", out, "--fault", "node-delay:bogus")
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--modes", "builtin", "--fault", "node-delay:bogus"],
            ["--nodes", "6", "--cases", "2"],
            ["--nodes", "6", "--modes", "builtin"],
            ["--nodes", "6", "--modes", "builtin", "--fault", "node-delay:1:3"],
            ["--cases", "-1"],
            ["--cases", "31"],
            ["--nodes", "6", "--mode", "3", "--fault", "node-delay:1:3"],
            ["--modes", "builtin", "--mode", "3"],
            ["--nodes", "0", "--fault", "node-delay:1:3"],
            ["--nodes", "1", "--fault", "node-delay:0:3"],
            ["--modes", "builtin", "--cases", "0"],
            ["--cases", "0"],
            ["--modes", "builtin", "--name", "foo"],
            ["--cases", "2", "--name", "foo"],
            ["--modes", "builtin", "--samples", "0"],
            ["--nodes", "6", "--fault", "node-delay:9:3"],
            ["--fault", "pattern-break:0-2"],  # mode 0 has no 0->2 edge
            ["--modes", "builtin", "--fault", "node-delay:9:3"],
            ["--cases", "3", "--fault", "pattern-break:0-2"],
        ],
    )
    def test_bad_arguments_leave_no_directory(self, tmp_path, args, capsys):
        out = tmp_path / "sim"
        assert run("simulate", "--out", out, "--samples", "200", *args) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--modes", "builtin", "--samples", "0"], "--samples"),
            (["--nodes", "6", "--fault", "node-delay:1:3", "--samples", "9"], "--samples"),
            (["--nodes", "6", "--fault", "node-delay:9:3"], "--fault node-delay:9:3"),
            (["--fault", "pattern-break:0-2"], "--fault pattern-break:0-2"),
        ],
    )
    def test_simulation_error_names_the_flag(self, tmp_path, args, flag, capsys):
        out = tmp_path / "sim"
        assert run("simulate", "--out", out, *args) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {flag}")
        assert not out.exists()

    def test_nothing_requested(self, tmp_path):
        assert run("simulate", "--out", tmp_path / "x") == 1

    @pytest.mark.parametrize("mode", [6, 9, -1])
    def test_mode_out_of_range_is_usage_error(self, tmp_path, mode, capsys):
        out = tmp_path / "sim"
        code = run("simulate", "--out", out, "--modes", "builtin", "--mode", mode)
        assert code == 1
        assert "--mode" in capsys.readouterr().err
        assert not out.exists()


class TestTrainDeterminism:
    def test_same_seed_byte_identical_bundles(self, tmp_path, toy_nominal):
        data = tmp_path / "nom.csv"
        write_csv(toy_nominal.window(0, 8 * 400), data)
        args = [
            "train", "--nominal", data, "--set", "alphabet_size=5",
            "--set", "window_length=400", "--set", "rbm_epochs=20",
            "--set", "rbm_hidden=8",
        ]
        assert run(*args, "--out", tmp_path / "b1") == 0
        assert run(*args, "--out", tmp_path / "b2") == 0
        for name in os.listdir(tmp_path / "b1"):
            b1 = (tmp_path / "b1" / name).read_bytes()
            b2 = (tmp_path / "b2" / name).read_bytes()
            assert b1 == b2, name

    def test_a3_bundle_bytes_do_not_depend_on_blas_threads(self, tmp_path, toy_nominal):
        """a3 steps run float32 GEMMs, which OpenBLAS may split across threads
        otherwise than float64 ones; at the default widths a 128-row step's
        middle product is large enough to be split. The bundle must be the
        same bytes at 1 and at 2 threads."""
        data = tmp_path / "nom.csv"
        write_csv(toy_nominal.window(0, 8 * 400), data)
        src = str(Path(cli.__file__).resolve().parent.parent)
        for threads in (1, 2):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            out = subprocess.run(
                [sys.executable, "-m", "stpnrca.cli", "train", "--nominal", str(data),
                 "--out", str(tmp_path / f"b{threads}"), "--a3", "--set", "window_length=400",
                 "--set", "rbm_epochs=5", "--set", "rbm_hidden=8", "--set", "a3_epochs=3"],
                env=env, capture_output=True, text=True,
            )
            assert out.returncode == 0, out.stderr
        assert (tmp_path / "b1" / BUNDLE_FILE).read_bytes() == (
            tmp_path / "b2" / BUNDLE_FILE).read_bytes()

    def test_headerless_file_of_another_width_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        rows = np.random.default_rng(0).normal(size=(900, 3))
        path.write_text("".join(",".join(f"{x:.6f}" for x in row) + "\n" for row in rows))
        assert run("train", "--nominal", path, "--out", tmp_path / "b") == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_retraining_without_a3_drops_the_old_classifier(self, tmp_path, toy_nominal):
        data = tmp_path / "nom.csv"
        write_csv(toy_nominal.window(0, 8 * 400), data)
        args = [
            "train", "--nominal", data, "--out", tmp_path / "b", "--set", "alphabet_size=5",
            "--set", "window_length=400", "--set", "rbm_epochs=5", "--set", "rbm_hidden=8",
        ]
        small_a3 = ["--set", "a3_hidden=8", "--set", "a3_epochs=2",
                    "--set", "a3_samples_per_order=2"]
        assert run(*args, "--a3", *small_a3) == 0
        assert load_bundle(tmp_path / "b").mlp is not None
        assert run(*args) == 0
        assert load_bundle(tmp_path / "b").mlp is None
        assert os.listdir(tmp_path / "b") == [BUNDLE_FILE]
        rca = ["rca", "--model", tmp_path / "b", "--data", data, "--method", "a3", "--force"]
        assert run(*rca) == 1

    def test_library_warning_is_one_line(self, tmp_path, toy_nominal, capsys):
        data = tmp_path / "nom.csv"
        write_csv(toy_nominal.window(0, 3000), data)
        code = run(
            "train", "--nominal", data, "--out", tmp_path / "b",
            "--set", "window_length=200", "--set", "threshold_quantile=0.01",
        )
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: calibrating")
        assert ".py:" not in err[0]

    def test_missing_csv_names_path(self, tmp_path, capsys):
        code = run("train", "--nominal", tmp_path / "missing.csv", "--out", tmp_path / "b")
        assert code == 2
        assert "missing.csv" in capsys.readouterr().err


class TestDetect:
    def test_nominal_all_clear(self, workdir, capsys):
        assert run("detect", "--model", workdir / "bundle", "--data", workdir / "fresh.csv") == 0
        out = capsys.readouterr().out
        assert "verdict=anomalous" not in out
        assert out.count("verdict=nominal") == 6

    def test_fault_flags_windows(self, workdir, capsys):
        assert run("detect", "--model", workdir / "bundle", "--data", workdir / "fault.csv") == 0
        assert "verdict=anomalous" in capsys.readouterr().out

    def test_short_series_is_data_error(self, workdir, tmp_path, toy_fresh_nominal):
        short = tmp_path / "short.csv"
        write_csv(toy_fresh_nominal.window(0, 100), short)
        assert run("detect", "--model", workdir / "bundle", "--data", short) == 2

    def test_windows_step_by_the_bundle_stride(self, workdir, tmp_path, toy_nominal, capsys):
        data = tmp_path / "nom.csv"
        write_csv(toy_nominal.window(0, 8 * 400), data)
        model = tmp_path / "half"
        assert run(
            "train", "--nominal", data, "--out", model, "--set", "alphabet_size=5",
            "--set", "window_length=400", "--set", "stride=200", "--set", "rbm_epochs=20",
            "--set", "rbm_hidden=8",
        ) == 0
        expected = list(range(0, 2400 - 400 + 1, 200))  # fresh.csv holds 2,400 samples
        capsys.readouterr()
        assert run("detect", "--model", model, "--data", workdir / "fresh.csv") == 0
        lines = capsys.readouterr().out.splitlines()[:-1]
        assert [int(line.split()[0][len("start="):]) for line in lines] == expected
        report = tmp_path / "r.json"
        assert run(
            "rca", "--model", model, "--data", workdir / "fresh.csv", "--force", "--out", report
        ) == 0
        assert [w["start"] for w in json.loads(report.read_text())["windows"]] == expected

    @pytest.mark.parametrize("rename", [False, True])
    def test_reordered_columns_are_data_error(
        self, workdir, tmp_path, toy_fresh_nominal, rename, capsys
    ):
        names = [f"renamed_{n}" if rename else n for n in toy_fresh_nominal.names]
        swapped = TimeSeries(tuple(names[::-1]), toy_fresh_nominal.values[:, ::-1])
        path = tmp_path / "swapped.csv"
        write_csv(swapped, path)
        assert run("detect", "--model", workdir / "bundle", "--data", path) == 2
        assert "channels" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage", ["unknown_key", "out_of_range", "garbled"]
    )
    def test_damaged_run_file_is_data_error(
        self, workdir, tmp_path, damage, capsys, rewrite_header
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        path = bundle / BUNDLE_FILE
        if damage == "garbled":
            path.write_bytes(b"{garbled\n" + path.read_bytes().partition(b"\n")[2])
        else:
            key, value = ("rbm_hiden", 8) if damage == "unknown_key" else ("rbm_batch_size", 0)
            rewrite_header(path, lambda doc: doc["payload"]["config"].update({key: value}))
        assert run("detect", "--model", bundle, "--data", workdir / "fresh.csv") == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value", [("window_length", -40), ("window_length", 1), ("lag", 0)]
    )
    def test_meaningless_model_structure_is_data_error(
        self, workdir, tmp_path, key, value, capsys, rewrite_header
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        path = bundle / BUNDLE_FILE
        rewrite_header(path, lambda doc: doc["payload"]["config"].update({key: value}))
        assert run("detect", "--model", bundle, "--data", workdir / "fresh.csv") == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"config key {key!r}" in err

    def test_truncated_model_file_is_data_error(self, workdir, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        data = (bundle / BUNDLE_FILE).read_bytes()
        (bundle / BUNDLE_FILE).write_bytes(data[: len(data) // 2])
        assert run("detect", "--model", bundle, "--data", workdir / "fresh.csv") == 2
        err = capsys.readouterr().err
        assert str(bundle / BUNDLE_FILE) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value",
        [("alphabet_size", 9), ("depth", 2), ("rbm_hidden", 3), ("a3_hidden", [64, 64])],
        ids=["alphabet_size-9", "depth-2", "rbm_hidden-3", "a3_hidden-value5"],
    )
    def test_run_file_contradicting_the_models_is_data_error(
        self, workdir, tmp_path, key, value, capsys, rewrite_header
    ):
        """The config's widths must fit the stored arrays' shapes."""
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        rewrite_header(
            bundle / BUNDLE_FILE, lambda doc: doc["payload"]["config"].update({key: value})
        )
        assert run("detect", "--model", bundle, "--data", workdir / "fresh.csv") == 2
        err = capsys.readouterr().err
        assert str(bundle) in err and key in err

    def test_binary_data_file_is_data_error(self, workdir, tmp_path, capsys):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\xff\xfe\x00garbage")
        assert run("detect", "--model", workdir / "bundle", "--data", path) == 2
        assert "binary.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", [64, 10000, 100000000])
    def test_depth_beyond_any_count_grid_is_data_error(
        self, workdir, tmp_path, depth, capsys, rewrite_header
    ):
        """A header depth past 63 is a config the toolkit refuses, before the
        power of the alphabet size is computed, so it neither hangs nor
        prints a traceback."""
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        path = bundle / BUNDLE_FILE
        rewrite_header(path, lambda doc: doc["payload"]["config"].update(
            depth=depth, window_length=10**9))
        assert run("detect", "--model", bundle, "--data", workdir / "fresh.csv") == 2
        err = capsys.readouterr().err
        assert f"{path}: bad config (" in err and "depth must be <= 63" in err
        assert "Traceback" not in err

    def test_float_key_past_float_range_is_data_error(
        self, workdir, tmp_path, capsys, rewrite_header
    ):
        """JSON reads 10**400 as an int that no float holds: the header
        config is refused, not loaded with an integer kappa."""
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        path = bundle / BUNDLE_FILE
        rewrite_header(path, lambda doc: doc["payload"]["config"].update(detector_kappa=10**400))
        assert run("detect", "--model", bundle, "--data", workdir / "fresh.csv") == 2
        err = capsys.readouterr().err
        assert f"{path}: bad config (config key 'detector_kappa': cannot parse" in err
        assert "Traceback" not in err
        # the 401 digits are cut to a short prefix: the line stays readable
        (line,) = err.splitlines()
        assert len(line) <= len(f"data error: {path}: bad config (config key "
                                "'detector_kappa': cannot parse )") + 40

    def test_non_finite_partition_edge_is_data_error(
        self, workdir, tmp_path, capsys, rewrite_header
    ):
        """At alphabet size 2 each channel has one edge, so only the
        finiteness check stops a NaN edge from binning every sample as 0."""
        bundle = tmp_path / "bundle"
        assert run("train", "--nominal", workdir / "nominal.csv", "--out", bundle,
                   "--set", "alphabet_size=2", "--set", "window_length=400",
                   "--set", "rbm_epochs=1") == 0
        path = bundle / BUNDLE_FILE
        edges = load_bundle(bundle).stpn.partition.edges.copy()
        edges[2, 0] = np.nan
        rewrite_header(path, edges=edges)
        capsys.readouterr()
        assert run("detect", "--model", bundle, "--data", workdir / "fresh.csv") == 2
        err = capsys.readouterr().err
        assert err == (f"data error: {path}: channel 2: bin edges are not finite and "
                       "strictly increasing\n")

    def test_four_file_bundle_is_data_error(self, workdir, tmp_path, capsys):
        for name in ("stpn.json", "rbm.json", "run.json"):
            (tmp_path / name).write_text("{}")
        assert run("detect", "--model", tmp_path, "--data", workdir / "fresh.csv") == 2
        err = capsys.readouterr().err
        assert str(tmp_path) in err and "must be retrained" in err and "Traceback" not in err


class TestRca:
    def test_report_written(self, workdir, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            "rca", "--model", workdir / "bundle", "--data", workdir / "fault.csv",
            "--method", "s3", "--out", out,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["method"] == "s3"
        assert report["aggregate"]["nodes"][0]["node"] == 0
        assert len(report["aggregate"]["ranking"]) == 4
        assert report["config_fingerprint"]

    def test_gate_vs_force(self, workdir, tmp_path, capsys):
        out = tmp_path / "r.json"
        run(
            "rca", "--model", workdir / "bundle", "--data", workdir / "fresh.csv",
            "--out", out,
        )
        gated = json.loads(out.read_text())
        assert gated["n_analyzed"] == 0
        run(
            "rca", "--model", workdir / "bundle", "--data", workdir / "fresh.csv",
            "--force", "--out", out,
        )
        forced = json.loads(out.read_text())
        assert forced["n_analyzed"] == forced["n_windows"]

    def test_var_needs_nominal(self, workdir):
        assert run("rca", "--data", workdir / "fault.csv", "--method", "var") == 1

    @pytest.mark.parametrize(
        "method, extra",
        [
            ("var", ["--model", "/nonexistent"]),
            ("var", ["--force"]),
            ("s3", ["--nominal", "/nonexistent.csv"]),
            ("a3", ["--nominal", "/nonexistent.csv"]),
        ],
    )
    def test_flags_of_another_method_rejected(self, workdir, method, extra, capsys):
        model = [] if method == "var" else ["--model", workdir / "bundle"]
        nominal = ["--nominal", workdir / "nominal.csv"] if method == "var" else []
        code = run(
            "rca", "--data", workdir / "fault.csv", "--method", method, *model, *nominal, *extra
        )
        assert code == 1
        assert f"{extra[0]} not accepted with --method {method}" in capsys.readouterr().err

    def test_a3_without_classifier_is_usage_error(self, workdir, tmp_path, capsys, toy_bundle):
        bundle = tmp_path / "bundle"
        save_bundle(dataclasses.replace(toy_bundle, mlp=None), bundle)
        # no window of the fresh series is flagged, so none would be analysed
        assert run("rca", "--model", bundle, "--data", workdir / "fresh.csv", "--method", "a3") == 1
        assert "classifier" in capsys.readouterr().err

    def test_stdout_is_the_report_alone(self, workdir, capsys):
        assert run("rca", "--model", workdir / "bundle", "--data", workdir / "fresh.csv") == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["n_analyzed"] == 0
        assert "--force" in captured.err

    def test_stdout_report_is_the_out_file(self, workdir, tmp_path, capsys):
        args = ["rca", "--model", workdir / "bundle", "--data", workdir / "fault.csv", "--force"]
        assert run(*args) == 0
        printed = capsys.readouterr().out
        assert run(*args, "--out", tmp_path / "report.json") == 0
        assert printed == (tmp_path / "report.json").read_text()

    def test_var_method(self, workdir, tmp_path):
        out = tmp_path / "var.json"
        code = run(
            "rca", "--data", workdir / "fault.csv", "--method", "var",
            "--nominal", workdir / "nominal.csv", "--out", out,
            "--set", "window_length=400",
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["method"] == "var"

    def test_model_required_for_s3(self, workdir):
        assert run("rca", "--data", workdir / "fault.csv") == 1

    @pytest.mark.parametrize("method", ["s3", "a3"])
    @pytest.mark.parametrize("flag", ["--set", "--config"])
    def test_config_flags_rejected_for_bundle_methods(
        self, workdir, tmp_path, method, flag, capsys
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a3_cutoff = 0.9\n")
        code = run(
            "rca", "--model", workdir / "bundle", "--data", workdir / "fault.csv",
            "--method", method, "--force", flag, "a3_cutoff=0.9" if flag == "--set" else cfg,
        )
        assert code == 1
        assert "the bundle stores its config" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rca", "evaluate", "simulate"])
    def test_unwritable_out_is_data_error(
        self, workdir, report_and_labels, tmp_path, command, capsys, monkeypatch
    ):
        missing = tmp_path / "missing" / "dir" / "out.json"
        report, labels = report_and_labels

        def no_analysis(*args, **kwargs):
            raise AssertionError("inputs were read before the output was checked")

        for name in ("load_bundle", "run_rca", "_read_json", "evaluate_case"):
            monkeypatch.setattr(cli, name, no_analysis)
        argv = {
            "rca": ["rca", "--model", workdir / "bundle", "--data", workdir / "fault.csv",
                    "--force", "--out", missing],
            "evaluate": ["evaluate", "--reports", report, "--labels", labels, "--out", missing],
            # a directory cannot be made under a regular file
            "simulate": ["simulate", "--out", report / "sim", "--modes", "builtin",
                         "--samples", "50"],
        }[command]
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(report / "sim" if command == "simulate" else missing) in err

    @pytest.mark.parametrize(
        "command", ["train", "simulate", "rca", "evaluate", "train-under", "simulate-under"]
    )
    def test_out_of_the_wrong_kind_fails_before_any_work(
        self, workdir, report_and_labels, tmp_path, command, capsys, monkeypatch
    ):
        """A directory output at an existing file or under one, or a file
        output at an existing directory, fails before any input is read,
        naming the path."""
        report, labels = report_and_labels

        def no_work(*args, **kwargs):
            raise AssertionError("the work ran before the output was checked")

        for name in ("train_bundle", "simulate_case", "run_rca", "evaluate_case"):
            monkeypatch.setattr(cli, name, no_work)
        taken = {"train": report, "simulate": report, "train-under": report / "b",
                 "simulate-under": report / "sim"}.get(command, tmp_path)
        argv = {
            "train": ["train", "--nominal", workdir / "nominal.csv", "--out", taken],
            "simulate": ["simulate", "--out", taken, "--modes", "builtin", "--samples", "50"],
            "train-under": ["train", "--nominal", workdir / "nominal.csv", "--out", taken],
            "simulate-under": ["simulate", "--out", taken, "--modes", "builtin",
                               "--samples", "50"],
            "rca": ["rca", "--model", workdir / "bundle", "--data", workdir / "fault.csv",
                    "--force", "--out", taken],
            "evaluate": ["evaluate", "--reports", report, "--labels", labels, "--out", taken],
        }[command]
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        code = errno.EISDIR if command in ("rca", "evaluate") else errno.ENOTDIR
        assert err == f"error: [Errno {code}] {os.strerror(code)}: {str(taken)!r}\n"


class TestEvaluate:
    def test_table_output(self, report_and_labels, tmp_path, capsys):
        report_path, labels_path = report_and_labels
        out_csv = tmp_path / "table.csv"
        code = run(
            "evaluate", "--reports", report_path, "--labels", labels_path,
            "--out", out_csv,
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "diagnosis_cost" in stdout
        rows = out_csv.read_text().strip().splitlines()
        assert len(rows) == 2
        assert rows[0].startswith("case_id,")

    def test_table_cells_holding_commas_are_quoted(self, report_and_labels, tmp_path):
        report_path, labels_path = report_and_labels
        labels = json.loads(labels_path.read_text())
        labels["failed_nodes"] = [0, 3]  # a diagnosis cost per failed node
        two = tmp_path / "two.labels.json"
        two.write_text(json.dumps(labels))
        out_csv = tmp_path / "table.csv"
        code = run("evaluate", "--reports", report_path, "--labels", two, "--out", out_csv)
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [9, 9]
        assert rows[1][7].startswith("[")

    def test_case_id_mismatch(self, report_and_labels, tmp_path, capsys):
        report_path, labels_path = report_and_labels
        wrong = tmp_path / "wrong.labels.json"
        labels = json.loads(labels_path.read_text())
        labels["case_id"] = "other_case"
        wrong.write_text(json.dumps(labels))
        assert run("evaluate", "--reports", report_path, "--labels", wrong) == 2
        err = capsys.readouterr().err
        assert "case id mismatch" in err and str(report_path) in err and str(wrong) in err

    @pytest.mark.parametrize("which", ["report", "labels"])
    @pytest.mark.parametrize("content", [None, "{garbled", b"\xff\xfe", "[1, 2]"])
    def test_unreadable_input_is_data_error(
        self, report_and_labels, tmp_path, which, content, capsys
    ):
        report_path, labels_path = report_and_labels
        bad = tmp_path / f"bad.{which}.json"
        if isinstance(content, bytes):
            bad.write_bytes(content)
        elif content is not None:  # None: the file is missing
            bad.write_text(content)
        paths = (bad, labels_path) if which == "report" else (report_path, bad)
        assert run("evaluate", "--reports", paths[0], "--labels", paths[1]) == 2
        assert str(bad) in capsys.readouterr().err

    def test_channel_mismatch(self, report_and_labels, tmp_path, capsys):
        report_path, labels_path = report_and_labels
        cut = tmp_path / "cut.labels.json"
        labels = json.loads(labels_path.read_text())
        labels["channels"] = labels["channels"][:3]  # a 3-channel system's labels
        cut.write_text(json.dumps(labels))
        assert run("evaluate", "--reports", report_path, "--labels", cut) == 2
        err = capsys.readouterr().err
        assert str(report_path) in err and str(cut) in err

    def test_report_given_as_labels_is_refused(self, report_and_labels, capsys):
        # a report has the labels' channels but no fault: not a false-alarm case
        report_path, _ = report_and_labels
        assert run("evaluate", "--reports", report_path, "--labels", report_path) == 2
        err = capsys.readouterr().err
        assert "no 'fault' key" in err and err.count(str(report_path)) == 2

    def test_unknown_fault_kind_is_refused(self, report_and_labels, tmp_path, capsys):
        # not scored as a node fault from its failed_nodes
        report_path, labels_path = report_and_labels
        bad = tmp_path / "bad.labels.json"
        labels = json.loads(labels_path.read_text())
        labels["fault"]["kind"] = "bogus"
        bad.write_text(json.dumps(labels))
        assert run("evaluate", "--reports", report_path, "--labels", bad) == 2
        err = capsys.readouterr().err
        assert "unknown fault kind 'bogus'" in err and str(report_path) in err and str(bad) in err

    def test_count_mismatch(self, report_and_labels):
        report_path, labels_path = report_and_labels
        code = run(
            "evaluate", "--reports", report_path, report_path, "--labels", labels_path
        )
        assert code == 2


def _same_exactly(a, b) -> bool:
    """Equal values of equal JSON kinds, each float to the last bit; a tuple
    counts as the list JSON writes for it."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _same_exactly(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(
            map(_same_exactly, a, b))
    if isinstance(a, float):
        return type(b) is float and a.hex() == b.hex()
    return type(a) is type(b) and a == b


@pytest.fixture(scope="module")
def plant(tmp_path_factory):
    """A 12-channel node delay, its sidecar, the bundle trained on its
    nominal companion, and the forced s3 report of the faulty series."""
    root = tmp_path_factory.mktemp("plant")
    data, model, report = root / "data", root / "model", root / "fault.s3.json"
    assert run("simulate", "--out", data, "--nodes", "12", "--fault", "node-delay:3:5",
               "--samples", "4000") == 0
    assert run("train", "--nominal", data / "fault_nominal.csv", "--out", model,
               "--set", "window_length=400", "--set", "threshold_quantile=0.1") == 0
    assert run("rca", "--model", model, "--data", data / "fault.csv", "--force",
               "--out", report) == 0
    return data, model, report


class TestJsonOutput:
    """Reports and label sidecars are one line of compact JSON, written by
    the C encoder, that reads back to the very values computed."""

    def test_no_write_falls_back_to_the_python_encoder(self, workdir, tmp_path, monkeypatch,
                                                       capsys):
        def python_encoder(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
        rca = ["rca", "--model", workdir / "bundle", "--data", workdir / "fault.csv", "--force"]
        assert run(*rca, "--out", tmp_path / "report.json") == 0
        assert run(*rca) == 0
        assert run("simulate", "--out", tmp_path / "sim", "--nodes", "6",
                   "--fault", "node-delay:3:5", "--samples", "500") == 0
        capsys.readouterr()
        labels = json.loads((tmp_path / "sim" / "fault.labels.json").read_text())
        assert labels["failed_nodes"] == [3]

    def test_report_reads_back_to_the_computed_report(self, plant):
        data, model, report = plant
        text = report.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        computed = pipeline.run_rca(load_bundle(str(model)), read_csv(str(data / "fault.csv")),
                                    method="s3", force=True, data_path=str(data / "fault.csv"))
        assert computed["n_analyzed"] > 0
        assert all(w["trace"] for w in computed["windows"])  # forced: every window searched
        assert _same_exactly(computed, json.loads(text))

    def test_sidecar_reads_back_to_the_simulated_labels(self, plant):
        data, _, _ = plant
        text = (data / "fault.labels.json").read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        config = RunConfig()
        graph = synth.random_graph(12, seed=config.seed)
        spec = synth.FaultSpec(kind="node_delay", node=3, delay=5)
        _, labels = synth.simulate_case(graph, spec, 4000, config.seed + 777, "fault", 0)
        assert _same_exactly(labels, json.loads(text))

    def test_indented_reports_of_earlier_builds_score_the_same(self, plant, tmp_path, capsys):
        data, _, report = plant
        indented = tmp_path / "fault.indented.json"
        indented.write_text(json.dumps(json.loads(report.read_text()), indent=1,
                                       sort_keys=True) + "\n")
        runs = []
        for path in (report, indented):
            table = tmp_path / f"{path.stem}.csv"
            assert run("evaluate", "--reports", path, "--labels", data / "fault.labels.json",
                       "--out", table) == 0
            runs.append((capsys.readouterr().out.replace(str(table), "TABLE"),
                         table.read_bytes()))
        assert runs[0] == runs[1]


class TestBench:
    def test_unknown_suite_lists_known(self, capsys):
        assert run("bench", "does-not-exist") == 1
        err = capsys.readouterr().err
        assert "prop1" in err and "dataset1-desk" in err

    def test_prop1_passes(self, capsys):
        assert run("bench", "prop1") == 0
        assert "PASS" in capsys.readouterr().out

    def test_help_lists_every_suite(self, capsys):
        with pytest.raises(SystemExit):
            run("bench", "--help")
        out = capsys.readouterr().out
        assert all(name in out for name in bench.SUITES)

    @pytest.mark.parametrize("args", [["prop1", "--data", "x.csv"], ["tep"]])
    def test_data_goes_with_tep_only(self, args, capsys):
        assert run("bench", *args) == 1
        assert "--data" in capsys.readouterr().err

    def test_a_failed_check_fails_the_suite(self):
        lines = ["pass: one check", "FAIL: another"]
        assert not bench.SuiteResult("x", lines, 0.0).passed
        assert bench.SuiteResult("x", lines[:1], 0.0).passed


class TestUsageErrors:
    def test_no_command(self):
        assert run() == 1

    def test_unknown_flag(self):
        assert run("detect", "--bogus", "x") == 1

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("detect", "--set=nonsense_key=1"), ("detect", "--config=/nonexistent"),
            ("evaluate", "--set=seed=1"), ("evaluate", "--config=/nonexistent"),
            ("evaluate", "--format=csv"), ("simulate", "--format=csv"),
            ("detect", "--stride=0"), ("rca", "--stride=0"),
            ("train", "--format=csv"), ("detect", "--format=csv"), ("rca", "--format=csv"),
        ],
    )
    def test_flag_the_command_does_not_read_is_rejected(
        self, workdir, report_and_labels, tmp_path, command, flag, capsys
    ):
        """Each subcommand accepts only the flags it reads."""
        report, labels = report_and_labels
        argv = {
            "train": ["train", "--nominal", workdir / "nominal.csv", "--out", tmp_path / "b"],
            "detect": ["detect", "--model", workdir / "bundle", "--data", workdir / "fresh.csv"],
            "rca": ["rca", "--model", workdir / "bundle", "--data", workdir / "fresh.csv"],
            "evaluate": ["evaluate", "--reports", report, "--labels", labels],
            "simulate": ["simulate", "--out", tmp_path / "sim", "--modes", "builtin",
                         "--samples", "50"],
        }[command]
        capsys.readouterr()
        assert run(*argv, flag) == 1
        assert flag.split("=")[0] in capsys.readouterr().err

    def test_bad_set_syntax(self, tmp_path, toy_nominal):
        data = tmp_path / "n.csv"
        write_csv(toy_nominal.window(0, 900), data)
        assert run("train", "--nominal", data, "--out", tmp_path / "b", "--set", "oops") == 1

    @pytest.mark.parametrize(
        "item",
        [
            "rbm_batch_size=0", "a3_batch_size=0", "a3_dropout=1", "a3_cutoff=1", "depth=0",
            "lag=0", "alphabet_size=1", "var_lag=0", "threshold_quantile=1",
        ],
    )
    def test_out_of_range_set_value_is_usage_error(self, tmp_path, toy_nominal, item, capsys):
        data = tmp_path / "n.csv"
        write_csv(toy_nominal.window(0, 8 * 400), data)
        argv = ["train", "--nominal", data, "--out", tmp_path / "b", "--a3"]
        assert run(*argv, "--set", "window_length=400", "--set", item) == 1
        assert item.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("command", ["train", "rca"])
    def test_window_shorter_than_depth_plus_lag_fails_before_any_input(
        self, tmp_path, command, capsys, monkeypatch
    ):
        """A state of `depth` symbols followed `lag` samples later by a symbol
        does not fit in a shorter window; that is a config out of range,
        refused before any file is read."""

        def no_read(*args, **kwargs):
            raise AssertionError("an input was read before the config was checked")

        monkeypatch.setattr(cli, "read_csv", no_read)
        data = tmp_path / "absent.csv"
        argv = {"train": ["train", "--nominal", data, "--out", tmp_path / "b"],
                "rca": ["rca", "--method", "var", "--nominal", data, "--data", data]}[command]
        short = ["--set", "alphabet_size=2", "--set", "depth=3", "--set", "window_length=3"]
        assert run(*argv, *short) == 1
        err = capsys.readouterr().err
        assert err == ("usage error: config key 'window_length' must be >= alphabet_size "
                       "and depth + lag\n")
        assert not (tmp_path / "b").exists()

    def test_threshold_past_the_float_range_is_numerical_failure(
        self, tmp_path, toy_nominal, capsys
    ):
        """max F + kappa * std(F) overflows to inf: train exits 3 and writes
        no bundle, instead of one whose header is not JSON."""
        data = tmp_path / "n.csv"
        write_csv(toy_nominal.window(0, 8 * 400), data)
        assert run("train", "--nominal", data, "--out", tmp_path / "b",
                   "--set", "window_length=400", "--set", "rbm_epochs=5",
                   "--set", "detector_kappa=1e308", "--set", "rbm_learning_rate=5") == 3
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("numerical failure: energy threshold inf is not finite")
        assert "detector_kappa 1e+308" in err and not (tmp_path / "b").exists()

    def test_count_grid_too_large_is_usage_error(self, tmp_path, toy_nominal, capsys):
        """9 symbols at depth 20 need 9**21 cells per channel pair, more than
        numpy can index, so it refuses without allocating. Past depth 63 it
        refuses before computing the power, whose digits at depth 10000 are
        too many to print and which at depth 100000000 takes minutes."""
        data = tmp_path / "n.csv"
        write_csv(toy_nominal.window(0, 8 * 400), data)
        argv = ["train", "--nominal", data, "--out", tmp_path / "b"]
        for depth in (20, 10000, 100000000):
            assert run(*argv, "--set", "window_length=400", "--set", f"depth={depth}") == 1
            err = capsys.readouterr().err
            assert f"alphabet_size 9 and depth {depth}" in err
            assert f"{16 * 9**21} cells" in err if depth == 20 else "2**64 states" in err
            assert "Traceback" not in err and not (tmp_path / "b").exists()

    @pytest.mark.parametrize("key", ["rbm_hidden", "a3_hidden"])
    @pytest.mark.parametrize("width", [10**12, 10**20])
    def test_network_too_wide_is_usage_error(self, tmp_path, toy_nominal, key, width, capsys,
                                             monkeypatch):
        """A width whose weight matrix no machine can allocate (10**12), or
        that numpy cannot index (10**20), is refused in one line naming the
        key, and no bundle is written. Either width is refused before any
        training starts."""
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(pipeline, "train_stpn", no_training)
        monkeypatch.setattr(pipeline, "train_rbm", no_training)
        data = tmp_path / "n.csv"
        write_csv(toy_nominal.window(0, 8 * 400), data)
        argv = ["train", "--nominal", data, "--out", tmp_path / "b", "--a3",
                "--set", "window_length=400", "--set", "rbm_epochs=1"]
        assert run(*argv, "--set", f"{key}={width}") == 1
        err = capsys.readouterr().err
        [line] = err.splitlines()  # no traceback, no warning from a training stage
        assert line.startswith(f"usage error: config key {key!r}: a 16 x {width} weight matrix")
        assert line.endswith("does not fit in memory")
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("orders, line", [
        ("17", "config key 'a3_flip_orders': flip orders must lie in 1..16 for 4 channels"),
        ("1,30", "config key 'a3_flip_orders': flip orders must lie in 1..16 for 4 channels"),
        ("", "config key 'a3_flip_orders' must hold at least one order"),
    ], ids=["17", "1,30", "none"])
    def test_flip_orders_out_of_range_are_usage_error(self, tmp_path, toy_nominal, orders, line,
                                                      capsys, monkeypatch):
        """A flip order above the f*f pattern count, or no flip order at all,
        is refused in one line naming the key before any training starts."""
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(pipeline, "train_stpn", no_training)
        monkeypatch.setattr(pipeline, "train_rbm", no_training)
        data = tmp_path / "n.csv"
        write_csv(toy_nominal.window(0, 8 * 400), data)
        argv = ["train", "--nominal", data, "--out", tmp_path / "b", "--a3",
                "--set", "window_length=400", "--set", f"a3_flip_orders={orders}"]
        assert run(*argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"usage error: {line}"]
        assert not (tmp_path / "b").exists()

    def test_flip_order_of_every_pattern_starts_training(self, toy_nominal, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(pipeline, "train_stpn", no_training)
        config = RunConfig(window_length=400, a3_flip_orders=(16,))
        with pytest.raises(AssertionError, match="training started"):
            pipeline.train_bundle(toy_nominal, config, with_a3=True)


def test_cli_import_loads_no_scipy():
    """The command-line module imports no scipy module: the toolkit does
    not depend on it, and importing it would double the start-up time."""
    code = ("import sys, stpnrca.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "[]\n"


def test_metric_oracle_suite_needs_only_numpy():
    """The exact-arithmetic metric oracle needs nothing beyond numpy and the
    standard library: with every other package blocked from import, the
    suite still passes."""
    code = textwrap.dedent("""
        import sys

        class OnlyNumpy:
            def find_spec(self, name, path=None, target=None):
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names | {"numpy", "stpnrca"}:
                    raise ModuleNotFoundError(f"blocked: {name}", name=name)

        sys.meta_path.insert(0, OnlyNumpy())
        import stpnrca.cli
        sys.exit(stpnrca.cli.main(["bench", "metric-oracle"]))
    """)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "worst relative error 4.74e-14 <= 1e-9" in out.stdout


class TestTepFormat:
    def test_tep_roundtrip_detect(self, tmp_path):
        rng = np.random.default_rng(0)
        # synthetic 52-variable file standing in for the plant benchmark
        base = rng.normal(size=(900, 52)).cumsum(axis=0) * 0.01 + rng.normal(
            size=(900, 52)
        )
        path = tmp_path / "plant.csv"
        with open(path, "w") as fh:
            for row in base:
                fh.write(",".join(f"{x:.6f}" for x in row) + "\n")
        ts = read_csv(path)
        assert ts.n_channels == 52
        assert ts.names[0] == "xmeas_01"
        assert ts.names[-1] == "xmv_11"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Every `stpn-rca` command line in README's sh blocks, continuations joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("stpn-rca ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 7
    for argv in commands:
        args = cli.build_parser().parse_args(argv)  # a UsageError names the bad flag
        if args.command == "rca":
            cli._check_rca_flags(args)
