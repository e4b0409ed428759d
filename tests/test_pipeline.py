import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stpnrca import bench, pipeline
from stpnrca.config import CONFIG_ENV_VAR, RunConfig
from stpnrca.errors import DataError, UsageError
from stpnrca.persist import BUNDLE_FILE
from stpnrca.pipeline import (
    evaluate_case,
    load_bundle,
    run_detect,
    run_rca,
    run_var_rca,
    save_bundle,
)
from stpnrca.stpn import pattern_index, scan_windows
from stpnrca.synth import FaultSpec, simulate_var


class TestRunConfig:
    def test_defaults_follow_reference_experiment(self):
        cfg = RunConfig()
        assert cfg.alphabet_size == 9
        assert cfg.window_length == 1200
        assert cfg.threshold_quantile == 0.05
        assert cfg.var_eta == 0.4
        assert cfg.a3_flip_orders == (1, 2, 3, 4)

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alphabet_size = 7\nwindow_length= 300  # inline comment\n")
        cfg = RunConfig.from_sources(str(path), {"depth": "2"})
        assert cfg.alphabet_size == 7
        assert cfg.window_length == 300
        assert cfg.depth == 2

    def test_tuple_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("a3_hidden = 64, 32\na3_flip_orders = 1 2\n")
        cfg = RunConfig.from_sources(str(path))
        assert cfg.a3_hidden == (64, 32)
        assert cfg.a3_flip_orders == (1, 2)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alphabeta = 7\n")
        with pytest.raises(UsageError, match="alphabeta"):
            RunConfig.from_sources(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alphabet_size = many\n")
        with pytest.raises(UsageError):
            RunConfig.from_sources(str(path))

    def test_env_var_default(self, tmp_path, monkeypatch):
        path = tmp_path / "env.cfg"
        path.write_text("seed = 123\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
        assert RunConfig.from_sources().seed == 123

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rbm_batch_size", "0"), ("a3_batch_size", "0"), ("rbm_hidden", "0"),
            ("a3_hidden", "64 0"), ("rbm_epochs", "-1"), ("a3_epochs", "-1"),
            ("stride", "-1"), ("a3_dropout", "1"), ("a3_dropout", "-0.1"),
            ("a3_cutoff", "0"), ("a3_cutoff", "1"), ("a3_flip_orders", "0 1"),
            ("a3_samples_per_order", "0"), ("depth", "0"), ("lag", "0"),
            ("alphabet_size", "1"), ("var_lag", "0"), ("window_length", "8"),
            ("threshold_quantile", "1"), ("threshold_quantile", "-0.1"),
            ("partition_method", "bogus"), ("partition_method", ""),
            ("rbm_learning_rate", "nan"), ("rbm_learning_rate", "0"),
            ("rbm_learning_rate", "inf"), ("a3_learning_rate", "-0.1"),
            ("a3_learning_rate", "nan"), ("a3_momentum", "1"), ("a3_momentum", "-0.1"),
            ("a3_patience", "0"), ("a3_patience", "-3"), ("detector_kappa", "-1e9"),
            ("detector_kappa", "inf"), ("detector_kappa", "nan"), ("var_eta", "1"),
            ("var_eta", "-0.1"), ("var_eta", "nan"), ("seed", "-1"), ("a3_flip_orders", ""),
        ],
    )
    def test_out_of_range_rejected(self, key, value, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        with pytest.raises(UsageError, match=key):
            RunConfig.from_sources(None, {key: value})

    def test_range_boundaries_accepted(self):
        cfg = RunConfig(stride=0, rbm_epochs=0, a3_epochs=0, a3_dropout=0.0, a3_hidden=())
        assert cfg.a3_dropout == 0.0
        cfg = RunConfig(partition_method="UP", a3_momentum=0.0, a3_patience=1,
                        detector_kappa=0.0, var_eta=0.0)
        assert cfg.partition_method == "UP"

    def test_fingerprint_stable_and_sensitive(self):
        a = RunConfig()
        b = RunConfig()
        c = RunConfig(seed=1)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestBundleRoundtrip:
    def test_save_load_preserves_behavior(self, toy_bundle, toy_nominal, tmp_path):
        directory = tmp_path / "bundle"
        save_bundle(toy_bundle, directory)
        loaded = load_bundle(directory)
        window = toy_nominal.window(0, toy_bundle.stpn.window_length)
        assert np.array_equal(
            scan_windows(toy_bundle.stpn, window).metrics,
            scan_windows(loaded.stpn, window).metrics,
        )
        assert loaded.energy_threshold == toy_bundle.energy_threshold
        assert loaded.mlp is not None
        assert loaded.config == toy_bundle.config

    def test_bundle_files_byte_identical_across_saves(self, toy_bundle, tmp_path):
        d1, d2 = tmp_path / "b1", tmp_path / "b2"
        save_bundle(toy_bundle, d1)
        save_bundle(toy_bundle, d2)
        for name in os.listdir(d1):
            with open(d1 / name, "rb") as fh1, open(d2 / name, "rb") as fh2:
                assert fh1.read() == fh2.read()

    @pytest.mark.parametrize("values", [
        dict(detector_kappa=1, a3_momentum=0, var_eta=0),  # ints for float keys
        dict(a3_hidden=[8], a3_flip_orders=[1, 2]),
        dict(seed=np.int64(3), rbm_hidden=np.int32(12), window_length=np.uint16(400),
             a3_hidden=np.array([8])),
    ], ids=["int-for-float", "lists", "numpy-integers"])
    def test_trained_bundle_is_its_saved_copy(self, toy_nominal, toy_fault_ts, tmp_path, values):
        """A bundle trained from a library config of any value types detects
        and diagnoses as its saved and loaded copy does, which saves to the
        same bytes."""
        config = RunConfig(**{"alphabet_size": 6, "window_length": 400, "rbm_hidden": 12,
                              "rbm_epochs": 20, "a3_hidden": (8,), "a3_epochs": 3,
                              "a3_samples_per_order": 2, **values})
        trained = pipeline.train_bundle(toy_nominal.window(0, 20 * 400), config, with_a3=True)
        save_bundle(trained, tmp_path / "b1")
        loaded = load_bundle(tmp_path / "b1")
        for got, want in zip(run_detect(loaded, toy_fault_ts), run_detect(trained, toy_fault_ts)):
            assert np.array_equal(got, want)
        for method in ("s3", "a3"):
            assert (run_rca(loaded, toy_fault_ts, method, force=True)
                    == run_rca(trained, toy_fault_ts, method, force=True))
        save_bundle(loaded, tmp_path / "b2")
        assert (tmp_path / "b2" / BUNDLE_FILE).read_bytes() == (
            tmp_path / "b1" / BUNDLE_FILE).read_bytes()

    def test_missing_bundle(self, tmp_path):
        with pytest.raises(DataError):
            load_bundle(tmp_path / "nope")

    @pytest.mark.parametrize(
        "key, value",
        [("alphabet_size", 9.5), ("a3_hidden", "wide"), ("seed", True), ("depth", None)],
    )
    def test_mistyped_run_value_rejected(self, toy_bundle, tmp_path, key, value, rewrite_header):
        save_bundle(toy_bundle, tmp_path)
        config = {key: value}
        rewrite_header(tmp_path / BUNDLE_FILE, lambda doc: doc["payload"]["config"].update(config))
        with pytest.raises(DataError, match=key):
            load_bundle(tmp_path)

    @pytest.mark.parametrize("part", ["rbm", "a3_inputs", "a3_outputs"])
    def test_inconsistent_widths_rejected(self, toy_bundle, tmp_path, part, rewrite_header):
        save_bundle(toy_bundle, tmp_path)
        n, n_h = toy_bundle.stpn.n_patterns, toy_bundle.rbm.n_hidden
        (hidden,) = toy_bundle.config.a3_hidden
        records = {
            "rbm": dict(visible_bias=np.zeros(n + 1), weights=np.zeros((n + 1, n_h))),
            "a3_inputs": dict(w0=np.zeros((n - 1, hidden))),
            "a3_outputs": dict(w1=np.zeros((hidden, n - 1)), b1=np.zeros(n - 1)),
        }[part]
        rewrite_header(tmp_path / BUNDLE_FILE, **records)
        with pytest.raises(DataError, match="width"):
            load_bundle(tmp_path)


class TestDetectAndRca:
    def test_fresh_nominal_all_clear(self, toy_bundle, toy_fresh_nominal):
        _, energies, flags = run_detect(toy_bundle, toy_fresh_nominal)
        assert not flags.any()
        assert np.all(energies < toy_bundle.energy_threshold)

    def test_fault_detected(self, toy_bundle, toy_fault_ts):
        _, _, flags = run_detect(toy_bundle, toy_fault_ts)
        assert flags.sum() >= 1

    def test_rca_gate_skips_undetected(self, toy_bundle, toy_fresh_nominal):
        report = run_rca(toy_bundle, toy_fresh_nominal, method="s3")
        assert report["n_analyzed"] == 0
        assert report["aggregate"]["failed_patterns"] == []

    @pytest.mark.parametrize("method", ["bogus", "var", "a3"])
    def test_method_checked_before_the_scan(
        self, toy_bundle, toy_fresh_nominal, method, monkeypatch
    ):
        def no_scan(*args, **kwargs):
            raise AssertionError("the series was scanned before the method was checked")

        monkeypatch.setattr(pipeline, "scan_windows", no_scan)
        bundle = dataclasses.replace(toy_bundle, mlp=None)  # a3: no classifier
        match = "classifier" if method == "a3" else f"{method}.*s3 or a3.*run_var_rca"
        with pytest.raises(UsageError, match=match):
            run_rca(bundle, toy_fresh_nominal, method=method)

    @pytest.mark.parametrize("method", ["s3", "a3"])
    def test_rca_localizes_delayed_driver(self, toy_bundle, toy_fault_ts, method):
        report = run_rca(toy_bundle, toy_fault_ts, method=method, force=True)
        failed = {p["index"] for p in report["aggregate"]["failed_patterns"]}
        assert failed == {
            pattern_index(0, 1, 4), pattern_index(0, 2, 4), pattern_index(0, 3, 4)
        }
        assert [n["node"] for n in report["aggregate"]["nodes"]] == [0]
        ranking = [n["node"] for n in report["aggregate"]["ranking"]]
        assert sorted(ranking) == [0, 1, 2, 3]
        assert ranking[0] == 0

    def test_depth_two_pipeline_localizes(self):
        # depth-2 states (16 states over a 4-symbol alphabet) end to end
        from stpnrca.synth import builtin_modes, simulate_case
        from stpnrca.pipeline import train_bundle

        cfg = RunConfig(
            alphabet_size=4, depth=2, window_length=600,
            threshold_quantile=0.02, rbm_hidden=32, seed=0,
        )
        mode = builtin_modes()[0]
        nominal = simulate_var(mode, 40 * 600, seed=5)
        with pytest.warns(UserWarning):  # few calibration windows, on purpose
            bundle = train_bundle([nominal], cfg, with_a3=False)
        assert bundle.stpn.counts.shape[2:] == (16, 4)
        fault, _ = simulate_case(
            mode, FaultSpec(kind="pattern_break", edges=((1, 4),)), 8 * 600,
            seed=6, case_id="broken",
        )
        report = run_rca(bundle, fault, method="s3", force=True)
        failed = {p["index"] for p in report["aggregate"]["failed_patterns"]}
        assert pattern_index(1, 4, 5) in failed

    def test_var_rca_report(self, toy_graph, toy_fault_ts):
        cfg = RunConfig(window_length=400)
        nominal = simulate_var(toy_graph, 4000, seed=77)
        report = run_var_rca(nominal, toy_fault_ts, cfg)
        assert report["method"] == "var"
        assert len(report["aggregate"]["ranking"]) == 4
        for p in report["aggregate"]["failed_patterns"]:
            assert p["weight"] == 1.0


class TestCaseRunner:
    """bench._case_rows, the runner under the root-cause suites."""

    def test_rows_are_those_of_the_user_path(self, toy_bundle, toy_fault_case, toy_nominal):
        ts, labels = toy_fault_case
        rows, flags = bench._case_rows(toy_bundle, [toy_fault_case], ("s3", "a3", "var"),
                                       toy_nominal)
        assert rows == {
            "s3": [evaluate_case(run_rca(toy_bundle, ts, method="s3", force=True), labels)],
            "a3": [evaluate_case(run_rca(toy_bundle, ts, method="a3", force=True), labels)],
            "var": [evaluate_case(run_var_rca(toy_nominal, ts, toy_bundle.config), labels)],
        }
        assert len(flags) == 1
        np.testing.assert_array_equal(flags[0], run_detect(toy_bundle, ts)[2])

    def test_each_case_is_scanned_once(self, toy_bundle, toy_fault_case, monkeypatch):
        scanned, scan_and_flag = [], pipeline._scan_and_flag

        def counted(bundle, ts):
            scanned.append(ts)
            return scan_and_flag(bundle, ts)

        # Counted both where the runner and where run_rca look the scan up.
        monkeypatch.setattr(bench, "_scan_and_flag", counted)
        monkeypatch.setattr(pipeline, "_scan_and_flag", counted)
        bench._case_rows(toy_bundle, [toy_fault_case] * 2, ("s3", "a3"))
        assert len(scanned) == 2

    @pytest.mark.parametrize("method", ["bogus", "a3"])
    def test_method_checked_before_any_scan(
        self, toy_bundle, toy_fault_case, method, monkeypatch
    ):
        def no_scan(*args, **kwargs):
            raise AssertionError("a case was scanned before the methods were checked")

        monkeypatch.setattr(pipeline, "scan_windows", no_scan)
        bundle = dataclasses.replace(toy_bundle, mlp=None)  # a3: no classifier
        match = "classifier" if method == "a3" else f"{method}.*s3 or a3"
        with pytest.raises(UsageError, match=match):
            bench._case_rows(bundle, [toy_fault_case], ("s3", method))


class TestEvaluateCase:
    def test_pattern_break_case(self, toy_bundle):
        report = {
            "method": "s3",
            "channels": ["a", "b", "c", "d"],
            "n_analyzed": 2,
            "aggregate": {"failed_patterns": [{"index": 1}], "nodes": [], "ranking": []},
            "windows": [
                {"analyzed": True, "patterns": [{"index": 1}]},
                {"analyzed": True, "patterns": [{"index": 1}, {"index": 5}]},
            ],
        }
        labels = {
            "case_id": "case",
            "channels": ["a", "b", "c", "d"],
            "fault": {"kind": "pattern_break", "edges": [[0, 1]]},
            "failed_patterns": [pattern_index(0, 1, 4)],
            "failed_nodes": [0, 1],
        }
        out = evaluate_case(report, labels)
        # window 1 perfect (16/16), window 2 has one extra (15/16)
        assert out["alpha1"] == pytest.approx((16 + 15) / 32)
        assert out["recall"] == 1.0
        assert out["precision"] == pytest.approx(2 / 3)
        assert (out["tp"], out["fn"], out["fp"]) == (2, 0, 1)  # pooled over both windows
        assert out["error_ratio"] == 0.0  # aggregate {1} is fully correct

    def test_node_fault_case(self):
        report = {
            "method": "s3",
            "channels": ["a", "b", "c", "d"],
            "n_analyzed": 3,
            "aggregate": {
                "failed_patterns": [{"index": 1}, {"index": 4}, {"index": 11}],
                "nodes": [{"node": 0, "name": "a", "score": 2.0}],
                "ranking": [
                    {"node": 0}, {"node": 1}, {"node": 2}, {"node": 3}
                ],
            },
            "windows": [],
        }
        labels = {
            "case_id": "case",
            "channels": ["a", "b", "c", "d"],
            "fault": {"kind": "node_delay", "node": 0, "delay": 5},
            "failed_patterns": [],
            "failed_nodes": [0],
        }
        out = evaluate_case(report, labels)
        # patterns 1=(0,1) and 4=(1,0) touch node 0; 11=(2,3) does not
        assert out["n_incorrect"] == 1
        assert out["error_ratio"] == pytest.approx(1 / 3)
        assert out["predicted_nodes"] == [0]
        assert out["diagnosis_cost"] == 3  # rank 1 x 3 analyzed windows

    def test_node_fault_case_with_nothing_predicted(self):
        report = {
            "method": "s3",
            "channels": ["a", "b"],
            "n_analyzed": 2,
            "aggregate": {"failed_patterns": [], "nodes": [], "ranking": []},
            "windows": [],
        }
        labels = {
            "channels": ["a", "b"],
            "fault": {"kind": "node_delay", "node": 1, "delay": 5},
            "failed_patterns": [],
            "failed_nodes": [1],
        }
        out = evaluate_case(report, labels)
        assert (out["n_predicted"], out["n_incorrect"]) == (0, 0)
        assert out["error_ratio"] is None

    def test_false_alarm_case(self):
        report = {
            "method": "a3",
            "channels": ["a", "b", "c"],
            "n_analyzed": 2,
            "aggregate": {"failed_patterns": [], "nodes": [], "ranking": []},
            "windows": [
                {"analyzed": True, "patterns": []},
                {"analyzed": True, "patterns": [{"index": 3}]},
            ],
        }
        labels = {
            "case_id": "nom",
            "channels": ["a", "b", "c"],
            "fault": None,
            "failed_patterns": [],
            "failed_nodes": [],
        }
        out = evaluate_case(report, labels)
        assert out["false_alarm_fraction"] == pytest.approx((0 + 1 / 9) / 2)

    @pytest.mark.parametrize(
        "labels_change, data",
        [
            ({"channels": ["a", "b", "c", "e"]}, "case.csv"),  # same count, another name
            ({"channels": ["a", "b", "c", "d", "e"]}, "case.csv"),  # another system
            ({"case_id": "other"}, "data/case.csv"),  # another case of the same system
        ],
    )
    def test_report_of_another_system_or_case_is_data_error(self, labels_change, data):
        report = {
            "method": "s3",
            "channels": ["a", "b", "c", "d"],
            "data": data,
            "n_analyzed": 1,
            "aggregate": {"failed_patterns": [], "nodes": [], "ranking": []},
            "windows": [{"analyzed": True, "patterns": []}],
        }
        labels = {
            "case_id": "case",
            "channels": ["a", "b", "c", "d"],
            "fault": None,
            "failed_patterns": [],
            "failed_nodes": [],
            **labels_change,
        }
        with pytest.raises(DataError, match="mismatch"):
            evaluate_case(report, labels)


@st.composite
def scored_case(draw):
    """A random report and the labels of the same case: f <= 6 channels, a
    truth set and one pattern set per analyzed window."""
    f = draw(st.integers(1, 6))
    patterns = st.sets(st.integers(0, f * f - 1))
    kind = draw(st.sampled_from([None, "pattern_break", "node_delay"]))
    truth = draw(patterns) if kind == "pattern_break" else set()
    nodes = st.sets(st.integers(0, f - 1))
    true_nodes = set()
    if kind == "node_delay":
        true_nodes = draw(st.sets(st.integers(0, f - 1), min_size=1))
    window_sets = draw(st.lists(patterns, min_size=1, max_size=6))
    names = [f"x{i}" for i in range(f)]
    report = {
        "method": "s3",
        "channels": names,
        "data": "cases/case.csv",
        "n_analyzed": len(window_sets),
        "aggregate": {
            "failed_patterns": [{"index": p} for p in sorted(draw(patterns))],
            "nodes": [{"node": n} for n in sorted(draw(nodes))],
            "ranking": [{"node": n} for n in draw(st.permutations(range(f)))],
        },
        "windows": [{"analyzed": True, "patterns": [{"index": p} for p in sorted(s)]}
                    for s in window_sets],
    }
    labels = {
        "case_id": "case",
        "channels": names,
        "fault": kind and {"kind": kind},
        "failed_patterns": sorted(truth),
        "failed_nodes": sorted(true_nodes),
    }
    return report, labels, truth, window_sets


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=scored_case())
def test_evaluate_case_counts_match_their_definitions(case):
    report, labels, truth, window_sets = case
    out = evaluate_case(report, labels)
    f2 = len(labels["channels"]) ** 2
    kind = labels["fault"] and labels["fault"]["kind"]
    if kind == "node_delay":
        assert out["node_tp"] + out["node_fn"] == len(labels["failed_nodes"])
        assert out["node_tp"] + out["node_fp"] == len(report["aggregate"]["nodes"])
        return
    want = np.mean([1.0 - len(truth ^ s) / f2 for s in window_sets])
    assert out["alpha1"] == pytest.approx(want, rel=0, abs=1e-12)
    if kind is None:
        assert abs(out["alpha1"] + out["false_alarm_fraction"] - 1.0) <= 1e-12
    else:
        assert out["tp"] + out["fn"] == len(truth) * len(window_sets)
