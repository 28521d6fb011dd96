import csv
import json
import math

import numpy as np
import pytest

import seqshape.harness as harness_mod
from seqshape import (
    EXACT_SORTED,
    ExperimentSummary,
    RoundTripError,
    ShaperConfig,
    SourceSpec,
    TABLE1_GRID,
    TABLE1_REFERENCE,
    TrialRecord,
    export,
    format_table1_comparison,
    run_experiment,
    sweep_table1,
)


def small_run(trials=30, workers=1, seed=11):
    spec = SourceSpec(ns=8, n=60, pmax=0.5)
    cfg = ShaperConfig(ns=8)
    return run_experiment(spec, cfg, trials, seed, workers=workers)


class TestRunExperiment:
    def test_deterministic_across_reruns(self):
        s1, r1 = small_run()
        s2, r2 = small_run()
        assert s1 == s2
        assert r1 == r2

    def test_worker_count_invariance(self):
        s1, r1 = small_run(trials=24, workers=1)
        s2, r2 = small_run(trials=24, workers=2)
        assert s1 == s2
        assert r1 == r2

    def test_pool_no_larger_than_the_trials(self, monkeypatch):
        # a pool forks all its workers at the first submit, so more workers
        # than trials would only start idle processes; an in-process stand-in
        # records the pool size without starting any
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", InProcessPool)
        assert small_run(trials=3, workers=8) == small_run(trials=3, workers=1)
        assert sizes == [3]

    def test_degenerate_single_symbol_length(self):
        spec = SourceSpec(ns=2, n=1, pmax=0.5)
        summary, records = run_experiment(spec, ShaperConfig(ns=2), 50, 3)
        assert all(r.infc == 0.0 for r in records)
        assert all(not r.success for r in records)
        assert summary.cs2 == 0
        assert summary.pcs == 0.0

    def test_records_are_self_consistent(self):
        summary, records = small_run(trials=40)
        assert [r.trial for r in records] == list(range(40))
        for r in records:
            assert r.dife == r.infc - r.tinfc
            assert r.success == (r.tinfc < r.infc)
            assert r.roundtrip_ok

    def test_aggregates_match_records(self):
        summary, records = small_run(trials=50)
        assert summary.medinfc == pytest.approx(np.mean([r.infc for r in records]), abs=1e-9)
        assert summary.medtinfc == pytest.approx(np.mean([r.tinfc for r in records]), abs=1e-9)
        assert summary.mdife == pytest.approx(np.mean([r.dife for r in records]), abs=1e-9)
        assert summary.mdife == pytest.approx(summary.medinfc - summary.medtinfc, abs=1e-9)
        assert summary.cs2 == sum(r.success for r in records)
        assert summary.pcs == 100.0 * summary.cs2 / summary.trials
        assert 0.0 <= summary.pcs <= 100.0

    def test_exact_sorted_strategy_runs(self):
        spec = SourceSpec(ns=3, n=6, pmax=0.5)
        summary, records = run_experiment(spec, ShaperConfig(ns=3, strategy=EXACT_SORTED), 25, 5)
        assert summary.trials == 25
        assert all(r.roundtrip_ok for r in records)

    def test_roundtrip_failure_aborts_with_trial_index(self, monkeypatch):
        def corrupt_inverse(y, cfg):
            from conftest import seq

            return seq([0] * (len(y) - cfg.k), cfg.ns)

        monkeypatch.setattr(harness_mod, "inverse_transform", corrupt_inverse)
        with pytest.raises(RoundTripError, match="trial 0"):
            small_run(trials=5)

    def test_roundtrip_checked_on_every_trial(self, monkeypatch):
        # corrupt only the final trial's inverse: verification is never sampled
        real_inverse = harness_mod.inverse_transform
        calls = {"n": 0}

        def corrupt_last(y, cfg):
            calls["n"] += 1
            if calls["n"] == 5:
                from conftest import seq

                return seq([0] * (len(y) - cfg.k), cfg.ns)
            return real_inverse(y, cfg)

        monkeypatch.setattr(harness_mod, "inverse_transform", corrupt_last)
        with pytest.raises(RoundTripError, match="trial 4"):
            small_run(trials=5)

    def test_single_trial(self):
        summary, records = small_run(trials=1)
        assert summary.trials == 1
        assert summary.medinfc == records[0].infc
        assert summary.pcs in (0.0, 100.0)
        assert small_run(trials=1) == (summary, records)

    def test_invalid_arguments(self):
        spec = SourceSpec(ns=8, n=60, pmax=0.5)
        with pytest.raises(ValueError):
            run_experiment(spec, ShaperConfig(ns=8), 0, 1)
        with pytest.raises(ValueError):
            run_experiment(spec, ShaperConfig(ns=8), 5, 1, workers=0)
        with pytest.raises(ValueError):
            run_experiment(spec, ShaperConfig(ns=9), 5, 1)

    @pytest.mark.parametrize("bad", [2.5, True])
    @pytest.mark.parametrize("named", ["trials", "seed", "workers"])
    def test_counts_and_seed_must_be_integers(self, named, bad):
        args = {"trials": 3, "seed": 1, "workers": 1, named: bad}
        spec = SourceSpec(ns=8, n=60, pmax=0.5)
        with pytest.raises(TypeError, match=f"{named} must be an integer"):
            run_experiment(spec, ShaperConfig(ns=8), **args)


class TestSweep:
    def test_grid_cardinality_and_rows(self):
        summaries = sweep_table1(ShaperConfig(ns=2), trials=2, seed=1)
        assert len(summaries) == 4
        assert [s.spec.ns for s in summaries] == list(TABLE1_GRID)
        assert all(s.spec.n == 400 and s.spec.pmax == 0.5 for s in summaries)

    def test_rendered_comparison_includes_reference_columns(self):
        summaries = sweep_table1(ShaperConfig(ns=2), trials=2, seed=1)
        table = format_table1_comparison(summaries)
        assert "ref P_s" in table and "ref gain" in table
        for ns, (ref_ps, ref_gain) in TABLE1_REFERENCE.items():
            assert str(ns) in table
            assert f"{ref_ps:.1f}" in table
            assert f"{ref_gain:.1f}" in table


class TestExport:
    def test_json_schema(self, tmp_path):
        summary, records = small_run(trials=6)
        out = tmp_path / "results.json"
        export([summary], records, out, "json")
        payload = json.loads(out.read_text())
        assert set(payload) == {"summaries", "records"}
        s = payload["summaries"][0]
        for key in ("medinfc", "medtinfc", "mdife", "cs2", "pcs", "trials", "spec", "strategy", "k", "seed"):
            assert key in s
        assert s["spec"] == {"ns": 8, "n": 60, "pmax": 0.5}
        r = payload["records"][0]
        assert set(r) == {"trial", "infc", "tinfc", "dife", "success", "roundtrip_ok"}

    def test_json_from_numpy_integer_spec_and_config(self, tmp_path):
        spec = SourceSpec(ns=np.int64(3), n=np.int64(6), pmax=0.5)
        cfg = ShaperConfig(ns=np.int64(3), k=np.int64(1), max_space=np.int64(2**20))
        assert all(type(v) is int for v in (spec.ns, spec.n, cfg.ns, cfg.k, cfg.max_space))
        summary, records = run_experiment(spec, cfg, 3, 1)
        out = tmp_path / "results.json"
        export([summary], records, out, "json")
        payload = json.loads(out.read_text())
        assert payload["summaries"][0]["spec"] == {"ns": 3, "n": 6, "pmax": 0.5}
        plain, _ = run_experiment(SourceSpec(ns=3, n=6, pmax=0.5), ShaperConfig(ns=3), 3, 1)
        assert payload["summaries"][0]["mdife"] == float(f"{plain.mdife:.9g}")
        assert len(payload["records"]) == 3

    def test_json_round_trip_nine_significant_digits(self, tmp_path):
        summary, records = small_run(trials=6)
        out = tmp_path / "results.json"
        export([summary], records, out, "json")
        payload = json.loads(out.read_text())
        assert payload["summaries"][0]["medinfc"] == float(f"{summary.medinfc:.9g}")
        for r_obj, r in zip(payload["records"], records):
            assert r_obj["infc"] == float(f"{r.infc:.9g}")
            assert r_obj["dife"] == float(f"{r.dife:.9g}")

    def test_csv_records(self, tmp_path):
        summary, records = small_run(trials=6)
        out = tmp_path / "records.csv"
        export([summary], records, out, "csv")
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["trial", "infc", "tinfc", "dife", "success", "roundtrip_ok"]
        assert len(rows) == 7
        parsed = [float(r[1]) for r in rows[1:]]
        assert parsed == [float(f"{r.infc:.9g}") for r in records]
        assert {r[4] for r in rows[1:]} <= {"true", "false"}

    def test_csv_bytes(self, tmp_path):
        # both CSV tables of seeded runs, byte for byte: the records of an
        # exact-sorted run (successes and failures, integral and fractional
        # values) and the summaries of it, of an adaptive-rank run and of a
        # run whose pmax is a numpy float32
        exact, exact_records = run_experiment(
            SourceSpec(ns=3, n=6, pmax=0.5), ShaperConfig(ns=3, strategy=EXACT_SORTED, k=2), 4, 5
        )
        adaptive, _ = small_run(trials=3)
        single, _ = run_experiment(SourceSpec(ns=3, n=6, pmax=np.float32(0.3)), ShaperConfig(ns=3), 2, 5)
        export([exact], exact_records, tmp_path / "records.csv", "csv")
        export([adaptive, exact, single], None, tmp_path / "summaries.csv", "csv")
        assert (tmp_path / "records.csv").read_bytes() == (
            b"trial,infc,tinfc,dife,success,roundtrip_ok\r\n"
            b"0,8.7548875,8,0.754887502,true,true\r\n"
            b"1,3.90013453,4.34851555,-0.448381016,false,true\r\n"
            b"2,9.509775,8,1.509775,true,true\r\n"
            b"3,8.7548875,7.63547202,1.11941548,true,true\r\n"
        )
        assert (tmp_path / "summaries.csv").read_bytes() == (
            b"medinfc,medtinfc,mdife,cs2,pcs,trials,ns,n,pmax,strategy,k,seed\r\n"
            b"146.710763,150.229461,-3.51869806,0,0,3,8,60,0.5,adaptive-rank,1,11\r\n"
            b"7.72992113,6.99599689,0.733924242,3,75,4,3,6,0.5,exact-sorted,2,5\r\n"
            b"7.509775,10.2740407,-2.7642657,0,0,2,3,6,0.300000012,adaptive-rank,1,5\r\n"
        )

    def test_csv_header_only_when_empty(self, tmp_path):
        out = tmp_path / "empty.csv"
        export([], [], out, "csv")
        assert out.read_text().splitlines() == ["trial,infc,tinfc,dife,success,roundtrip_ok"]

    def test_csv_summaries_when_no_records(self, tmp_path):
        summary, _ = small_run(trials=6)
        out = tmp_path / "summaries.csv"
        export([summary], None, out, "csv")
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["medinfc", "medtinfc", "mdife", "cs2", "pcs", "trials",
                           "ns", "n", "pmax", "strategy", "k", "seed"]
        assert len(rows) == 2
        assert float(rows[1][0]) == float(f"{summary.medinfc:.9g}")

    def test_aggregates_recomputable_from_export(self, tmp_path):
        summary, records = small_run(trials=40)
        out = tmp_path / "results.json"
        export([summary], records, out, "json")
        payload = json.loads(out.read_text())
        infc = [r["infc"] for r in payload["records"]]
        tinfc = [r["tinfc"] for r in payload["records"]]
        dife = [r["dife"] for r in payload["records"]]
        assert math.fsum(infc) / len(infc) == pytest.approx(summary.medinfc, abs=1e-6)
        assert math.fsum(tinfc) / len(tinfc) == pytest.approx(summary.medtinfc, abs=1e-6)
        assert math.fsum(dife) / len(dife) == pytest.approx(summary.mdife, abs=1e-6)
        assert sum(r["success"] for r in payload["records"]) == summary.cs2

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            export([], [], tmp_path / "x.xml", "xml")

    def test_unwritable_path_mentions_path(self, tmp_path):
        summary, records = small_run(trials=2)
        bad = tmp_path / "missing_dir" / "results.json"
        with pytest.raises(OSError, match="missing_dir"):
            export([summary], records, bad, "json")
