import json
import subprocess
import sys
import time

import pytest

import seqshape.harness as harness_mod
import seqshape.oracle as oracle_mod
from seqshape import RoundTripError, shaping
from seqshape.cli import main


def write_seq_file(tmp_path, name, ns, symbols):
    path = tmp_path / name
    path.write_text(f"ns {ns}\n" + " ".join(map(str, symbols)) + "\n")
    return path


class TestTransformInvert:
    def test_transform_then_invert_round_trip(self, tmp_path, capsys):
        src = write_seq_file(tmp_path, "in.txt", 3, [2, 2, 2])
        shaped = tmp_path / "shaped.txt"
        restored = tmp_path / "restored.txt"
        assert main(["transform", "--in", str(src), "--out", str(shaped), "--k", "1"]) == 0
        assert shaped.read_text() == "ns 3\n0 2 0 0\n"
        assert main(["invert", "--in", str(shaped), "--out", str(restored), "--k", "1"]) == 0
        assert restored.read_text() == src.read_text()

    def test_transform_to_stdout(self, tmp_path, capsys):
        src = write_seq_file(tmp_path, "in.txt", 2, [1, 1])
        assert main(["transform", "--in", str(src)]) == 0
        assert capsys.readouterr().out == "ns 2\n0 1 0\n"

    def test_exact_sorted_strategy(self, tmp_path, capsys):
        src = write_seq_file(tmp_path, "in.txt", 3, [0, 1])
        assert main(["transform", "--in", str(src), "--strategy", "exact-sorted"]) == 0
        assert capsys.readouterr().out == "ns 3\n0 0 1\n"

    def test_invert_not_in_image_exit_3(self, tmp_path, capsys):
        bad = write_seq_file(tmp_path, "bad.txt", 3, [1, 0, 0])
        assert main(["invert", "--in", str(bad), "--k", "1"]) == 3
        assert "not in image" in capsys.readouterr().err

    def test_missing_input_exit_2(self, tmp_path, capsys):
        assert main(["transform", "--in", str(tmp_path / "nope.txt")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_input_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        assert main(["transform", "--in", str(bad)]) == 2

    def test_space_too_large_exit_2(self, tmp_path, capsys):
        src = write_seq_file(tmp_path, "in.txt", 3, [0] * 40)
        assert main(["transform", "--in", str(src), "--strategy", "exact-sorted"]) == 2

    @pytest.mark.parametrize("command", ["transform", "invert"])
    def test_symbol_beyond_int64_exit_2(self, tmp_path, capsys, command):
        src = write_seq_file(tmp_path, "in.txt", 3, [0, 1, 99999999999999999999])
        assert main([command, "--in", str(src)]) == 2
        assert capsys.readouterr().err == f"error: {src}: symbol out of range [0, 3)\n"

    @pytest.mark.parametrize("command", ["transform", "invert"])
    @pytest.mark.parametrize("symbol", [2**63, 2**64 - 1, 2**64])
    def test_symbol_just_beyond_int64_exit_2(self, tmp_path, capsys, command, symbol):
        # beside a small int, numpy reads 2**63 and 2**64 - 1 as float64
        src = write_seq_file(tmp_path, "in.txt", 3, [1, symbol])
        assert main([command, "--in", str(src)]) == 2
        assert capsys.readouterr().err == f"error: {src}: symbol out of range [0, 3)\n"

    @pytest.mark.parametrize("command", ["transform", "invert"])
    @pytest.mark.parametrize("ns", [2**63, 99999999999999999999])
    def test_alphabet_beyond_int64_exit_2(self, tmp_path, capsys, command, ns):
        src = write_seq_file(tmp_path, "in.txt", ns, [0, 1])
        assert main([command, "--in", str(src)]) == 2
        assert capsys.readouterr().err == f"error: {src}: alphabet size must be <= 2**63 - 1, got {ns}\n"

    @pytest.mark.parametrize(
        "content,message",
        [
            # an Arabic-Indic three: int() would read it as 3
            ("ns ٣\n0 1\n".encode(), "malformed header 'ns ٣'; expected 'ns <integer>'"),
            # a superscript two: isdigit() passes it, int() does not
            ("ns 3\n0 1²\n".encode(), "symbols must be non-negative decimal integers"),
            (b"ns 3\n0 \xff 1\n", "cannot read sequence file {src}: 'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["non-ascii-digit-header", "superscript-symbol", "not-utf8"],
    )
    @pytest.mark.parametrize("command", ["transform", "invert"])
    def test_malformed_file_exit_2(self, tmp_path, capsys, command, content, message):
        src = tmp_path / "in.txt"
        src.write_bytes(content)
        assert main([command, "--in", str(src)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("error: ") and str(src) in err
        assert message.format(src=src) in err

    def test_alphabet_too_large_for_memory_exit_5(self, tmp_path, capsys):
        # a list of 2**63 - 1 entries fails its size check before allocating
        src = write_seq_file(tmp_path, "in.txt", 9223372036854775807, [0, 1])
        assert main(["transform", "--in", str(src)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: alphabet size 9223372036854775807")
        assert len(err.splitlines()) == 1

    def test_order_too_large_for_memory_exit_5(self, tmp_path, capsys, monkeypatch):
        # 2^63 sequences pass the bound given; the build's estimate must stop
        # it before the first table is allocated
        def no_build(*args):
            raise AssertionError("order build started")

        monkeypatch.setattr(shaping, "_multisets", no_build)
        monkeypatch.setattr(shaping, "_digit_rows", no_build)
        src = write_seq_file(tmp_path, "in.txt", 2, [0] * 63)
        argv = ["invert", "--in", str(src), "--strategy", "exact-sorted", "--max-space", str(2**80)]
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: the exact-sorted order of 2^63 sequences needs about")
        assert len(err.splitlines()) == 1


class TestOracle:
    def test_report_json(self, capsys):
        assert main(["oracle", "--ns", "3", "--len", "2", "--k", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("avg_source_info", "avg_shaped_info", "optimal_gain", "success_fraction"):
            assert key in payload
        assert payload["avg_source_info"] == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert payload["avg_shaped_info"] == pytest.approx(1.836591668108979, abs=1e-9)

    def test_validate_ok(self, capsys):
        assert main(["oracle", "--ns", "3", "--len", "2", "--k", "1",
                     "--validate", "exact-sorted"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["validation"]["ok"] is True

    def test_space_too_large_exit_2(self, capsys):
        assert main(["oracle", "--ns", "3", "--len", "40", "--k", "1"]) == 2

    def test_lex_index_overflow_exit_2(self, capsys):
        assert main(["oracle", "--ns", "2", "--len", "64",
                     "--max-space", "99999999999999999999999"]) == 2
        assert "int64 lex-index limit" in capsys.readouterr().err

    # the report's space check refuses the bound itself, as a run's config
    # does, before the space it is compared with
    @pytest.mark.parametrize("argv", [
        ["oracle", "--ns", "3", "--len", "11", "--max-space", "0"],
        ["oracle", "--ns", "4", "--len", "10000", "--max-space", "-3"],
        ["run", "--ns", "3", "--len", "11", "--pmax", "0.5", "--trials", "2", "--strategy", "exact-sorted", "--max-space", "1"],
    ], ids=["oracle", "oracle-huge", "run"])
    def test_bound_below_2_exit_2_with_one_line(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_space (the largest space tabulated or reported) must be >= 2\n"

    @pytest.mark.parametrize("length", ["3000", "10000"])
    def test_huge_space_exit_2_with_one_short_line(self, capsys, length):
        start = time.perf_counter()
        assert main(["oracle", "--ns", "4", "--len", length]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            f"error: 4^{length} sequences: the largest lex index exceeds the int64 lex-index limit 9223372036854775807\n"
        )

    @pytest.mark.parametrize("error,code", [(MemoryError, 5), (KeyboardInterrupt, 130)])
    def test_out_of_memory_and_interrupt_exit_codes(self, capsys, monkeypatch, error, code):
        def boom(*args, **kwargs):
            raise error()

        monkeypatch.setattr(oracle_mod, "oracle_report", boom)
        assert main(["oracle", "--ns", "3", "--len", "2"]) == code
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_empty_source_exit_2(self, capsys):
        assert main(["oracle", "--ns", "3", "--len", "0"]) == 2
        assert "length must be >= 1" in capsys.readouterr().err

    def test_validation_failure_exit_4(self, capsys, monkeypatch):
        from seqshape import ValidationReport

        broken = ValidationReport(
            strategy="adaptive-rank", ns=3, n=2, k=1, size=9,
            roundtrip_ok=False, images_distinct=True,
            image_matches_sorted_prefix=None,
            counterexample="round trip failed: synthetic",
        )
        monkeypatch.setattr(oracle_mod, "validate_strategy", lambda *a, **k: broken)
        assert main(["oracle", "--ns", "3", "--len", "2", "--k", "1",
                     "--validate", "adaptive-rank"]) == 4


class TestRunAndSweep:
    def test_run_prints_summary_and_exports_json(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        code = main(["run", "--ns", "5", "--len", "30", "--pmax", "0.5",
                     "--trials", "8", "--seed", "3", "--out", str(out), "--format", "json"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "success percentage" in stdout
        payload = json.loads(out.read_text())
        assert payload["summaries"][0]["trials"] == 8
        assert len(payload["records"]) == 8

    def test_run_exports_csv(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = main(["run", "--ns", "5", "--len", "30", "--pmax", "0.5",
                     "--trials", "4", "--seed", "3", "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,infc,tinfc,dife,success,roundtrip_ok"
        assert len(lines) == 5

    def test_run_invalid_pmax_exit_2(self, capsys):
        assert main(["run", "--ns", "5", "--len", "30", "--pmax", "1.5", "--trials", "2"]) == 2

    def test_run_roundtrip_failure_exit_4(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RoundTripError("trial 3: recovered sequence differs from the original input")

        monkeypatch.setattr(harness_mod, "run_experiment", boom)
        assert main(["run", "--ns", "5", "--len", "30", "--pmax", "0.5", "--trials", "4"]) == 4
        assert "round-trip failure" in capsys.readouterr().err

    def test_run_max_space_exit_2(self, capsys, monkeypatch):
        # 64^4 sequences are inside the default bound, so only the option
        # given can stop the first trial before its order build
        def no_build(*args):
            raise AssertionError("order build started")

        monkeypatch.setattr(shaping, "_multisets", no_build)
        monkeypatch.setattr(shaping, "_digit_rows", no_build)
        argv = ["run", "--ns", "64", "--len", "3", "--pmax", "0.5", "--trials", "2",
                "--strategy", "exact-sorted", "--max-space", "4096"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: 64^4 = 16777216 sequences exceed max_space 4096, the largest space tabulated or reported\n"

    def test_sweep_renders_reference_comparison(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--table1", "--trials", "2", "--seed", "1",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "ref P_s" in stdout
        payload = json.loads(out.read_text())
        assert [s["spec"]["ns"] for s in payload["summaries"]] == [30, 40, 50, 60]

    def test_sweep_requires_table1_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--trials", "2"])
        assert excinfo.value.code == 2


class TestHelp:
    @pytest.mark.parametrize("command", ["run", "sweep", "oracle", "transform", "invert"])
    def test_shared_options_have_their_help(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        # argparse wraps to the terminal width; compare with whitespace collapsed
        out = " ".join(capsys.readouterr().out.split())
        assert "--k K shaping order (length increase)" in out
        assert "--max-space MAX_SPACE largest space (sequences) tabulated or reported: an exact-sorted order, an oracle's spaces" in out


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        src = write_seq_file(tmp_path, "in.txt", 3, [2, 2, 2])
        result = subprocess.run(
            [sys.executable, "-m", "seqshape", "transform", "--in", str(src)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "ns 3\n0 2 0 0\n"

    def test_module_invocation_not_in_image(self, tmp_path):
        bad = write_seq_file(tmp_path, "bad.txt", 3, [1, 0, 0])
        result = subprocess.run(
            [sys.executable, "-m", "seqshape", "invert", "--in", str(bad)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 3
        assert "not in image" in result.stderr
