import io

import pytest

from seqshape import format_sequence, parse_sequence, read_sequence, write_sequence

from conftest import seq


class TestFormat:
    def test_canonical_text(self):
        assert format_sequence(seq([0, 2, 0, 0], 3)) == "ns 3\n0 2 0 0\n"

    def test_parse_round_trip(self):
        s = seq([1, 0, 2, 2], 3)
        assert parse_sequence(format_sequence(s)) == s

    def test_single_symbol(self):
        assert parse_sequence("ns 2\n1\n") == seq([1], 2)

    def test_missing_trailing_newline_tolerated(self):
        assert parse_sequence("ns 2\n0 1") == seq([0, 1], 2)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "ns 3\n",
            "0 1 2\n",
            "ns three\n0 1\n",
            "ns 3 extra\n0 1\n",
            "ns 3\n0 1\n2\n",
            "ns 3\n0 x 1\n",
            "ns 3\n0 -1\n",
        ],
    )
    def test_malformed_input(self, text):
        with pytest.raises(ValueError):
            parse_sequence(text)

    def test_symbol_out_of_alphabet(self):
        with pytest.raises(ValueError):
            parse_sequence("ns 3\n0 3\n")

    @pytest.mark.parametrize("symbols", ["0 3", "1 9223372036854775808", "1 18446744073709551615", "1 18446744073709551616"])
    def test_symbols_out_of_alphabet_are_refused_by_the_sequence(self, symbols):
        # the file's ints go to Sequence as they are: its one check refuses
        # them, beyond int64 and uint64 too
        with pytest.raises(ValueError, match=r"^symbol out of range \[0, 3\)$"):
            parse_sequence(f"ns 3\n{symbols}\n")

    def test_blank_symbol_line(self):
        with pytest.raises(ValueError, match=r"^no symbols on line 2$"):
            parse_sequence("ns 3\n \t \n")

    def test_header_alphabet_too_small(self):
        with pytest.raises(ValueError):
            parse_sequence("ns 1\n0\n")


class TestFiles:
    def test_file_round_trip(self, tmp_path):
        s = seq([5, 0, 5, 3], 6)
        path = tmp_path / "seq.txt"
        write_sequence(s, path)
        assert path.read_text() == "ns 6\n5 0 5 3\n"
        assert read_sequence(path) == s

    def test_stream_round_trip(self):
        s = seq([0, 1, 1], 2)
        buffer = io.StringIO()
        write_sequence(s, buffer)
        assert read_sequence(io.StringIO(buffer.getvalue())) == s

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="nope.txt"):
            read_sequence(tmp_path / "nope.txt")

    def test_parse_error_names_source(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a sequence\n")
        with pytest.raises(ValueError, match="bad.txt"):
            read_sequence(path)
