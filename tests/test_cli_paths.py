"""Paths the CLI reads or writes: a file it cannot open exits 2 with one
error line, and an unusable ROMANOFF_LAB_CACHE is skipped, not fatal."""

import pytest

from romanoff_lab.cli import run

EXTREMAL = ["extremal", "--M", "1000", "--y", "2.2", "--z", "6.9"]


def assert_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


class TestPathErrors:
    @pytest.mark.parametrize("command", [
        ["moments", "--report", "theorem1", "--x", "100"],
        ["romanoff", "--report", "profile", "--x", "100"],
    ])
    @pytest.mark.parametrize("target", ["missing.txt", "."])
    def test_unreadable_explicit_file_is_2(self, command, target, tmp_path, capsys):
        path = tmp_path / target
        assert run(command + ["--seq", f"explicit:@{path}"]) == 2
        assert_error_line(capsys)

    @pytest.mark.parametrize("argv", [
        ["sieve", "--limit", "100"],
        EXTREMAL,
        ["romanoff", "--report", "profile", "--seq", "geom:2", "--x", "100"],
    ])
    def test_out_in_missing_directory_is_2(self, argv, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path / "no" / "dir" / "x.json")]) == 2
        assert_error_line(capsys)
        assert not (tmp_path / "no").exists()


class TestCacheIsBestEffort:
    @pytest.mark.parametrize("cache", ["file", "file/sub"])
    def test_unusable_cache_answers_from_the_built_table(self, cache, tmp_path, monkeypatch, capsys):
        assert run(EXTREMAL) == 0
        expected = capsys.readouterr().out
        (tmp_path / "file").write_text("not a directory")
        monkeypatch.setenv("ROMANOFF_LAB_CACHE", str(tmp_path / cache))
        assert run(EXTREMAL) == 0
        captured = capsys.readouterr()
        assert captured.out == expected and captured.err == ""
        assert (tmp_path / "file").read_text() == "not a directory"
