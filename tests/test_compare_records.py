"""The record tool reads the declared record changes from commit trailers."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_records.py"
spec = importlib.util.spec_from_file_location("compare_records", TOOL)
compare_records = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_records)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_declared_names_come_from_the_trailers_of_base_to_head(tmp_path):
    def commit(*paragraphs):
        messages = [arg for paragraph in paragraphs for arg in ("-m", paragraph)]
        subprocess.run(["git", "-c", "user.name=records", "-c", "user.email=records@example.com",
                        "-c", "commit.gpgsign=false", "commit", "-q", "--allow-empty",
                        *messages], cwd=tmp_path, check=True)
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path, check=True,
                              capture_output=True, text=True).stdout.strip()

    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    base = commit("base", "Records-changed: before.csv")
    commit("no records")
    one = commit("one line", "Records-changed: a.csv a.json")
    commit("two lines", "Records-changed: b.csv\nRecords-changed: c.json a.csv")
    assert compare_records.declared(base, tmp_path) == {"a.csv", "a.json", "b.csv", "c.json"}
    assert compare_records.declared(one, tmp_path) == {"a.csv", "b.csv", "c.json"}
    assert compare_records.declared("HEAD", tmp_path) == set()


def test_names_are_not_passed_on_the_command_line():
    with pytest.raises(SystemExit) as exc:
        compare_records.main(["HEAD", "--expect", "scales.csv"])
    assert exc.value.code == 2
