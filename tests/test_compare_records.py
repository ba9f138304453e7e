"""The record tool reads the declared record changes from commit trailers,
and marks a JSON file whose records did not move."""

import importlib.util
import json
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


def test_config_only_marks_json_files_whose_records_agree(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir()
    head.mkdir()

    def write(side, name, config, records):
        (side / name).write_text(json.dumps({"config": config, "records": records}, indent=2))

    records = [{"n": 0, "overlap_re": 1.0}, {"n": 1, "overlap_re": 0.8}]
    write(base, "config.json", {"A": 8, "output_path": ""}, records)
    write(head, "config.json", {"A": 8}, records)
    write(base, "records.json", {"A": 8}, records)
    write(head, "records.json", {"A": 8}, [records[0], {"n": 1, "overlap_re": 0.6}])
    write(base, "zero.json", {"A": 8}, [{"n": 0, "overlap_re": 0.0}])
    write(head, "zero.json", {"A": 9}, [{"n": 0, "overlap_re": -0.0}])
    (base / "rows.csv").write_text("n,overlap_re\n0,1\n")
    (head / "rows.csv").write_text("n,overlap_re\n0,-1\n")
    changed = compare_records.differing(base, head)
    assert changed == ["config.json", "records.json", "rows.csv", "zero.json"]
    assert [name for name in changed
            if compare_records.config_only(base / name, head / name)] == ["config.json"]


def test_a_raising_run_is_recorded_with_its_message(tmp_path):
    package = tmp_path / "src" / "sectorsim"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv=None):\n    raise ValueError('boom')\n")
    codes = compare_records.run_tree(tmp_path / "src", tmp_path / "out",
                                     [("oracle_check.csv", ["oracle-check"])])
    assert codes == {"oracle_check.csv": "ValueError: boom"}


def test_a_run_that_warns_is_recorded_as_the_warning(tmp_path):
    package = tmp_path / "src" / "sectorsim"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("import warnings\n\n\ndef main(argv=None):\n"
                                    "    warnings.warn('overflow', RuntimeWarning)\n"
                                    "    return 0\n")
    codes = compare_records.run_tree(tmp_path / "src", tmp_path / "out",
                                     [("scales.csv", ["scales"])])
    assert codes == {"scales.csv": "RuntimeWarning: overflow"}
