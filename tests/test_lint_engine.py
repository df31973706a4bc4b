"""Engine-level tests: pragmas, baseline, output formats, exit codes, CLI.

Ends with the meta-test: the shipped tree must lint clean (no finding that
is not either fixed or excused by a reasoned pragma / the committed
baseline) -- the same gate CI enforces.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint.baseline import (
    BASELINE_SCHEMA,
    load_baseline,
    load_baseline_entries,
    save_baseline,
)
from repro.lint.engine import (
    JSON_SCHEMA,
    UsageError,
    collect_files,
    find_repo_root,
    format_result,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

VIOLATION = "import random\nx = random.random()\n"


def make_repo(tmp_path: Path, source: str = VIOLATION) -> Path:
    """A throwaway repo root holding one engine file with one violation."""
    (tmp_path / "pyproject.toml").touch()
    path = tmp_path / "src" / "repro" / "pipeline" / "fixture.py"
    path.parent.mkdir(parents=True)
    path.write_text(source)
    return tmp_path


# -------------------------------------------------------------------- pragmas
class TestPragmas:
    def test_trailing_pragma_suppresses(self, tmp_path):
        root = make_repo(
            tmp_path,
            "import random\n"
            "x = random.random()  # repro-lint: disable=RL001 fixture needs ambient entropy\n",
        )
        result = run_lint([Path("src")], root=root, use_baseline=False)
        assert result.findings == []

    def test_preceding_line_pragma_suppresses(self, tmp_path):
        root = make_repo(
            tmp_path,
            "import random\n"
            "# repro-lint: disable=RL001 fixture needs ambient entropy\n"
            "x = random.random()\n",
        )
        result = run_lint([Path("src")], root=root, use_baseline=False)
        assert result.findings == []

    def test_file_level_pragma_suppresses(self, tmp_path):
        root = make_repo(
            tmp_path,
            "# repro-lint: disable-file=RL001 fixture module is all entropy\n"
            "import random\n"
            "x = random.random()\n"
            "y = random.random()\n",
        )
        result = run_lint([Path("src")], root=root, use_baseline=False)
        assert result.findings == []

    def test_pragma_without_reason_reports_rl000(self, tmp_path):
        root = make_repo(
            tmp_path,
            "import random\n"
            "x = random.random()  # repro-lint: disable=RL001\n",
        )
        result = run_lint([Path("src")], root=root, use_baseline=False)
        assert [f.code for f in result.findings] == ["RL000"]
        assert "reason" in result.findings[0].message

    def test_pragma_only_suppresses_named_code(self, tmp_path):
        root = make_repo(
            tmp_path,
            "import random, time\n"
            "x = random.random() or time.time()  # repro-lint: disable=RL001 entropy ok here\n",
        )
        result = run_lint([Path("src")], root=root, use_baseline=False)
        assert [f.code for f in result.findings] == ["RL002"]

    def test_malformed_pragma_reports_rl000(self, tmp_path):
        root = make_repo(tmp_path, "# repro-lint: disable RL001 oops\npass\n")
        result = run_lint([Path("src")], root=root, use_baseline=False)
        assert [f.code for f in result.findings] == ["RL000"]

    def test_pragma_in_string_literal_ignored(self, tmp_path):
        root = make_repo(
            tmp_path,
            'TEXT = "# repro-lint: disable=RL001 not a real pragma"\n'
            "import random\n"
            "x = random.random()\n",
        )
        result = run_lint([Path("src")], root=root, use_baseline=False)
        assert [f.code for f in result.findings] == ["RL001"]


# ------------------------------------------------------------------- baseline
class TestBaseline:
    def test_round_trip_suppresses_known_findings(self, tmp_path):
        root = make_repo(tmp_path)
        baseline = root / "lint-baseline.json"
        first = run_lint([Path("src")], root=root, use_baseline=False)
        assert len(first.findings) == 1
        save_baseline(baseline, first.findings)

        second = run_lint([Path("src")], root=root, baseline_path=baseline)
        assert second.new_findings == []
        assert [f.baselined for f in second.findings] == [True]
        assert second.exit_code == 0

    def test_baseline_survives_line_drift(self, tmp_path):
        root = make_repo(tmp_path)
        baseline = root / "lint-baseline.json"
        save_baseline(
            baseline, run_lint([Path("src")], root=root, use_baseline=False).findings
        )
        # Prepend unrelated lines: the finding moves but its content doesn't.
        path = root / "src" / "repro" / "pipeline" / "fixture.py"
        path.write_text("import os\nUNRELATED = 1\n\n" + path.read_text())
        drifted = run_lint([Path("src")], root=root, baseline_path=baseline)
        assert drifted.new_findings == []

    def test_new_finding_not_covered_by_baseline(self, tmp_path):
        root = make_repo(tmp_path)
        baseline = root / "lint-baseline.json"
        save_baseline(
            baseline, run_lint([Path("src")], root=root, use_baseline=False).findings
        )
        path = root / "src" / "repro" / "pipeline" / "fixture.py"
        path.write_text(path.read_text() + "import time\nt = time.time()\n")
        result = run_lint([Path("src")], root=root, baseline_path=baseline)
        assert [f.code for f in result.new_findings] == ["RL002"]
        assert result.exit_code == 1

    def test_schema_and_format(self, tmp_path):
        root = make_repo(tmp_path)
        baseline = root / "baseline.json"
        save_baseline(
            baseline, run_lint([Path("src")], root=root, use_baseline=False).findings
        )
        payload = json.loads(baseline.read_text())
        assert payload["schema"] == BASELINE_SCHEMA
        assert {"code", "path", "fingerprint"} == set(payload["findings"][0])
        assert load_baseline(baseline) == {payload["findings"][0]["fingerprint"]}

    def test_save_load_save_is_byte_identical(self, tmp_path):
        """The baseline contract closes: every saved field is read back."""
        root = make_repo(tmp_path, VIOLATION + "import time\nt = time.time()\n")
        first, second = root / "first.json", root / "second.json"
        findings = run_lint([Path("src")], root=root, use_baseline=False).findings
        assert len(findings) == 2
        save_baseline(first, findings)
        save_baseline(second, load_baseline_entries(first))
        assert second.read_bytes() == first.read_bytes()

    def test_corrupt_baseline_is_usage_error(self, tmp_path):
        root = make_repo(tmp_path)
        baseline = root / "lint-baseline.json"
        baseline.write_text("{\"schema\": \"something-else\"}")
        with pytest.raises(UsageError):
            run_lint([Path("src")], root=root, baseline_path=baseline)

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == set()


# ------------------------------------------------------------ output formats
class TestOutput:
    def test_json_schema(self, tmp_path):
        root = make_repo(tmp_path)
        result = run_lint([Path("src")], root=root, use_baseline=False)
        payload = json.loads(format_result(result, fmt="json"))
        assert payload["schema"] == JSON_SCHEMA
        assert payload["files_checked"] == 1
        assert payload["counts"] == {
            "total": 1,
            "new": 1,
            "baselined": 0,
            "stale_baseline": 0,
        }
        assert payload["stale_baseline"] == []
        (finding,) = payload["findings"]
        assert finding["code"] == "RL001"
        assert finding["path"] == "src/repro/pipeline/fixture.py"
        assert finding["line"] == 2
        assert isinstance(finding["fingerprint"], str) and len(finding["fingerprint"]) == 40
        assert finding["baselined"] is False

    def test_text_format(self, tmp_path):
        root = make_repo(tmp_path)
        result = run_lint([Path("src")], root=root, use_baseline=False)
        text = format_result(result)
        assert "src/repro/pipeline/fixture.py:2:" in text
        assert "RL001" in text
        assert "1 finding" in text

    def test_identical_lines_get_distinct_fingerprints(self, tmp_path):
        root = make_repo(
            tmp_path,
            "import random\nx = random.random()\ny = random.random()\n",
        )
        # Same code, same content after normalization only if lines identical;
        # make them identical:
        path = root / "src" / "repro" / "pipeline" / "fixture.py"
        path.write_text("import random\nx = random.random()\nx = random.random()\n")
        result = run_lint([Path("src")], root=root, use_baseline=False)
        prints = [f.fingerprint for f in result.findings]
        assert len(prints) == 2 and len(set(prints)) == 2


# ------------------------------------------------------------------ engine IO
class TestEngine:
    def test_unknown_path_is_usage_error(self, tmp_path):
        (tmp_path / "pyproject.toml").touch()
        with pytest.raises(UsageError):
            run_lint([Path("nope")], root=tmp_path)

    def test_unknown_code_is_usage_error(self, tmp_path):
        root = make_repo(tmp_path)
        with pytest.raises(UsageError):
            run_lint([Path("src")], root=root, select=["RL999"])

    def test_collect_skips_pycache(self, tmp_path):
        root = make_repo(tmp_path)
        cache = root / "src" / "repro" / "__pycache__"
        cache.mkdir(parents=True)
        (cache / "junk.py").write_text("import random\nrandom.random()\n")
        files = collect_files([Path("src")], root)
        assert all("__pycache__" not in str(f) for f in files)

    def test_find_repo_root(self):
        assert find_repo_root(REPO_ROOT / "src" / "repro") == REPO_ROOT

    def test_syntax_error_reported_not_crash(self, tmp_path):
        root = make_repo(tmp_path, "def broken(:\n")
        result = run_lint([Path("src")], root=root, use_baseline=False)
        assert [f.code for f in result.findings] == ["RL000"]
        assert "does not parse" in result.findings[0].message


# ------------------------------------------------------------------ CLI layer
class TestCli:
    def run_cli(self, *argv):
        return repro_main(["lint", *argv])

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys, monkeypatch):
        root = make_repo(tmp_path, "VALUE = 1\n")
        monkeypatch.chdir(root)
        assert self.run_cli() == 0
        assert "0 findings" in capsys.readouterr().out

    def test_exit_one_on_violation(self, tmp_path, capsys, monkeypatch):
        root = make_repo(tmp_path)
        monkeypatch.chdir(root)
        assert self.run_cli() == 1
        assert "RL001" in capsys.readouterr().out

    def test_exit_two_on_bad_select(self, tmp_path, capsys, monkeypatch):
        root = make_repo(tmp_path)
        monkeypatch.chdir(root)
        assert self.run_cli("--select", "RL999") == 2

    def test_ignore_silences_checker(self, tmp_path, capsys, monkeypatch):
        root = make_repo(tmp_path)
        monkeypatch.chdir(root)
        assert self.run_cli("--ignore", "RL001") == 0

    def test_write_baseline_then_clean(self, tmp_path, capsys, monkeypatch):
        root = make_repo(tmp_path)
        monkeypatch.chdir(root)
        assert self.run_cli("--write-baseline") == 0
        assert (root / "lint-baseline.json").exists()
        assert self.run_cli() == 0

    def test_json_format(self, tmp_path, capsys, monkeypatch):
        root = make_repo(tmp_path)
        monkeypatch.chdir(root)
        assert self.run_cli("--format", "json", "--no-baseline") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == JSON_SCHEMA

    def test_list_checkers(self, capsys):
        assert self.run_cli("--list-checkers") == 0
        out = capsys.readouterr().out
        for code in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
            assert code in out


# ------------------------------------------------------------------ meta-test
class TestShippedTreeIsClean:
    """The gate CI enforces: the live tree has zero non-baselined findings."""

    def test_live_tree_lints_clean(self):
        result = run_lint(
            [Path("src/repro"), Path("tests"), Path("benchmarks")],
            root=REPO_ROOT,
        )
        messages = [f.format_text() for f in result.new_findings]
        assert messages == [], "\n".join(messages)

    def test_module_entry_point(self):
        # `python -m repro lint` is the exact command CI runs.
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint"],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 findings" in proc.stdout
