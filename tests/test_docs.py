"""The markdown docs' code samples must run (tools/check_docs.py).

CI runs the checker as a dedicated step; this test keeps the same
guarantee inside the plain pytest suite, so a doc sample cannot rot
between CI configurations.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _env():
    """Make sure the subprocess can import repro even when the suite runs
    without an installed package (PYTHONPATH=src invocation).

    The samples document the default device memory, so a
    ``REPRO_GLOBAL_MEM_BYTES`` squeeze set for the rest of the suite is
    not passed on."""
    env = dict(os.environ)
    env.pop("REPRO_GLOBAL_MEM_BYTES", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return env


def test_doc_code_samples_run():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs.py")],
        capture_output=True, text=True, cwd=REPO, timeout=560, env=_env())
    assert proc.returncode == 0, (
        f"doc samples failed:\n{proc.stdout}\n{proc.stderr}")
    assert "checked" in proc.stdout


def test_checker_catches_a_broken_sample(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text("```python\nraise RuntimeError('broken sample')\n```\n")
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs.py"), str(bad)],
        capture_output=True, text=True, cwd=REPO, timeout=60)
    assert proc.returncode != 0
    assert "broken sample" in proc.stdout


def test_checker_skips_no_run_fences(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "```python no-run\nthis is: not python(\n```\n"
        "```python\n>>> 1 + 1\n2\n```\n")
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs.py"), str(doc)],
        capture_output=True, text=True, cwd=REPO, timeout=60)
    assert proc.returncode == 0
    assert "1 block(s) checked" in proc.stdout


def _freshness(root):
    return subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs.py"),
         "--freshness", str(root)],
        capture_output=True, text=True, cwd=REPO, timeout=60)


def test_repo_has_no_unregistered_doctested_files():
    """Every doctested markdown file in this repo is in the checked set."""
    proc = _freshness(REPO)
    assert proc.returncode == 0, proc.stdout
    assert "none carry runnable python fences" in proc.stdout


def test_freshness_flags_an_unregistered_doctested_file(tmp_path):
    (tmp_path / "README.md").write_text("# readme\n")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "GUIDE.md").write_text(
        "```python\n>>> 1 + 1\n2\n```\n")          # registered: fine
    (tmp_path / "NOTES.md").write_text(
        "```python\nprint('never runs in CI')\n```\n")
    proc = _freshness(tmp_path)
    assert proc.returncode != 0
    assert "unregistered doctested file: NOTES.md" in proc.stdout


def test_freshness_ignores_no_run_and_exempt_files(tmp_path):
    (tmp_path / "README.md").write_text("# readme\n")
    (tmp_path / "NOTES.md").write_text(
        "```python no-run\npseudo_signature(...)\n```\n")
    (tmp_path / "SNIPPETS.md").write_text(
        "```python\nexemplar code, not an example\n```\n")
    (tmp_path / ".hidden").mkdir()
    (tmp_path / ".hidden" / "SKILL.md").write_text(
        "```python\nraise SystemExit\n```\n")
    proc = _freshness(tmp_path)
    assert proc.returncode == 0
    assert "none carry runnable python fences" in proc.stdout
