import subprocess
import sys
from pathlib import Path

CONFTEST = Path(__file__).with_name("conftest.py")

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after_the_failure():
    pass
"""


def test_a_failing_given_test_is_an_ordinary_failure_under_w_error(tmp_path):
    (tmp_path / "conftest.py").write_text(CONFTEST.read_text(encoding="utf-8"), "utf-8")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, "utf-8")
    (tmp_path / "pytest.ini").write_text("[pytest]\n", "utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider", "."],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
    assert proc.returncode == 1
