import subprocess
import sys
from pathlib import Path

CONFTEST = Path(__file__).with_name("conftest.py")


def test_time_limit_fails_a_hung_test(tmp_path):
    """The conftest copied with its limit edited from 300 s to 1 s: a test
    that spins for 3 s in Python fails at the limit, naming the frame it
    hung in, and the test after it still runs and passes."""
    src = CONFTEST.read_text()
    assert src.count("LIMIT_S = 300\n") == 1
    (tmp_path / "conftest.py").write_text(src.replace("LIMIT_S = 300\n", "LIMIT_S = 1\n"))
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "test_spin.py").write_text(
        "import time\n\n\n"
        "def spin(seconds):\n"
        "    end = time.monotonic() + seconds\n"
        "    while time.monotonic() < end:\n"
        "        pass\n\n\n"
        "def test_hangs():\n"
        "    spin(3)\n\n\n"
        "def test_after():\n"
        "    pass\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf", str(tmp_path)],
                         capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "test still running after 1 s, in" in run.stdout
    assert "in spin" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
