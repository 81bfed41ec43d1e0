"""The experiment scripts take their argument bounds at parse time: out of domain is exit 2, no traceback."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
MALFORMED_BFILE = Path(__file__).resolve().parent / "data" / "malformed_bfile.txt"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name, args, message", [
    ("census_scan.py", ["--xs", "1000", "10"], "argument --xs: must be >= 16, got 10"),
    ("defect_table.py", ["--from", "2", "--to", "4"], "argument --from: must be >= 3, got 2"),
    ("defect_table.py", ["--budget", "0"], "argument --budget: must be >= 1, got 0"),
    ("defect_table.py", ["--bfile", "no-such-bfile.txt"],
     "argument --bfile: [Errno 2] No such file or directory: 'no-such-bfile.txt'"),
    ("defect_table.py", ["--bfile", str(MALFORMED_BFILE)],
     "argument --bfile: line 3: non-contiguous index 5 after 3"),
    ("census_scan.py", ["--xs", "1000", "1000000000001"],
     "argument --xs: must be <= 1000000000000, got 1000000000001"),
    ("defect_table.py", ["--from", "5", "--to", "3"], "argument --to: must be >= --from 5, got 3"),
    ("defect_table.py", ["--to", "257"], "argument --to: must be <= 256, got 257"),
])
def test_out_of_domain_argument_is_a_usage_error(name, args, message):
    proc = run_script(name, *args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_usage_error_leaves_the_out_file_alone(tmp_path):
    keep = tmp_path / "keep.csv"
    keep.write_bytes(b"kept\n")
    proc = run_script("census_scan.py", "--xs", "100", "10000000000000", "--out", str(keep))
    assert proc.returncode == 2
    assert keep.read_bytes() == b"kept\n"


@pytest.mark.parametrize("name, args, rows", [
    ("census_scan.py", ["--xs", "16"], 2),  # CSV header and one row
    ("defect_table.py", ["--from", "3", "--to", "3"], 2),  # table header and n = 3
])
def test_least_argument_in_domain_runs(name, args, rows):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == rows
