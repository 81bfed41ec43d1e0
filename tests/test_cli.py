import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR
from mondrian import cli, numtheory, tiling
from mondrian.cli import RunConfig, dispatch, main, parse_args
from mondrian.tiling import tiling_from_json, verify_tiling

# a quick valid run of each command
ARGV_BY_COMMAND = {
    "solve": ["solve", "--n", "6"],
    "perfect": ["perfect", "--n", "6"],
    "census": ["census", "--x", "100"],
    "rough": ["rough", "--x", "100"],
    "chain": ["chain", "--x", "100"],
    "verify-oeis": ["verify-oeis", "--bfile", str(DATA_DIR / "b276523.txt"),
                    "--from", "3", "--to", "5"],
}
CSV_COMMANDS = {"census", "rough"}

# the exact stdout of census, chain and rough runs in every format: part of the
# CLI contract, so a refactor of the census or its sieve must keep it byte for byte
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "mondrian", *args], capture_output=True)


class TestParseArgs:
    def test_solve_defaults(self):
        cfg = parse_args(["solve", "--n", "6"])
        assert cfg == RunConfig(command="solve", n=6, node_budget=10**8, output_format="text")

    def test_census_csv(self):
        cfg = parse_args(["census", "--x", "1000000", "--format", "csv"])
        assert cfg.command == "census" and cfg.x == 10**6
        assert cfg.output_format == "csv"

    def test_verify_oeis_range(self, bfile_path):
        cfg = parse_args(
            ["verify-oeis", "--bfile", str(bfile_path), "--from", "3", "--to", "10"]
        )
        assert (cfg.from_n, cfg.to_n) == (3, 10)

    def test_bad_integer_exits_2(self):
        with pytest.raises(SystemExit) as e:
            parse_args(["solve", "--n", "abc"])
        assert e.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as e:
            parse_args(["solve", "--n", "6", "--frobnicate"])
        assert e.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as e:
            parse_args(["solve"])
        assert e.value.code == 2

    def test_out_of_range_values(self):
        for args in (
            ["solve", "--n", "2"],
            ["perfect", "--n", "2"],
            ["census", "--x", "10"],
            ["chain", "--x", "10"],
            ["rough", "--x", "0"],
            ["rough", "--x", "100", "--z", "-1"],
            ["solve", "--n", "6", "--budget", "0"],
            ["solve", "--n", "6", "--workers", "0"],
            ["verify-oeis", "--bfile", "x", "--from", "2", "--to", "5"],
        ):
            with pytest.raises(SystemExit) as e:
                parse_args(args)
            assert e.value.code == 2, args

    def test_format_availability_per_command(self):
        for command, argv in ARGV_BY_COMMAND.items():
            for fmt in ("text", "json", "csv"):
                args = [*argv, "--format", fmt]
                if fmt != "csv" or command in CSV_COMMANDS:
                    assert parse_args(args).output_format == fmt, args
                else:
                    with pytest.raises(SystemExit) as e:
                        parse_args(args)
                    assert e.value.code == 2, args

    @pytest.mark.parametrize("argv", list(ARGV_BY_COMMAND.values()))
    def test_workers_validated_and_ignored(self, argv):
        assert parse_args([*argv, "--workers", "4"]) == parse_args(argv)
        with pytest.raises(SystemExit) as e:
            parse_args([*argv, "--workers", "0"])
        assert e.value.code == 2


class TestDispatch:
    def test_solve_json_round_trips(self, capsys):
        rc = main(["solve", "--n", "6", "--format", "json"])
        assert rc == 0
        out = capsys.readouterr().out
        cert = tiling_from_json(out)
        assert cert.defect == 5
        assert verify_tiling(cert).valid

    def test_perfect_text_verdict(self, capsys):
        rc = main(["perfect", "--n", "3"])
        assert rc == 0
        assert capsys.readouterr().out == "FilterExcluded\n"

    def test_perfect_json(self, capsys):
        rc = main(["perfect", "--n", "6", "--format", "json"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["verdict"] == "Exhausted" and obj["witness_d"] == 12

    def test_rough_text(self, capsys):
        rc = main(["rough", "--x", "100", "--z", "10"])
        assert rc == 0
        assert capsys.readouterr().out == "22\n"

    def test_rough_default_z(self, capsys):
        rc = main(["rough", "--x", "100"])
        assert rc == 0
        assert capsys.readouterr().out.strip().isdigit()

    @pytest.mark.parametrize("z_args", [[], ["--z", "50"]], ids=["default-z", "z50"])
    def test_rough_beyond_safe_limit_exits_2(self, capsys, monkeypatch, z_args):
        monkeypatch.setattr(numtheory, "_lucy", None)  # the sieve must never start
        x = str(numtheory.ROUGH_SAFE_LIMIT + 1)
        for fmt in ("text", "json", "csv"):
            assert main(["rough", "--x", x, *z_args, "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "exceeds the rough_count limit" in captured.err

    def test_census_csv_shape(self, capsys):
        rc = main(["census", "--x", "30", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("x,z,count_p1")
        assert lines[1].split(",")[2] == "10"

    def test_chain_reports(self, capsys):
        rc = main(["chain", "--x", "100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "never asserted" in out and "chain:" in out

    def test_verify_oeis_clean(self, capsys, bfile_path):
        rc = main(["verify-oeis", "--bfile", str(bfile_path), "--from", "3", "--to", "8"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "0 mismatches"

    def test_verify_oeis_budget_exit(self, capsys, bfile_path):
        rc = main(
            ["verify-oeis", "--bfile", str(bfile_path), "--from", "8", "--to", "8",
             "--budget", "3"]
        )
        assert rc == 1
        assert "budget exceeded" in capsys.readouterr().out

    def test_verify_oeis_detects_tamper(self, capsys, tmp_path):
        bad = tmp_path / "tampered.txt"
        bad.write_text("3 2\n4 4\n5 4\n6 4\n")
        rc = main(["verify-oeis", "--bfile", str(bad), "--from", "3", "--to", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 mismatches" in out and "n=6: computed 5, expected 4" in out

    def test_solve_budget_exit(self, capsys):
        rc = main(["solve", "--n", "8", "--budget", "5"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing on stdout
        assert captured.err == (
            "budget exceeded: node budget 5 exhausted while testing defect 6 for n=8\n"
            "proven lower bound: 6\n"
        )

    def test_perfect_budget_exit(self, capsys):
        rc = main(["perfect", "--n", "84", "--budget", "1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "budget exceeded: node budget 1 exhausted at piece area 1008 for n=84\n"
            "unresolved piece areas: [1008, 1764, 2352, 3528]\n"
        )

    def test_missing_bfile_is_usage_error(self, capsys):
        rc = main(["verify-oeis", "--bfile", "/nonexistent", "--from", "3", "--to", "5"])
        assert rc == 2

    def test_out_path(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        rc = main(["solve", "--n", "3", "--format", "json", "--out", str(target)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert tiling_from_json(target.read_text()).defect == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["rough", "--x", "10"], "error: x must exceed e^e ~ 15.154262, got 10\n"),
            (["perfect", "--n", "1000001"],
             "error: n=1000001 exceeds the witness_report domain limit 1000000\n"),
            (["verify-oeis", "--bfile", str(DATA_DIR / "b276523.txt"), "--from", "3", "--to", "25"],
             "error: range [3, 25] outside series [3, 20]\n"),
            (["verify-oeis", "--bfile", str(DATA_DIR / "b276523.txt"), "--from", "5", "--to", "4"],
             "error: empty range [5, 4]\n"),
            (["census", "--x", str(numtheory.CENSUS_SAFE_LIMIT + 1)],
             "error: x=1000000000001 exceeds the census limit 1000000000000\n"),
            (["chain", "--x", str(numtheory.CENSUS_SAFE_LIMIT + 1), "--format", "json"],
             "error: x=1000000000001 exceeds the census limit 1000000000000\n"),
            (["solve", "--n", str(tiling.SOLVE_SAFE_LIMIT + 1)],
             "error: n=257 exceeds the solve_m domain limit 256\n"),
        ],
        ids=["rough-small-x", "perfect-beyond-witness-limit", "oeis-outside-series", "oeis-empty",
             "census-beyond-limit", "chain-beyond-limit", "solve-beyond-limit"],
    )
    def test_input_out_of_domain_is_usage_error(self, capsys, monkeypatch, args, message):
        monkeypatch.setattr(numtheory, "_primes_upto", None)  # no sieve may start
        monkeypatch.setattr(tiling, "rects_with_area", None)  # nor any piece table
        monkeypatch.setattr(tiling, "_sorted_pieces", None)  # nor solve_m's rect list
        assert main(args) == 2
        assert capsys.readouterr() == ("", message)

    def test_perfect_past_search_limit_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(tiling, "_first_tiling", None)  # no piece set may be searched
        assert main(["perfect", "--n", str(tiling.PERFECT_SAFE_LIMIT + 1)]) == 2
        assert capsys.readouterr() == (
            "", "error: n=420 has a fitting witness 12600 and exceeds the check_perfect search limit 419\n"
        )
        assert main(["perfect", "--n", "1009"]) == 0  # the filter still answers past the limit
        assert capsys.readouterr() == ("FilterExcluded\n", "")

    def test_undecodable_bfile_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "b.txt"
        bad.write_bytes(b"\xff\xfe 1 2\n")
        assert main(["verify-oeis", "--bfile", str(bad), "--from", "3", "--to", "4"]) == 2
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")

    def test_fault_inside_a_command_is_not_a_usage_error(self, monkeypatch):
        def fault(x):
            raise ValueError("a fault, not bad input")

        monkeypatch.setattr(cli, "run_chain_census", fault)
        with pytest.raises(ValueError, match="a fault, not bad input"):
            main(["census", "--x", "100"])

    @pytest.mark.parametrize("command", list(ARGV_BY_COMMAND))
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, command):
        target = tmp_path / "no" / "such" / "file"
        assert main([*ARGV_BY_COMMAND[command], "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestSubprocessBehavior:
    def test_usage_error_status(self):
        proc = run_cli(["solve", "--n", "abc"])
        assert proc.returncode == 2

    def test_stdout_carries_only_results(self):
        proc = run_cli(["perfect", "--n", "5"])
        assert proc.returncode == 0
        assert proc.stdout == b"FilterExcluded\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--n", "6", "--format", "json"],
            ["census", "--x", "25000", "--format", "csv"],
            ["rough", "--x", "200000", "--z", "40"],
        ],
    )
    def test_worker_count_determinism(self, args):
        one = run_cli([*args, "--workers", "1"])
        four = run_cli([*args, "--workers", "4"])
        assert one.returncode == four.returncode == 0
        assert one.stdout == four.stdout


@pytest.mark.parametrize(
    "args, stdout", [pytest.param(g["args"], g["stdout"], id="-".join(g["args"])) for g in GOLDEN]
)
def test_stdout_is_byte_identical_to_the_recording(capsys, args, stdout):
    assert main(args) == 0
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--n", "12", "--format", "json"],
        ["solve", "--n", "12", "--budget", "3"],
        ["perfect", "--n", "84", "--format", "json"],
        ["perfect", "--n", "84", "--budget", "1"],
        ["census", "--x", "10000", "--format", "csv"],
        ["chain", "--x", "10000"],
        ["rough", "--x", "1000000"],
        pytest.param(
            ["verify-oeis", "--bfile", str(DATA_DIR / "b276523.txt"), "--from", "3", "--to", "8"],
            id="verify-oeis-3-8",
        ),
    ],
    ids="-".join,
)
def test_no_command_leaves_cyclic_garbage(capsys, args):
    # reference counting alone must free what a run builds: an early-closed search
    # generator or a recursive closure would leave cycles for the collector
    main(["solve", "--n", "3"])  # builds the cached parser; argparse leaves cycles doing so
    gc.collect()
    gc.disable()
    try:
        main(args)
        capsys.readouterr()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_only_the_sieving_commands_import_numpy():
    # solve, perfect and verify-oeis never sieve, so a cold start of any of them
    # must not pay for numpy's import; census, chain and rough load it at their
    # first sieve. A fresh interpreter, since this process imported numpy long ago.
    golden = {tuple(g["args"]): g["stdout"] for g in GOLDEN}
    sieving = [
        ["census", "--x", "100000", "--format", "json"],
        ["chain", "--x", "100000", "--format", "json"],
        ["rough", "--x", "1000", "--z", "10", "--format", "json"],
    ]
    script = f"""
import contextlib, io, json, sys
import mondrian, mondrian.cli

def run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = mondrian.cli.main(args)
    return status, out.getvalue()

for args in (["solve", "--n", "12"], ["perfect", "--n", "20"], ["perfect", "--n", "84"],
             ["verify-oeis", "--bfile", {str(DATA_DIR / "b276523.txt")!r}, "--from", "3", "--to", "8"]):
    assert run(args)[0] == 0, args
    assert "numpy" not in sys.modules, args
print(json.dumps([run(args) for args in {sieving!r}]))
print("numpy" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    runs, loaded = proc.stdout.splitlines()
    assert json.loads(runs) == [[0, golden[tuple(args)]] for args in sieving]
    assert loaded == "True"
