"""Command-line behavior: output shape, determinism, round-trips, exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pinforms import InvariantViolation, census, enhancements, refinements
from pinforms.census import pin_census_recursive
from pinforms.cli import OutputRecord, build_parser, main, parse_surface, parse_values
from pinforms.refinements import spin_closed_form


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_surface():
    assert parse_surface("S:2").label == "S:2"
    assert parse_surface("N:14").label == "N:14"
    for bad in ("S2", "X:1", "N:-1", "N:", "S:one"):
        with pytest.raises(ValueError):
            parse_surface(bad)


def test_parse_values():
    assert parse_values("1,3,1") == (1, 3, 1)
    assert parse_values("") == ()
    with pytest.raises(ValueError):
        parse_values("1,a")


def test_census_spin_torus(capsys):
    code, out, _ = run_cli(capsys, "census", "-s", "S:1", "-t", "spin")
    assert code == 0
    assert "surface: S:1" in out
    assert "structures: 4" in out
    lines = [ln.split() for ln in out.splitlines() if ln and ln[0].isdigit()]
    assert lines == [["0", "3"], ["1", "1"]]


@pytest.mark.parametrize("compare", [(), ("--compare",)])
def test_census_spin_sphere_matches_its_orbits(capsys, compare):
    # the sphere has exactly one spin structure, of Arf 0
    code, out, err = run_cli(capsys, "census", "-s", "S:0", "-t", "spin", *compare, "--format", "json")
    assert (code, err) == (0, "")
    record = OutputRecord.from_json(out)
    assert dict(record.meta)["structures"] == 1
    counts = {row[0]: row[1] for row in record.rows}
    assert counts == {0: 1, 1: 0}
    code, out, _ = run_cli(capsys, "orbits", "-s", "S:0", "-t", "spin", "--format", "json")
    assert code == 0
    assert {row[2]: row[1] for row in OutputRecord.from_json(out).rows} == {0: 1}


def test_census_pin_minus_klein_bottle_compare(capsys):
    code, out, _ = run_cli(
        capsys, "census", "-s", "N:2", "-t", "pin-", "--compare", "--format", "json"
    )
    assert code == 0
    record = OutputRecord.from_json(out)
    assert record.command == "census"
    assert dict(record.meta)["structures"] == 4
    by_invariant = {row[0]: row for row in record.rows}
    # invariant 0: enumerated 2, printed closed form 1 (disputed), corrected 2
    assert by_invariant[0][1:] == (2, 1, "DISPUTED", 2, 2, "CONJECTURED-CONFIRMED")
    assert by_invariant[2][1:] == (1, 1, "CONFIRMED", 1, None, None)
    assert by_invariant[6][1:] == (1, 1, "CONFIRMED", 1, None, None)


def test_census_spin_compare_confirmed(capsys):
    code, out, _ = run_cli(
        capsys, "census", "-s", "S:2", "-t", "spin", "--compare", "--format", "json"
    )
    assert code == 0
    record = OutputRecord.from_json(out)
    assert record.rows == ((0, 10, 10, "CONFIRMED"), (1, 6, 6, "CONFIRMED"))


def test_invariant_enhancement(capsys):
    code, out, _ = run_cli(capsys, "invariant", "-s", "N:2", "-e", "1,3")
    assert code == 0
    lines = dict(
        tuple(ln.split(None, 1)) for ln in out.splitlines() if ln.startswith(("beta", "histogram"))
    )
    assert lines["beta"] == "0"
    assert lines["histogram"] == "2,1,0,1"


def test_invariant_refinement(capsys):
    code, out, _ = run_cli(capsys, "invariant", "-s", "S:1", "-q", "1,1")
    assert code == 0
    assert any(ln.split() == ["arf", "1"] for ln in out.splitlines())


def test_invariant_theory_cross_check(capsys):
    code, _, err = run_cli(capsys, "invariant", "-s", "S:1", "-q", "1,1", "-t", "pin-")
    assert code == 2
    assert "does not match" in err


def test_orbits_three_crosscaps(capsys):
    code, out, _ = run_cli(capsys, "orbits", "-s", "N:3", "-t", "pin-", "--format", "json")
    assert code == 0
    record = OutputRecord.from_json(out)
    assert dict(record.meta)["group"] == "brute (order 6)"
    assert record.rows == ((1, 1, 3), (2, 3, 1), (3, 3, 7), (4, 1, 5))
    assert dict(record.summary)["level-sets"] == "PASS"


def test_orbits_genus_two_spin(capsys):
    code, out, _ = run_cli(capsys, "orbits", "-s", "S:2", "-t", "spin", "--format", "json")
    assert code == 0
    record = OutputRecord.from_json(out)
    assert dict(record.meta)["group"] == "brute (order 720)"
    assert record.rows == ((1, 10, 0), (2, 6, 1))


def test_orbits_generated_path(capsys):
    code, out, _ = run_cli(capsys, "orbits", "-s", "N:6", "-t", "pin-", "--format", "json")
    assert code == 0
    record = OutputRecord.from_json(out)
    assert dict(record.meta)["group"].startswith("generated")
    assert dict(record.summary)["level-sets"] == "PASS"
    assert sorted(row[1] for row in record.rows) == [12, 16, 16, 20]


# ``orbits --format json`` stdout for N:1-10 and S:1-5 (pin-, plus spin on S). Up to
# dimension 4 it is byte-identical to the output of the brute-force group; from 5 on
# only the generator count in the ``group`` line differs from the earlier generator set.
ORBITS_GOLDEN = Path(__file__).parent / "data" / "orbits_cli.json"


def test_orbits_output_matches_golden_file(capsys):
    golden = json.loads(ORBITS_GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 20
    for command, expected in golden.items():
        code, out, err = run_cli(capsys, *command.split())
        assert (code, err) == (0, "")
        assert out == expected, command


# (exit code, stdout, stderr) of ``census`` (with and without ``--compare``, both theories,
# N:1-8 and S:0-4) and ``invariant`` (-q and -e, with and without -t), plus the theory
# errors: spin on N:k, the check order at N:21 (census: size first, orbits: orientability
# first) and -q on N:k.  Captured before the commands read the theory table.
CENSUS_GOLDEN = Path(__file__).parent / "data" / "census_cli.json"


def test_census_and_invariant_output_matches_golden_file(capsys):
    golden = json.loads(CENSUS_GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 116
    for command, expected in golden.items():
        assert list(run_cli(capsys, *command.split())) == expected, command


def _theory_choices(command):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in subparsers.choices[command]._actions if a.dest == "theory")


@pytest.mark.parametrize("command", ["census", "orbits", "invariant"])
def test_theory_choices_are_the_table_names(capsys, command):
    assert tuple(_theory_choices(command)) == tuple(t.name for t in census.THEORIES) == ("spin", "pin-")
    values = ["-e", "1,1"] if command == "invariant" else []
    with pytest.raises(SystemExit) as excinfo:
        main([command, "-s", "N:2", "-t", "pin+", *values])
    assert excinfo.value.code == 2
    assert "invalid choice: 'pin+'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "surface,theory,expected",
    [("N:20", "pin-", pin_census_recursive(20)), ("S:10", "spin", spin_closed_form(10))],
)
def test_orbits_at_the_dimension_cap(capsys, surface, theory, expected):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "orbits", "-s", surface, "-t", theory, "--format", "json")
    elapsed = time.perf_counter() - start
    assert code == 0
    record = OutputRecord.from_json(out)
    assert dict(record.summary)["level-sets"] == "PASS"
    assert dict(record.meta)["group"].startswith("generated")
    assert {row[2]: row[1] for row in record.rows} == {i: c for i, c in expected.items() if c}
    assert elapsed < 10, f"{surface} {theory} took {elapsed:.1f} s"


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "forms-core")
    assert code == 0
    assert "PASS" in out
    assert "failed: 0" in out


def test_exit_codes_bad_input(capsys):
    assert run_cli(capsys, "census", "-s", "X:9", "-t", "pin-")[0] == 2
    assert run_cli(capsys, "census", "-s", "N:2", "-t", "spin")[0] == 2
    assert run_cli(capsys, "invariant", "-s", "N:2", "-e", "2,1")[0] == 2
    assert run_cli(capsys, "invariant", "-s", "N:2", "-e", "1")[0] == 2


@pytest.mark.parametrize("genus", ["\u00b2", "\u0663", "\uff13"])
def test_surface_genus_takes_ascii_digits_only(capsys, genus):
    # str.isdigit accepts a superscript two, an Arabic-Indic three and a fullwidth three
    code, out, err = run_cli(capsys, "census", "-s", f"N:{genus}", "-t", "pin-")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad surface spec 'N:{genus}'; expected S:<genus> or N:<genus>")
    with pytest.raises(ValueError, match="bad surface spec"):
        parse_surface(f"S:{genus}")


def test_exit_codes_size_limits(capsys):
    assert run_cli(capsys, "census", "-s", "N:22", "-t", "pin-")[0] == 3
    assert run_cli(capsys, "orbits", "-s", "N:21", "-t", "pin-")[0] == 3
    assert run_cli(capsys, "orbits", "-s", "S:11", "-t", "spin")[0] == 3


def test_exit_code_internal_consistency_failure(capsys, monkeypatch):
    # a broken Arf spectrum (every refinement Arf 0) makes the spin census disagree with its closed form
    monkeypatch.setattr(refinements, "arf_spectrum", lambda form: np.zeros(1 << form.dim, dtype=np.int64))
    code, out, err = run_cli(capsys, "census", "-s", "S:2", "-t", "spin")
    assert code == 1
    assert out == ""
    assert err.startswith("error: enumerated census")
    assert "Traceback" not in err


def test_exit_code_zero_gauss_sum(capsys, monkeypatch):
    # a nondegenerate pairing never gives a zero Gauss sum, so it is a defect, not bad input
    # (``invariant`` reads the normal form, so the Gauss sum is reached through the verify suite,
    # which reads whole batches of histograms)
    monkeypatch.setattr(enhancements, "value_histograms", lambda form, values: np.ones((len(values), 4), dtype=int))
    code, out, err = run_cli(capsys, "verify", "brown-compass")
    assert code == 1
    assert out == ""
    assert err.startswith("error: zero Gauss sum")
    assert "Traceback" not in err
    e = enhancements.Enhancement(parse_surface("N:2").form, (1, 3))
    with pytest.raises(InvariantViolation):
        enhancements.brown_compass(e)


def test_unwritable_out_file_is_an_input_error(capsys, tmp_path):
    target = tmp_path / "missing" / "verify.json"
    code, out, err = run_cli(capsys, "verify", "banding", "--format", "json", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err
    assert not target.parent.exists()


def test_verify_runs_a_repeated_suite_once(capsys):
    code, once, _ = run_cli(capsys, "verify", "banding", "--format", "json")
    code_twice, twice, _ = run_cli(capsys, "verify", "banding", "banding", "--format", "json")
    assert code == code_twice == 0
    assert OutputRecord.from_json(twice).rows == OutputRecord.from_json(once).rows
    assert dict(OutputRecord.from_json(twice).summary)["passed"] == 3


def test_exit_code_wrong_gauss_sum_magnitude(capsys, monkeypatch):
    # code 0's values all zero: its transform is 2**n at code 0 and 0 elsewhere, never of magnitude 2**(n/2)
    census._enumerated_items.cache_clear()
    monkeypatch.setattr(
        enhancements.Enhancement, "values_on_all", lambda e: np.zeros(1 << e.form.dim, dtype=np.uint8)
    )
    code, out, err = run_cli(capsys, "census", "-s", "N:3", "-t", "pin-")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "magnitude" in err
    assert "Traceback" not in err


def test_argparse_rejects_unknown_theory(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["census", "-s", "N:2", "-t", "pin+"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_output_deterministic(capsys, fmt):
    argv = ("census", "-s", "N:4", "-t", "pin-", "--compare", "--format", fmt)
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_console_script_deterministic(package_pythonpath):
    argv = [
        sys.executable, "-m", "pinforms.cli",
        "orbits", "-s", "N:3", "-t", "pin-", "--format", "csv",
    ]
    env = {**os.environ, "PYTHONPATH": package_pythonpath}
    first = subprocess.run(argv, capture_output=True, text=True, env=env)
    second = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.startswith("# command: orbits\n")


def test_json_round_trip(capsys):
    _, out, _ = run_cli(
        capsys, "census", "-s", "N:4", "-t", "pin-", "--compare", "--format", "json"
    )
    record = OutputRecord.from_json(out)
    assert record.to_json() == out
    # decoded payload keeps row order and null cells
    payload = json.loads(out)
    assert payload["columns"][0] == "invariant"


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "census.json"
    code, out, _ = run_cli(
        capsys,
        "census", "-s", "S:1", "-t", "spin", "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert target.read_text(encoding="utf-8") == out


def test_csv_format_shape(capsys):
    _, out, _ = run_cli(capsys, "census", "-s", "N:1", "-t", "pin-", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "# command: census"
    assert "invariant,count" in lines
    assert "1,1" in lines
    assert "7,1" in lines


def test_readme_names_only_existing_options():
    # every --option the README mentions must be one the parser accepts;
    # pip's --no-build-isolation is the only foreign one
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme)) - {"--no-build-isolation"}
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    known = {opt for p in (parser, *commands.values()) for action in p._actions for opt in action.option_strings}
    assert named, "the README names no options"
    assert named <= known, sorted(named - known)


def test_parser_is_built_once_and_lazily(package_pythonpath):
    assert build_parser() is build_parser()
    # importing the CLI module builds nothing; the first call does
    probe = "import pinforms.cli as c; print(c.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": package_pythonpath}
    child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert (child.returncode, child.stdout) == (0, "0\n")


def test_shared_parser_survives_a_bad_call(capsys):
    argv = ("census", "-s", "N:5", "-t", "pin-", "--compare", "--format", "json")
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    with pytest.raises(SystemExit) as raised:
        main(["census", "-s", "N:5", "-t", "pin+"])
    assert raised.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    assert second.encode() == first.encode()


@pytest.mark.parametrize("text", ["１,3", "١,3", "+1,3", " 1,3", "1, 3", "1,3 ", "-1,3", "1,,3", "1_0,3", "²,3"])
def test_parse_values_takes_ascii_digits_only(capsys, text):
    with pytest.raises(ValueError, match="bad value list"):
        parse_values(text)
    code, out, err = run_cli(capsys, "invariant", "-s", "N:2", f"--enhancement={text}")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad value list")
