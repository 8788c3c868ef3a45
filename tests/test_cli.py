import contextlib
import gc
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmrteleport import circuits, cli, experiment, tomography
from nmrteleport.errors import NumericalInvariantError
from nmrteleport.experiment import DEFAULT_DELAYS, SweepConfig, run_sweep
from nmrteleport.nmr import tce_model
from tests.helpers import child_env, count_eigvalsh, record_linalg_calls


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


MOLECULE_SPINS = """
molecule:
  spins:
    - {name: C2, larmor_hz: 125771669.0, t1: 25.0, t2: 0.3}
    - {name: C1, larmor_hz: %s, t1: 25.0, t2: 0.4}
    - {name: H, larmor_hz: 500133491.0, t1: 5.0, t2: 3.0}%s
  couplings:
    - {pair: [C1, H], j_hz: 201.0}%s
"""


def molecule_yaml(larmor_c1="125772580.0", extra_spin=False, c1_c2=True):
    """A TCE-like molecule section, with a fourth spin or without the C1-C2 coupling if asked."""
    extra = "\n    - {name: F, larmor_hz: 470000000.0, t1: 2.0, t2: 1.0}" if extra_spin else ""
    coupling = "\n    - {pair: [C1, C2], j_hz: 103.0}" if c1_c2 else ""
    return MOLECULE_SPINS % (larmor_c1, extra, coupling)


def test_compare_writes_expected_files_and_verdicts(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["compare", "--out", str(out)]) == 0
    header, rows = read_csv(out / "compare.csv")
    assert header == ["delay_s", "fe_teleport", "fe_control"]
    assert len(rows) == len(DEFAULT_DELAYS)
    summary = (out / "summary.txt").read_text()
    assert "verdict fe > 0.5 at smallest nonzero delay: yes" in summary
    assert "verdict control decays faster than teleport: yes" in summary
    assert "verdict teleport tau exceeds control tau by >3x: yes" in summary
    for delay, fe_teleport, fe_control in rows[1:]:
        assert fe_teleport >= fe_control


def test_teleport_no_noise_writes_unit_fidelity(tmp_path):
    out = tmp_path / "nn"
    code = cli.main(["teleport", "--no-noise", "--delays", "0,0.4,0.8,1.2", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "curve.csv")
    for _, fe in rows:
        assert fe == pytest.approx(1.0, abs=1e-9)


def test_control_single_delay_skips_fit(tmp_path):
    out = tmp_path / "single"
    assert cli.main(["control", "--delays", "0", "--out", str(out)]) == 0
    _, rows = read_csv(out / "curve.csv")
    assert rows == [[0.0, 1.0]]
    assert "fit: skipped" in (out / "summary.txt").read_text()


def test_teleport_summary_reports_quantum_verdict(tmp_path):
    out = tmp_path / "tp"
    assert cli.main(["teleport", "--delays", "0,0.2,0.5,0.9,1.2", "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "quantum transmission (fe > 0.5 at smallest nonzero delay): yes" in summary
    for name in ("curve.csv", "process_R.csv", "process_chi_re.csv", "process_chi_im.csv"):
        assert (out / name).exists()


def test_control_default_run_recovers_carbon_t2(tmp_path):
    out = tmp_path / "ctrl"
    assert cli.main(["control", "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    tau_line = [l for l in summary.splitlines() if l.strip().startswith("tau_s")][0]
    tau = float(tau_line.split("=")[1])
    assert abs(tau - 0.3) / 0.3 < 0.15
    floor_line = [l for l in summary.splitlines() if "dephasing floor" in l][0]
    assert float(floor_line.split(":")[1]) < 0.02


def test_compare_no_noise_gives_unit_columns(tmp_path):
    for engine in ("gate", "pulse"):
        out = tmp_path / f"flat-{engine}"
        args = ["compare", "--no-noise", "--delays", "0,0.3,0.6,0.9", "--engine", engine, "--out", str(out)]
        assert cli.main(args) == 0
        _, rows = read_csv(out / "compare.csv")
        for _, fe_teleport, fe_control in rows:
            assert fe_teleport == pytest.approx(1.0, abs=1e-9)
            assert fe_control == pytest.approx(1.0, abs=1e-9)
        # Flat curves leave tau unidentifiable, so the tau verdicts are not asserted.
        summary = (out / "summary.txt").read_text()
        assert "tau_identifiable = no" in summary
        assert "verdict fe > 0.5 at smallest nonzero delay: yes" in summary
        assert "verdict control decays faster than teleport: undetermined" in summary
        assert "verdict teleport tau exceeds control tau by >3x: undetermined" in summary


def test_curve_csv_round_trips_to_in_memory_values(tmp_path):
    out = tmp_path / "round"
    delays = "0,0.3,0.6,0.9"
    assert cli.main(["control", "--delays", delays, "--out", str(out)]) == 0
    _, rows = read_csv(out / "curve.csv")
    records = run_sweep(
        SweepConfig(tuple(float(d) for d in delays.split(",")), "control", tce_model())
    )
    for (delay, fe), record in zip(rows, records):
        assert delay == pytest.approx(record.delay, rel=1e-11, abs=1e-15)
        assert fe == pytest.approx(record.fe, rel=1e-11)


def test_engine_pulse_matches_gate_engine(tmp_path):
    gate_out = tmp_path / "gate"
    pulse_out = tmp_path / "pulse"
    delays = "0,0.3,0.8"
    assert cli.main(["teleport", "--delays", delays, "--engine", "gate", "--out", str(gate_out)]) == 0
    assert cli.main(["teleport", "--delays", delays, "--engine", "pulse", "--out", str(pulse_out)]) == 0
    _, gate_rows = read_csv(gate_out / "curve.csv")
    _, pulse_rows = read_csv(pulse_out / "curve.csv")
    for g, p in zip(gate_rows, pulse_rows):
        assert abs(g[1] - p[1]) < 1e-6


def test_tomo_builtin_channels(tmp_path):
    cases = [
        ("identity", 1.0),
        ("depolarizing(1)", 0.25),
        ("dephasing(inf,0.3)", 0.5),
        ("relaxation(0.3,25,0.3)", (1 + math.exp(-0.3 / 25) + 2 * math.exp(-1)) / 4),
        ("teleport(0)", 1.0),
    ]
    for i, (channel, expected) in enumerate(cases):
        out = tmp_path / f"tomo{i}"
        assert cli.main(["tomo", "--channel", channel, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        fe_line = [l for l in summary.splitlines() if l.startswith("entanglement_fidelity")][0]
        assert float(fe_line.split(":")[1]) == pytest.approx(expected, abs=1e-9)
        _, rows = read_csv(out / "process_R.csv")
        assert len(rows) == 4 and len(rows[0]) == 4


def test_tomo_rejects_unknown_and_malformed_channels(tmp_path, capsys):
    assert cli.main(["tomo", "--channel", "bogus(1)", "--out", str(tmp_path)]) == 2
    assert cli.main(["tomo", "--channel", "dephasing(1)", "--out", str(tmp_path)]) == 2
    assert cli.main(["tomo", "--channel", "depolarizing(2)", "--out", str(tmp_path)]) == 2
    assert cli.main(["tomo", "--channel", "dephasing(a,b)", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_bad_config_inputs_exit_2(tmp_path):
    bad_yaml = tmp_path / "bad.yaml"
    bad_yaml.write_text("experiment: [unbalanced")
    assert cli.main(["teleport", "--config", str(bad_yaml), "--out", str(tmp_path / "o")]) == 2
    assert cli.main(["teleport", "--config", str(tmp_path / "missing.yaml")]) == 2
    assert cli.main(["teleport", "--delays", "0,zebra"]) == 2
    assert cli.main(["teleport", "--delays", "0.5,0.1"]) == 2
    assert cli.main(["teleport", "--delays", ""]) == 2
    assert cli.main(["compare", "--delays", "0,0.5", "--out", str(tmp_path / "c")]) == 2
    listy = tmp_path / "list.yaml"
    listy.write_text("- 1\n- 2\n")
    assert cli.main(["teleport", "--config", str(listy)]) == 2


def test_nan_delays_exit_2_and_inf_delay_runs(tmp_path, capsys):
    for args in (
        ["teleport", "--delays", "nan"],
        ["teleport", "--delays", "0,nan,1"],
        ["compare", "--delays", "0,0.3,nan,0.9"],
        ["tomo", "--channel", "teleport(nan)"],
    ):
        assert cli.main(args + ["--out", str(tmp_path / "nan")]) == 2, args
        assert "error:" in capsys.readouterr().err
    assert cli.main(["teleport", "--delays", "0,0.5,inf", "--out", str(tmp_path / "inf")]) == 0
    _, rows = read_csv(tmp_path / "inf" / "curve.csv")
    assert rows[2][0] == math.inf


def test_nan_relaxation_times_and_rf_errors_exit_2(tmp_path, capsys):
    for value in (".nan", ".inf", "-.inf"):
        cfg = tmp_path / "rf.yaml"
        cfg.write_text(f"noise: {{rf_miscalibration: {value}}}\n")
        args = ["teleport", "--engine", "pulse", "--delays", "0,0.3", "--config", str(cfg)]
        assert cli.main(args + ["--out", str(tmp_path / "rf")]) == 2, value
        assert capsys.readouterr().err.startswith("error:")
    # Dephasing is relaxation with T1 = inf, so a bad T2 is blamed on t2 by RelaxationParams' own rule.
    for channel, blamed in (
        ("dephasing(0.3,nan)", "t2"),
        ("dephasing(0.3,0)", "t2"),
        ("relaxation(0.3,nan,0.2)", "t1"),
        ("relaxation(0.3,2,nan)", "t2"),
    ):
        assert cli.main(["tomo", "--channel", channel, "--out", str(tmp_path / "t")]) == 2, channel
        assert capsys.readouterr().err.startswith(f"error: invalid channel parameters: {blamed} must be positive")


def test_a_bad_tomo_duration_is_refused_by_the_delay_grid_rule(tmp_path):
    # A relaxation channel's duration is a grid of one delay, checked by the grid rule alone.
    for channel, grid in (("dephasing(-1,0.3)", "(-1.0,)"), ("relaxation(nan,5,3)", "(nan,)")):
        out = tmp_path / "refused"
        message = f"error: invalid channel parameters: delays must be nonnegative seconds or inf, got {grid}\n"
        assert run_cli(["tomo", "--channel", channel, "--out", str(out)]) == (cli.EXIT_CONFIG, message)
        assert not out.exists()


def test_config_noise_switches_must_be_booleans(tmp_path, capsys):
    for body in ('noise: {t1: "false", t2: "false"}\n', "noise: {t2: 0}\n", "noise: {t1: null}\n"):
        cfg = tmp_path / "switches.yaml"
        cfg.write_text(body)
        assert cli.main(["control", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2, body
        err = capsys.readouterr().err
        assert err.startswith("error: noise.t") and err.count("\n") == 1
    cfg.write_text("noise: {t1: false, t2: false}\n")
    assert cli.main(["control", "--config", str(cfg), "--delays", "0,1.2", "--out", str(tmp_path / "b")]) == 0
    _, rows = read_csv(tmp_path / "b" / "curve.csv")
    assert rows[-1][1] == pytest.approx(1.0, abs=1e-9)


def test_cli_import_loads_neither_scipy_nor_yaml():
    code = "import sys, nmrteleport.cli; print(sorted({'scipy', 'yaml'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_module_run_with_a_nan_delay_exits_2_with_one_error_line(tmp_path):
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "nmrteleport", "teleport", "--delays", "0,nan", "--out", str(out)],
        env=child_env(), capture_output=True, text=True,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error: invalid delay list: ") and result.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, blocked", [("compare", "compare.csv"), ("teleport", "summary.txt")])
def test_module_run_that_cannot_write_an_output_exits_2_with_one_error_line(command, blocked, tmp_path):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)  # a directory where the output file goes
    result = subprocess.run(
        [sys.executable, "-m", "nmrteleport", command, "--delays", "0,0.3,0.6,0.9", "--out", str(out)],
        env=child_env(), capture_output=True, text=True,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith(f"error: cannot write {out / blocked}: ") and result.stderr.count("\n") == 1
    assert [path.name for path in out.iterdir()] == [blocked]  # no other file of the set, no temporary


def snapshot(out):
    """Name -> bytes of every file in ``out``."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir()) if path.is_file()}


def test_rerun_replaces_each_output_file_without_following_a_symlink(tmp_path):
    out, elsewhere = tmp_path / "out", tmp_path / "elsewhere.txt"
    args = ["teleport", "--delays", "0,0.3,0.6,0.9", "--out", str(out)]
    assert cli.main(args) == 0
    first = snapshot(out)
    elsewhere.write_text("not an output\n")
    (out / "summary.txt").unlink()
    (out / "summary.txt").symlink_to(elsewhere)
    inodes = {name: (out / name).stat().st_ino for name in first if name != "summary.txt"}
    assert cli.main(args) == 0
    assert snapshot(out) == first and sorted(path.name for path in out.iterdir()) == sorted(first)
    assert all((out / name).stat().st_ino != inode for name, inode in inodes.items())  # new files, not rewritten ones
    assert not (out / "summary.txt").is_symlink() and elsewhere.read_text() == "not an output\n"


@pytest.mark.parametrize("failure", ["second write", "directory at summary.txt"])
def test_failed_rerun_leaves_the_previous_output_set_intact(failure, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert cli.main(["teleport", "--delays", "0,0.3,0.6,0.9", "--out", str(out)]) == 0
    previous = snapshot(out)
    if failure == "second write":
        real, calls = Path.write_text, []

        def write_text(path, *args, **kwargs):
            calls.append(path)
            if len(calls) == 2:
                raise OSError(28, "No space left on device", str(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", write_text)
    else:
        (out / "summary.txt").unlink()
        (out / "summary.txt").mkdir()
        del previous["summary.txt"]
    capsys.readouterr()
    assert cli.main(["teleport", "--delays", "0,0.2,0.4", "--out", str(out)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: cannot write {out}/") and captured.err.count("\n") == 1
    assert snapshot(out) == previous and not list(out.glob("*.tmp"))


def test_entry_runs_main_with_the_imports_frozen_and_exits_with_its_code():
    # main runs with the collector enabled again; the atexit handler runs after
    # sys.exit, as at any exit of the script.
    code = """
import atexit, gc
import nmrteleport.__main__ as script
script.main = lambda: print(gc.isenabled(), gc.get_freeze_count() > 0) or 3
atexit.register(lambda: print("atexit"))
script.entry()
"""
    result = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (3, "True True\natexit\n", "")


@pytest.mark.parametrize("args, code", [(["--help"], 0), (["teleport", "--engine", "bogus"], 2)])
def test_entry_freezes_the_collector_when_argparse_exits(args, code, tmp_path, monkeypatch, capsys):
    # --help and a rejected option leave main by SystemExit, before it returns.
    probe = tmp_path / "frozen"
    child = f"""
import atexit, gc, sys
import nmrteleport.__main__ as script
atexit.register(lambda: open({str(probe)!r}, "w").write(str(gc.get_freeze_count() > 0)))
sys.argv = ["nmrteleport", *{args!r}]
script.entry()
"""
    env = {**child_env(), "COLUMNS": "80"}
    result = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True)
    assert probe.read_text() == "True"
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        cli.main(args)
    usage = capsys.readouterr()
    assert (result.returncode, result.stdout, result.stderr) == (code, usage.out, usage.err)
    assert info.value.code == code and "usage: nmrteleport" in usage.out + usage.err


def test_a_clean_30_delay_pulse_compare_calls_no_eigvalsh(tmp_path, monkeypatch):
    # Every state and chi check of the sweep is certified by Cholesky.
    delays = ",".join(repr(float(d)) for d in np.linspace(0.0, 1.2, 30))
    calls = count_eigvalsh(monkeypatch)
    assert cli.main(["compare", "--engine", "pulse", "--delays", delays, "--out", str(tmp_path)]) == 0
    assert len(calls) == 0


def test_a_clean_compare_calls_lapack_only_to_certify(tmp_path, monkeypatch):
    # The tomography inverses are exact and built on this call too; the pulse
    # compiler takes its 2x2 determinants and the decay fit its (A, C) in
    # closed form.
    tomography._canonical_inputs.cache_clear()
    tomography._transfer_from_chi.cache_clear()
    calls = record_linalg_calls(monkeypatch)
    for engine in ("gate", "pulse"):
        assert cli.main(["compare", "--engine", engine, "--out", str(tmp_path / engine)]) == 0
    assert set(calls) == {"cholesky"}


def test_library_main_leaves_the_collector_alone(tmp_path, monkeypatch):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert cli.main(["tomo", "--channel", "identity", "--out", str(tmp_path)]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)

    # Nor stdout: the error of an echo to a closed stdout reaches the caller.
    class ClosedStdout:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return 1

    dup2_calls = []
    monkeypatch.setattr(os, "dup2", lambda *args: dup2_calls.append(args))
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    with pytest.raises(BrokenPipeError):
        cli.main(["tomo", "--channel", "identity", "--out", str(tmp_path / "piped")])
    assert dup2_calls == [] and (tmp_path / "piped" / "summary.txt").is_file()


def test_closed_stdout_exits_0_with_every_file_written(tmp_path):
    # Like `nmrteleport tomo ... | head -0`: the reader of stdout is gone before the echo.
    # Buffered stdout, as by default, would fail only at the flush on shutdown.
    env = {key: value for key, value in child_env().items() if key != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    args = ["tomo", "--channel", "identity", "--out"]
    try:
        result = subprocess.run(
            [sys.executable, "-m", "nmrteleport", *args, str(tmp_path / "piped")],
            env=env, stdout=write_end, stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 0 and result.stderr == b""
    assert cli.main([*args, str(tmp_path / "direct")]) == 0
    written = sorted(path.name for path in (tmp_path / "direct").iterdir())
    assert written == sorted(path.name for path in (tmp_path / "piped").iterdir())
    for name in written:
        assert (tmp_path / "piped" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stderr_exits_2_with_no_output_directory(tmp_path, unbuffered):
    # Like `nmrteleport teleport --delays 0,nan 2>&1 | head -0`: the reader of stderr is
    # gone before the error report.  The report fails at its print, and buffered, as by
    # default, again at the flush on shutdown; the exit code must still say why.
    env = {key: value for key, value in child_env().items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = tmp_path / "refused"
    try:
        result = subprocess.run(
            [sys.executable, "-m", "nmrteleport", "teleport", "--delays", "0,nan", "--out", str(out)],
            env=env, stdout=subprocess.PIPE, stderr=write_end,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stdout) == (cli.EXIT_CONFIG, b"")
    assert not out.exists()


@pytest.mark.parametrize("args", [["--help"], ["compare", "--help"]])
def test_closed_stdout_exits_0_on_help(args):
    # argparse leaves the help in stdout's buffer and exits; the flush after it finds
    # the reader gone.  Unbuffered stdout fails at argparse's write, which swallows it.
    env = {key: value for key, value in child_env().items() if key != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "nmrteleport", *args], env=env, stdout=write_end, stderr=subprocess.PIPE
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, b"")


def test_tomo_takes_no_delays(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        cli.main(["tomo", "--channel", "teleport(0.5)", "--delays", "0,1,2", "--out", str(out)])
    assert info.value.code == 2
    assert "unrecognized arguments: --delays" in capsys.readouterr().err
    assert not out.exists()


def test_rf_error_too_large_for_the_pulse_angles_exits_2(tmp_path):
    # pi * (1 + 1e308) overflows: no rf rotation has that angle, so the pulse
    # engine cannot run; the gate engine ignores the knob.
    cfg = tmp_path / "rf.yaml"
    cfg.write_text("noise: {rf_miscalibration: 1.0e308}\n")
    for command in (["compare"], ["tomo", "--channel", "teleport(0.5)"]):
        out = tmp_path / f"pulse-{command[0]}"
        code, err = run_cli([*command, "--engine", "pulse", "--config", str(cfg), "--out", str(out)])
        assert code == cli.EXIT_CONFIG, (command, err)
        assert err.startswith("error: the pulse engine cannot run teleport") and err.count("\n") == 1
        assert "is not finite" in err and not out.exists()
    code, err = run_cli(["compare", "--engine", "gate", "--config", str(cfg), "--out", str(tmp_path / "gate")])
    assert code == cli.EXIT_OK, err


def test_tomo_ignores_the_config_delays(tmp_path):
    # A tomo process names its own delay, so the file's delay grid is neither read nor checked.
    for body in ("experiment: {delays: [1, 0]}\n", "experiment: {delays: quick}\n"):
        cfg = tmp_path / "delays.yaml"
        cfg.write_text(body)
        for channel in ("identity", "teleport(0.5)"):
            plain, configured = tmp_path / "plain", tmp_path / "configured"
            assert cli.main(["tomo", "--channel", channel, "--out", str(plain)]) == cli.EXIT_OK
            code, err = run_cli(["tomo", "--channel", channel, "--config", str(cfg), "--out", str(configured)])
            assert code == cli.EXIT_OK, (body, channel, err)
            for path in plain.iterdir():
                assert (configured / path.name).read_bytes() == path.read_bytes(), path.name


def test_rf_error_that_overflows_an_angle_is_blamed_on_the_noise_section(tmp_path):
    cfg = tmp_path / "rf.yaml"
    cfg.write_text("noise: {rf_miscalibration: 1.0e308}\n")
    cases = ((["teleport"], "teleport"), (["compare"], "teleport"), (["tomo", "--channel", "control(0.5)"], "control"))
    for command, kind in cases:
        out = tmp_path / command[0]
        code, err = run_cli([*command, "--engine", "pulse", "--config", str(cfg), "--out", str(out)])
        assert code == cli.EXIT_CONFIG, (command, err)
        assert err.startswith(f"error: the pulse engine cannot run {kind} with this noise.rf_miscalibration: rf angle")
        assert err.endswith("scaled by 1 + 1e+308 is not finite\n") and "molecule" not in err
        assert not out.exists()


def test_missing_coupling_is_blamed_on_the_molecule(tmp_path):
    cfg = tmp_path / "uncoupled.yaml"
    cfg.write_text(molecule_yaml(c1_c2=False))
    for command in (["teleport"], ["compare"], ["tomo", "--channel", "teleport(0.5)"]):
        out = tmp_path / command[0]
        code, err = run_cli([*command, "--engine", "pulse", "--config", str(cfg), "--out", str(out)])
        assert code == cli.EXIT_CONFIG, (command, err)
        assert err == (
            "error: the pulse engine cannot run teleport on this molecule: "
            "no active J coupling between C2 and C1; two-spin gates need one\n"
        )
        assert not out.exists()


def test_pulse_compare_builds_each_sweep_circuit_once(tmp_path, monkeypatch, fresh_delay_noise):
    # Each sweep builds its circuit once: nothing builds it again to check it before
    # writing.  The control sweep reuses the teleport sweep's relaxation channels.
    calls = Counter()
    targets = ((experiment, "teleport_circuit"), (experiment, "control_circuit"), (circuits, "relaxation_channels"))
    for module, name in targets:
        real = getattr(module, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert cli.main(["compare", "--engine", "pulse", "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert calls == {"teleport_circuit": 1, "control_circuit": 1, "relaxation_channels": 3}


# A YAML boolean where a config number belongs (float() would take true as 1),
# and the section its error names.
BOOLEAN_NUMBERS = {
    "noise: {rf_miscalibration: true}\n": "noise section",
    "experiment: {delays: [0, true, 2, 3]}\n": "delay list",
    "molecule: {carbon_t1: true}\n": "molecule section",
    molecule_yaml(larmor_c1="true"): "molecule section",
    molecule_yaml().replace("t1: 5.0", "t1: yes"): "molecule section",
    molecule_yaml().replace("t2: 0.4", "t2: off"): "molecule section",
    molecule_yaml().replace("j_hz: 201.0", "j_hz: false"): "molecule section",
}


def test_hostile_config_sections_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a run that got through would write ./results
    huge = "1" + "0" * 399  # a YAML integer too large for a float
    for body in (
        "experiment: null\nnoise: 7\n",
        "experiment: fast\n",
        "experiment:\n  delays: quick\n",
        "experiment:\n  delays: [0, [1]]\n",
        "noise:\n  rf_miscalibration: wobbly\n",
        "experiment:\n  engine: analog\n",
        "molecule:\n  carbon_t1: -3\n",
        molecule_yaml(larmor_c1=".inf"),
        molecule_yaml(larmor_c1=".nan"),
        molecule_yaml().replace("j_hz: 201.0", "j_hz: .inf"),
        molecule_yaml().replace("pair: [C1, H]", "pair: [C2]"),
        molecule_yaml().replace("pair: [C1, H]", "pair: [C1, H, C2]"),
        f"experiment:\n  delays: [0, {huge}]\n",
        f"noise:\n  rf_miscalibration: {huge}\n",
        f"molecule:\n  carbon_t1: {huge}\n",
        molecule_yaml(larmor_c1=huge),
        molecule_yaml().replace("j_hz: 201.0", f"j_hz: {huge}"),
        'output: {dir: "a\\0b"}\n',
        "output: {dir: ''}\n",  # would write into the working directory
        "experiment:\n  delays: " + "[" * 3000 + "]" * 3000 + "\n",  # too deep for the parser
        "experiment:\n  delays: " + "[" * 100_000 + "]" * 100_000 + "\n",  # libyaml's C parser crashes on this
        b"experiment:\n  engine: \xff\xfe\n",  # not UTF-8
        *BOOLEAN_NUMBERS,
    ):
        cfg = tmp_path / "hostile.yaml"
        cfg.write_bytes(body if isinstance(body, bytes) else body.encode())
        capsys.readouterr()
        assert cli.main(["control", "--config", str(cfg)]) == 2, body
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (body, err)
        assert [p.name for p in tmp_path.iterdir()] == ["hostile.yaml"], body
    cfg.write_text("output: {dir: from_config}\n")
    assert cli.main(["control", "--config", str(cfg), "--out", ""]) == 2  # not the config's directory
    assert capsys.readouterr().err == "error: output.dir must be a path string, got ''\n"
    assert [p.name for p in tmp_path.iterdir()] == ["hostile.yaml"]
    for body, section in BOOLEAN_NUMBERS.items():
        cfg.write_text(body)
        assert cli.main(["control", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid {section}: expected a number, got "), body
    nulls = tmp_path / "nulls.yaml"
    nulls.write_text("experiment: null\nnoise: null\nmolecule: null\noutput: null\n")
    assert cli.main(["control", "--config", str(nulls), "--delays", "0,0.1", "--out", str(tmp_path / "n")]) == 0
    quoted = tmp_path / "quoted.yaml"  # a quoted number is still read as one
    quoted.write_text('experiment: {delays: ["0", "0.1"]}\nnoise: {rf_miscalibration: "0"}\nmolecule: {carbon_t1: "25"}\n')
    assert cli.main(["control", "--config", str(quoted), "--out", str(tmp_path / "q")]) == 0


def test_a_bad_delay_flag_and_a_bad_carbon_t1_are_reported_by_the_rules_that_reject_them(tmp_path):
    # The delay list rule reads each flag entry, and RelaxationParams checks the carbon T1:
    # neither has a check of its own in front of it.
    cfg = tmp_path / "carbon.yaml"
    cfg.write_text("molecule:\n  carbon_t1: -3\n")
    for args, expected in (
        (["--delays", "0,zebra"], "error: invalid delay list: could not convert string to float: 'zebra'\n"),
        (["--config", str(cfg)], "error: invalid molecule section: t1 must be positive, got -3.0\n"),
    ):
        assert run_cli(["teleport", *args, "--out", str(tmp_path / "out")]) == (cli.EXIT_CONFIG, expected)
        assert not (tmp_path / "out").exists()


# A config, or none, and the one error line of the rule it trips.
RULE_MESSAGES = (
    (["tomo", "--channel", "depolarizing(1.5)"], None, "invalid channel parameters: probability must be in [0, 1], got 1.5"),
    (["tomo", "--channel", "depolarizing(-0.1)"], None, "invalid channel parameters: probability must be in [0, 1], got -0.1"),
    (["teleport"], molecule_yaml().replace("name: C2", 'name: ""'), "invalid molecule section: spin needs a name"),
    (
        ["teleport"],
        molecule_yaml().replace("pair: [C1, H]", "pair: [C1, H, C2]"),
        "invalid molecule section: a coupling pair must name two spins, got ['C1', 'H', 'C2']",
    ),
    # A string of digits is not read as the grid 0, 1, 2, 3.
    (["teleport"], 'experiment:\n  delays: "0123"\n', "experiment.delays must be a list of seconds"),
    # A pair given as a string is not split into characters: with spins C, D and H, "DH" is not the pair [D, H].
    (
        ["teleport", "--engine", "pulse"],
        molecule_yaml().replace("name: C2,", "name: C,").replace("name: C1,", "name: D,").replace("[C1, H]", "DH").replace("[C1, C2]", "CD"),
        "invalid molecule section: a coupling pair must name two spins, got 'DH'",
    ),
    # Spins or couplings that are not a list of mappings are refused by their path before
    # any value is read: the bad rf miscalibration beside the first is never reached.
    (
        ["teleport"],
        "molecule: {spins: [C2, C1, H]}\nnoise: {rf_miscalibration: wobbly}\n",
        "molecule.spins[0] must be a mapping, got 'C2'",
    ),
    (["teleport"], "molecule: {spins: {name: C2}}\n", "molecule.spins must be a list of mappings, got {'name': 'C2'}"),
    (
        ["teleport"],
        molecule_yaml().split("  couplings:")[0] + "  couplings: 5\n",
        "molecule.couplings must be a list of mappings, got 5",
    ),
    (
        ["teleport"],
        molecule_yaml().replace("{pair: [C1, C2], j_hz: 103.0}", "[C1, C2]"),
        "molecule.couplings[1] must be a mapping, got ['C1', 'C2']",
    ),
    # A spin name that YAML reads as a number or a boolean is refused, with the value, on
    # either engine, before a coupling that names it puts the pair's names in order.
    *(
        (
            ["teleport", "--engine", engine],
            molecule_yaml().replace("C1", name),
            f"invalid molecule section: spin name must be a string, got {shown}",
        )
        for engine in ("gate", "pulse")
        for name, shown in (("5", "5"), ("true", "True"))
    ),
)


@pytest.mark.parametrize("args, config, message", RULE_MESSAGES)
def test_each_input_rule_reached_from_the_command_line_exits_2_with_its_message(args, config, message, tmp_path):
    if config is not None:
        (tmp_path / "config.yaml").write_text(config)
        args = [*args, "--config", str(tmp_path / "config.yaml")]
    assert run_cli([*args, "--out", str(tmp_path / "out")]) == (cli.EXIT_CONFIG, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_rf_miscalibration_knob_flows_into_pulse_engine(tmp_path):
    cfg = tmp_path / "rf.yaml"
    cfg.write_text("noise:\n  rf_miscalibration: 0.1\n")
    out_skewed = tmp_path / "skewed"
    out_clean = tmp_path / "clean"
    args = ["teleport", "--engine", "pulse", "--delays", "0,0.2"]
    assert cli.main(args + ["--config", str(cfg), "--out", str(out_skewed)]) == 0
    assert cli.main(args + ["--out", str(out_clean)]) == 0
    _, skewed = read_csv(out_skewed / "curve.csv")
    _, clean = read_csv(out_clean / "curve.csv")
    assert skewed[0][1] < clean[0][1] - 1e-4  # miscalibrated pulses cost fidelity
    # The knob has no effect on the gate engine.
    out_gate = tmp_path / "gate"
    assert cli.main(["teleport", "--engine", "gate", "--delays", "0,0.2", "--config", str(cfg), "--out", str(out_gate)]) == 0
    _, gate_rows = read_csv(out_gate / "curve.csv")
    assert gate_rows[0][1] == pytest.approx(1.0, abs=1e-9)


# A config with a key that its mapping does not take, and the rest of its one error
# line after "unexpected config key ".  A bad value beside it is never read.
UNEXPECTED_KEYS = (
    pytest.param("bogus: 1\n", "bogus: a config file takes molecule, experiment, noise, output", id="file"),
    pytest.param(
        "experiment: {delay: [0, 0.5, 1.0, 1.5], engin: pulse}\n",
        "experiment.delay: experiment takes delays, engine",
        id="experiment",
    ),
    pytest.param(
        "noise: {rf_miscalibration: .nan, rf_miscalibraton: 0.3}\n",
        "noise.rf_miscalibraton: noise takes t1, t2, rf_miscalibration",
        id="noise",
    ),
    pytest.param("output: {dir: 5, directory: o}\n", "output.directory: output takes dir", id="output"),
    pytest.param("molecule: {carbon_T1: 20}\n", "molecule.carbon_T1: the built-in molecule takes carbon_t1", id="molecule"),
    pytest.param(
        molecule_yaml(larmor_c1=".inf").replace("t2: 0.4}", "t2: 0.4, t2_star: 0.1}"),
        "molecule.spins[1].t2_star: a spin takes name, larmor_hz, t1, t2",
        id="spin",
    ),
    pytest.param(
        molecule_yaml().replace("{pair: [C1, C2], j_hz: 103.0}", "{pair: [C1, C2], j: 103.0}"),
        "molecule.couplings[1].j: a coupling takes pair, j_hz",
        id="coupling",
    ),
    # Every coupling a molecule lists is active; "active" named a subset of them.
    pytest.param(
        molecule_yaml() + "  active: [[H, C1], [C2, C1]]\n",
        "molecule.active: a molecule with spins takes spins, couplings",
        id="active",
    ),
    pytest.param(
        molecule_yaml() + "  carbon_t1: 20.0\n",
        "molecule.carbon_t1: a molecule with spins takes spins, couplings",
        id="carbon_t1-beside-spins",
    ),
    pytest.param(
        "molecule:\n  couplings:\n    - {pair: [C1, H], j_hz: 201.0}\n",
        "molecule.couplings: the built-in molecule takes carbon_t1",
        id="couplings-without-spins",
    ),
)


@pytest.mark.parametrize("config, message", UNEXPECTED_KEYS)
def test_a_key_the_schema_does_not_list_exits_2_naming_its_path(config, message, tmp_path):
    (tmp_path / "config.yaml").write_text(config)
    out = tmp_path / "out"
    # A flag overrides a key's value; it does not excuse a misspelled key.
    flags = ["--delays", "0,0.3,0.6,0.9", "--no-noise", "--out", str(out)]
    for engine in ("gate", "pulse"):
        code, err = run_cli(["compare", "--engine", engine, "--config", str(tmp_path / "config.yaml"), *flags])
        assert (code, err) == (cli.EXIT_CONFIG, f"error: unexpected config key {message}\n")
        assert not out.exists()


def test_numerical_violations_exit_3(tmp_path, monkeypatch):
    def explode(config):
        raise NumericalInvariantError("synthetic violation")

    monkeypatch.setattr(cli, "run_sweep", explode)
    assert cli.main(["control", "--delays", "0,0.1", "--out", str(tmp_path / "x")]) == 3
    assert not (tmp_path / "x").exists()  # the output directory is made only for a finished run


def test_config_file_sets_delays_and_flags_override(tmp_path):
    config = tmp_path / "cfg.yaml"
    config.write_text(
        "experiment:\n  delays: [0.0, 0.5]\nnoise:\n  t2: false\noutput:\n  dir: "
        + str(tmp_path / "from_config")
        + "\n"
    )
    assert cli.main(["control", "--config", str(config)]) == 0
    _, rows = read_csv(tmp_path / "from_config" / "curve.csv")
    assert [r[0] for r in rows] == [0.0, 0.5]
    # With T2 disabled the 0.5 s fidelity stays near 1 (T1 only).
    assert rows[1][1] > 0.98

    override_out = tmp_path / "override"
    assert cli.main(
        ["control", "--config", str(config), "--delays", "0,0.25", "--out", str(override_out)]
    ) == 0
    _, rows = read_csv(override_out / "curve.csv")
    assert [r[0] for r in rows] == [0.0, 0.25]


def test_custom_molecule_config(tmp_path):
    config = tmp_path / "molecule.yaml"
    config.write_text(
        """
molecule:
  spins:
    - {name: C2, larmor_hz: 125771669.0, t1: 20.0, t2: 0.25}
    - {name: C1, larmor_hz: 125772580.0, t1: 20.0, t2: 0.4}
    - {name: H, larmor_hz: 500133491.0, t1: 5.0, t2: 3.0}
  couplings:
    - {pair: [C1, H], j_hz: 201.0}
    - {pair: [C1, C2], j_hz: 103.0}
experiment:
  delays: [0.0, 0.25]
"""
    )
    out = tmp_path / "custom"
    assert cli.main(["control", "--config", str(config), "--out", str(out)]) == 0
    _, rows = read_csv(out / "curve.csv")
    expected = (1 + math.exp(-0.25 / 20.0) + 2 * math.exp(-1.0)) / 4.0
    assert rows[1][1] == pytest.approx(expected, abs=1e-9)


def test_reruns_produce_byte_identical_files(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    args = ["compare", "--delays", "0,0.3,0.6,0.9,1.2"]
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    for name in ("compare.csv", "summary.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_csv_values_use_twelve_significant_digits(tmp_path):
    out = tmp_path / "digits"
    assert cli.main(["control", "--delays", "0,0.7", "--out", str(out)]) == 0
    lines = (out / "curve.csv").read_text().splitlines()
    fe_text = lines[2].split(",")[1]
    assert len(fe_text.replace(".", "").replace("-", "").lstrip("0")) <= 12
    assert float(fe_text) == pytest.approx(
        run_sweep(SweepConfig((0.0, 0.7), "control", tce_model()))[1].fe, rel=1e-11
    )


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(("teleport", "control", "compare")),
    st.lists(st.sampled_from((0.0, 0.3, 0.7, 1.2, math.inf, math.nan, -0.5, -math.inf)), min_size=1, max_size=6),
)
def test_any_delay_list_exits_0_with_valid_csv_or_2(command, delays):
    text = ",".join(str(d) for d in delays)
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, f"--delays={text}", "--out", tmp])
        if code == cli.EXIT_CONFIG:
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
            return
        assert code == cli.EXIT_OK, err.getvalue()
        header, rows = read_csv(Path(tmp) / ("compare.csv" if command == "compare" else "curve.csv"))
    assert [row[0] for row in rows] == delays
    for row in rows:
        assert all(0.0 <= fe <= 1.0 for fe in row[1:]), (header, row)


def run_cli(args):
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, err.getvalue()


def test_register_size_and_output_path_exit_2_before_writing(tmp_path, monkeypatch):
    cfg = tmp_path / "four.yaml"
    cfg.write_text(molecule_yaml(extra_spin=True))
    for engine in ("gate", "pulse"):
        for command in (["compare"], ["teleport"], ["control"], ["tomo", "--channel", "teleport(0.5)"]):
            out = tmp_path / f"out-{engine}-{command[0]}"
            code, err = run_cli([*command, "--engine", engine, "--config", str(cfg), "--out", str(out)])
            assert code == cli.EXIT_CONFIG, (engine, command, err)
            assert err.startswith("error:") and err.count("\n") == 1 and "three-spin" in err
            assert not out.exists()
    cfg.write_text("output: {dir: 5}\n")
    monkeypatch.chdir(tmp_path)
    code, err = run_cli(["compare", "--config", str(cfg)])
    assert code == cli.EXIT_CONFIG and err == "error: output.dir must be a path string, got 5\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_pulse_engine_rejects_an_uncompilable_molecule(tmp_path):
    cfg = tmp_path / "uncoupled.yaml"
    cfg.write_text(molecule_yaml(c1_c2=False))
    for command in (["compare"], ["teleport"], ["tomo", "--channel", "teleport(0.5)"]):
        out = tmp_path / f"pulse-{command[0]}"
        code, err = run_cli([*command, "--engine", "pulse", "--config", str(cfg), "--out", str(out)])
        assert code == cli.EXIT_CONFIG, (command, err)
        assert err.startswith("error:") and err.count("\n") == 1
        assert "no active J coupling between C2 and C1" in err
        assert not out.exists()
    # The gate engine needs no coupling, and the control circuit's pulses need only C1-H.
    for args in (["compare", "--engine", "gate"], ["control", "--engine", "pulse"]):
        code, err = run_cli([*args, "--config", str(cfg), "--out", str(tmp_path / args[0])])
        assert code == cli.EXIT_OK, (args, err)
    # A subnormal J passes the molecule's checks, but its 1/(2J) CNOT interval overflows.
    cfg.write_text(molecule_yaml().replace("j_hz: 201.0", "j_hz: 1.0e-310"))
    for command in (["compare"], ["teleport"], ["control"], ["tomo", "--channel", "teleport(0.1)"]):
        out = tmp_path / f"subnormal-{command[0]}"
        code, err = run_cli([*command, "--engine", "pulse", "--config", str(cfg), "--out", str(out)])
        assert code == cli.EXIT_CONFIG, (command, err)
        assert err.startswith("error: the pulse engine cannot run ") and err.count("\n") == 1
        assert "on this molecule: the J coupling of 1e-310 Hz between C1 and H" in err
        assert not out.exists()


HOSTILE_NUMBERS = (0.0, -1.0, math.nan, math.inf, 1e-300, 1e300, 5e-324)
SPIN_NAMES = ("C2", "C1", "H", "F")


def sound_or(sound, hostile):
    """A sound value or a hostile one, each half the time."""
    return st.one_of(st.sampled_from(sound), st.sampled_from(hostile))


@st.composite
def spin_molecules(draw):
    """2-4 TCE-like spins with any couplings among them, to an unknown spin or
    naming one spin only, and half the time one Larmor frequency or J coupling
    set to a hostile number."""
    names = SPIN_NAMES[: draw(st.sampled_from((3, 2, 4)))]
    spins = [{"name": n, "larmor_hz": 125_772_580.0, "t1": 25.0, "t2": 0.4} for n in names]
    pairs = [[a, b] for i, a in enumerate(names) for b in names[i + 1 :]] + [["C1", "X"], ["C1"]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique_by=tuple, max_size=len(pairs)))
    couplings = [{"pair": pair, "j_hz": 103.0} for pair in chosen]
    if draw(st.booleans()):
        entry, key = draw(st.sampled_from([(s, "larmor_hz") for s in spins] + [(c, "j_hz") for c in couplings]))
        entry[key] = draw(st.sampled_from(HOSTILE_NUMBERS))
    return {"spins": spins, "couplings": couplings}


SECTIONS = {
    "molecule": st.one_of(spin_molecules(), st.fixed_dictionaries({"carbon_t1": sound_or((25.0,), ("warm", *HOSTILE_NUMBERS))})),
    "experiment": st.fixed_dictionaries(
        {}, optional={"delays": sound_or(([0.0, 0.3, 0.6, 0.9],), ("quick", [0.0, 0.3], [0.3, 0.0, 1.0, 2.0]))}
    ),
    "noise": st.fixed_dictionaries(
        {},
        optional={
            "t1": sound_or((True, False), ("false", 0)),
            "t2": sound_or((True, False), ("true", None)),
            "rf_miscalibration": sound_or((0.0, 0.1), ("wobbly", math.nan, 1e308)),
        },
    ),
    "output": st.fixed_dictionaries({"dir": st.sampled_from((5, "ignored-under-out"))}),
}


# Keys that no mapping of a config file takes.
MISSPELLED = ("delay", "rf_miscalibraton", "directory", "carbon_T1", "larmor", "active")


def mappings_in(node):
    """Every mapping of a config document: the document itself, its sections and their entries."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    for child in node if isinstance(node, list) else ():
        yield from mappings_in(child)


@st.composite
def config_documents(draw):
    """Config documents with any sections missing, at most one of the present
    ones null or of a wrong type, and a third of the time one mapping given a
    misspelled key."""
    document = draw(st.fixed_dictionaries({}, optional=SECTIONS))
    if document and draw(st.booleans()):
        document[draw(st.sampled_from(sorted(document)))] = draw(st.sampled_from((None, 7, "fast", [1, 2])))
    if draw(st.integers(0, 2)) == 0:
        draw(st.sampled_from(list(mappings_in(document))))[draw(st.sampled_from(MISSPELLED))] = 1.0
    return document


def tce_like(*couplings):
    """A three-spin molecule section with the given ``(pair, j_hz)`` couplings."""
    spins = [{"name": n, "larmor_hz": 125_772_580.0, "t1": 25.0, "t2": 0.4} for n in SPIN_NAMES[:3]]
    return {"molecule": {"spins": spins, "couplings": [{"pair": pair, "j_hz": j} for pair, j in couplings]}}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(config_documents())
# A one-spin pair, and a subnormal J that only the pulse engine cannot use, each on its own.
@example(tce_like((["C1"], 103.0), (["C1", "H"], 201.0)))
@example(tce_like((["C2", "C1"], 103.0), (["C1", "H"], 5e-324)))
def test_any_config_document_exits_0_with_valid_csv_or_2(document):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.yaml"
        cfg.write_text(yaml.safe_dump(document))
        for engine in ("gate", "pulse"):
            out = Path(tmp) / engine
            code, err = run_cli(["compare", "--config", str(cfg), "--engine", engine, "--out", str(out)])
            if any(key in MISSPELLED for mapping in mappings_in(document) for key in mapping):
                assert code == cli.EXIT_CONFIG, (document, engine, err)
            if code == cli.EXIT_CONFIG:
                assert err.startswith("error:") and err.count("\n") == 1, (document, engine, err)
                assert not out.exists()
                continue
            assert code == cli.EXIT_OK, (document, engine, err)
            header, rows = read_csv(out / "compare.csv")
            assert header == ["delay_s", "fe_teleport", "fe_control"] and rows
            assert all(0.0 <= fe <= 1.0 for row in rows for fe in row[1:]), (document, engine, rows)


def test_tomo_takes_a_blank_argument_list_as_no_arguments(tmp_path):
    plain, blank = tmp_path / "plain", tmp_path / "blank"
    assert run_cli(["tomo", "--channel", "identity", "--out", str(plain)]) == (cli.EXIT_OK, "")
    assert run_cli(["tomo", "--channel", "identity( )", "--out", str(blank)]) == (cli.EXIT_OK, "")
    files, blank_files = snapshot(plain), snapshot(blank)
    # The summary's first line names the channel as it was given.
    first, rest = blank_files.pop("summary.txt").split(b"\n", 1)
    assert first == b"process: identity( )" and rest == files.pop("summary.txt").split(b"\n", 1)[1]
    assert blank_files == files and len(files) == 3
    for channel, message in (
        ("teleport( )", "error: channel 'teleport' takes 1 argument(s), got 0\n"),
        ("identity(,)", "error: channel arguments must be numbers: ','\n"),
        ("TELEPORT(1)", "error: cannot parse channel 'TELEPORT(1)'\n"),
    ):
        out = tmp_path / "refused"
        assert run_cli(["tomo", "--channel", channel, "--out", str(out)]) == (cli.EXIT_CONFIG, message)
        assert not out.exists()


def _scaled(channel, factor):
    """``channel`` with every element scaled by ``factor``, past its construction check."""
    object.__setattr__(channel, "elements", tuple(factor * a for a in channel.elements))
    return channel


def test_a_violation_in_a_builtin_tomo_channel_names_its_input_and_step(tmp_path, monkeypatch):
    # A process without a delay step names no delay; a relaxation step is built for its delay t.
    real_depolarizing, real_relaxation = cli.depolarizing_channel, cli.relaxation_channels
    monkeypatch.setattr(cli, "depolarizing_channel", lambda p: _scaled(real_depolarizing(p), 1.1))
    monkeypatch.setattr(cli, "relaxation_channels", lambda *args: _scaled(real_relaxation(*args), 1.1))
    violation = ", circuit step 0 (channel on qubits (0,)): trace deviates from 1 by 2.100e-01\n"
    for channel, delay in (
        ("depolarizing(0.3)", ""),
        ("dephasing(0.2,0.3)", "delay 0.2 s, "),
        ("relaxation(0.5,5,3)", "delay 0.5 s, "),
    ):
        out = tmp_path / "violated"
        code, err = run_cli(["tomo", "--channel", channel, "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        # Every input's trace is 1.21, up to rounding, which picks the worst input.
        location = re.escape(f"numerical invariant violated: {delay}tomography input ") + "[0-3]"
        assert re.fullmatch(location + re.escape(violation), err), err
        assert not out.exists()


def test_a_reconstruction_failure_in_a_tomo_channel_names_a_delay_only_if_it_has_one(tmp_path, monkeypatch):
    # The outputs transposed: each is a state, but the map is not completely positive.
    # Then the output of input 3 is no state.
    def transposed(stack, keep, real=experiment.reduce_stack):
        return real(stack, keep).swapaxes(-1, -2)

    def reduced(stack, keep, real=experiment.reduce_stack):
        outputs = real(stack, keep).copy()
        outputs[0, 3] *= 1.5
        return outputs

    not_positive = r": chi matrix: eigenvalue -\d\.\d{3}e-01 < -1\.0e-08\n"
    not_a_state = re.escape(", process reconstruction: trace deviates from 1 by 5.000e-01\n")
    for patched, where, violation in (
        (("reduce_stack", transposed), "process reconstruction", not_positive),
        (("reduce_stack", reduced), "tomography input 3", not_a_state),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(experiment, *patched)
            for channel, delay in (("identity", ""), ("depolarizing(0.3)", ""), ("dephasing(0.2,0.3)", "delay 0.2 s, ")):
                out = tmp_path / "violated"
                code, err = run_cli(["tomo", "--channel", channel, "--out", str(out)])
                assert code == cli.EXIT_NUMERICAL
                prefix = re.escape(f"numerical invariant violated: {delay}{where}")
                assert re.fullmatch(prefix + violation, err), err
                assert not out.exists()


def test_an_empty_config_file_runs_with_the_defaults(tmp_path):
    cfg = tmp_path / "empty.yaml"
    cfg.write_text("")
    assert run_cli(["teleport", "--out", str(tmp_path / "default")]) == (cli.EXIT_OK, "")
    assert run_cli(["teleport", "--config", str(cfg), "--out", str(tmp_path / "empty")]) == (cli.EXIT_OK, "")
    assert snapshot(tmp_path / "empty") == snapshot(tmp_path / "default")


def test_an_output_directory_below_a_regular_file_exits_2(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    code, err = run_cli(["teleport", "--delays", "0,0.3", "--out", str(blocker / "out")])
    assert code == cli.EXIT_CONFIG
    assert err.startswith(f"error: cannot create output directory {blocker / 'out'}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "not a directory\n"
