import contextlib
import gc
import io
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import nmrteleport
from nmrteleport import circuits, cli, experiment
from nmrteleport.errors import NumericalInvariantError
from nmrteleport.experiment import DEFAULT_DELAYS, SweepConfig, run_sweep
from nmrteleport.nmr import tce_model
from tests.helpers import count_eigvalsh


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
    for channel in ("dephasing(0.3,nan)", "relaxation(0.3,nan,0.2)", "relaxation(0.3,2,nan)"):
        assert cli.main(["tomo", "--channel", channel, "--out", str(tmp_path / "t")]) == 2, channel
        assert capsys.readouterr().err.startswith("error:")


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


def child_env():
    """The environment of a child Python that imports this package."""
    src = str(Path(nmrteleport.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


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


def test_entry_freezes_the_collector_after_main_and_exits_with_its_code():
    # The atexit handler runs after sys.exit, as at any exit of the script.
    code = """
import atexit, gc
import nmrteleport.__main__ as script
script.main = lambda: print(gc.get_freeze_count()) or 3
atexit.register(lambda: print(gc.get_freeze_count() > 0))
script.entry()
"""
    result = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (3, "0\nTrue\n", "")


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


def test_library_main_leaves_the_collector_alone(tmp_path):
    frozen = gc.get_freeze_count()
    assert cli.main(["tomo", "--channel", "identity", "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == frozen


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


def test_pulse_compare_builds_each_sweep_circuit_once(tmp_path, monkeypatch):
    # The checks before writing and the sweep share one circuit per experiment.
    calls = Counter()
    targets = ((experiment, "teleport_circuit"), (experiment, "control_circuit"), (circuits, "relaxation_channels"))
    for module, name in targets:
        real = getattr(module, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert cli.main(["compare", "--engine", "pulse", "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert calls == {"teleport_circuit": 1, "control_circuit": 1, "relaxation_channels": 6}


def test_hostile_config_sections_exit_2(tmp_path):
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
    ):
        cfg = tmp_path / "hostile.yaml"
        cfg.write_text(body)
        code = cli.main(["control", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2, body
    nulls = tmp_path / "nulls.yaml"
    nulls.write_text("experiment: null\nnoise: null\nmolecule: null\noutput: null\n")
    assert cli.main(["control", "--config", str(nulls), "--delays", "0,0.1", "--out", str(tmp_path / "n")]) == 0


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


def test_numerical_violations_exit_3(tmp_path, monkeypatch):
    def explode(config):
        raise NumericalInvariantError("synthetic violation")

    monkeypatch.setattr(cli, "run_sweep", explode)
    assert cli.main(["control", "--delays", "0,0.1", "--out", str(tmp_path / "x")]) == 3


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


HOSTILE_NUMBERS = (0.0, -1.0, math.nan, math.inf, 1e-300, 1e300)
SPIN_NAMES = ("C2", "C1", "H", "F")


def sound_or(sound, hostile):
    """A sound value or a hostile one, each half the time."""
    return st.one_of(st.sampled_from(sound), st.sampled_from(hostile))


@st.composite
def spin_molecules(draw):
    """2-4 TCE-like spins with any couplings among them and to an unknown spin,
    and half the time one Larmor frequency or J coupling set to a hostile number."""
    names = SPIN_NAMES[: draw(st.sampled_from((3, 2, 4)))]
    spins = [{"name": n, "larmor_hz": 125_772_580.0, "t1": 25.0, "t2": 0.4} for n in names]
    pairs = [[a, b] for i, a in enumerate(names) for b in names[i + 1 :]] + [["C1", "X"]]
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


@st.composite
def config_documents(draw):
    """Config documents with any sections missing, and at most one of the
    present ones null or of a wrong type."""
    document = draw(st.fixed_dictionaries({}, optional=SECTIONS))
    if document and draw(st.booleans()):
        document[draw(st.sampled_from(sorted(document)))] = draw(st.sampled_from((None, 7, "fast", [1, 2])))
    return document


@settings(max_examples=20, deadline=None, derandomize=True)
@given(config_documents())
def test_any_config_document_exits_0_with_valid_csv_or_2(document):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.yaml"
        cfg.write_text(yaml.safe_dump(document))
        for engine in ("gate", "pulse"):
            out = Path(tmp) / engine
            code, err = run_cli(["compare", "--config", str(cfg), "--engine", engine, "--out", str(out)])
            if code == cli.EXIT_CONFIG:
                assert err.startswith("error:") and err.count("\n") == 1, (document, engine, err)
                assert not out.exists()
                continue
            assert code == cli.EXIT_OK, (document, engine, err)
            header, rows = read_csv(out / "compare.csv")
            assert header == ["delay_s", "fe_teleport", "fe_control"] and rows
            assert all(0.0 <= fe <= 1.0 for row in rows for fe in row[1:]), (document, engine, rows)
