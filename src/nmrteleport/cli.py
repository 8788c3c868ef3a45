"""Command-line driver for the simulator.

Subcommands: ``teleport`` and ``control`` run one fidelity-vs-delay sweep,
``compare`` runs both on a shared grid, ``tomo`` tomographs a built-in
channel or a circuit-derived process.  Every flag overrides the matching
key of the optional YAML config file; all defaults are the measured TCE
values, so a bare command reproduces the headline experiment.

Exit codes are stable: 0 success, 2 user or configuration error, 3 internal
numerical invariant violation.  Output files are plot-ready CSV plus a text
summary, written with 12 significant digits; running a command twice with
the same configuration produces byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .channels import RelaxationParams, dephasing_channel, depolarizing_channel, relaxation_channel
from .circuits import run_events
from .errors import ConfigError, NumericalInvariantError, RfAngleError, UnsupportedGateError
from .experiment import (
    DEFAULT_DELAYS,
    ENGINES,
    CurveComparison,
    DecayFit,
    SweepConfig,
    SweepRecord,
    compare_curves,
    fit_decay,
    run_sweep,
    tomograph,
    validate_delays,
)
from .nmr import MoleculeModel, SpinParams, realize_pulses, tce_model
from .tomography import ProcessMap, entanglement_fidelity

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

PAULI_HEADER = "I,X,Y,Z"


@dataclass
class RunConfig:
    model: MoleculeModel
    delays: tuple[float, ...]  # empty for tomo, whose process names its own delay
    engine: str
    rotation_error: float
    out_dir: Path
    channel: str | None = None


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _default_config() -> dict:
    return {
        "molecule": {"carbon_t1": 25.0},
        "experiment": {"delays": list(DEFAULT_DELAYS), "engine": "gate"},
        "noise": {"t1": True, "t2": True, "rf_miscalibration": 0.0},
        "output": {"dir": "results"},
    }


def _merge(base: dict, override: dict) -> dict:
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value
    return base


def _load_config_file(path: str) -> dict:
    import yaml  # only a run with --config pays for the import

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a mapping at top level")
    return data


def _parse_delays(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse delay list {text!r}") from exc


def _build_model(molecule: dict) -> MoleculeModel:
    if "spins" in molecule:
        try:
            spins = tuple(
                SpinParams(s["name"], float(s["larmor_hz"]), float(s["t1"]), float(s["t2"]))
                for s in molecule["spins"]
            )
            couplings = {
                (c["pair"][0], c["pair"][1]): float(c["j_hz"])
                for c in molecule.get("couplings", [])
            }
            active = molecule.get("active")
            active_pairs = (
                frozenset((a, b) for a, b in active)
                if active is not None
                else frozenset(couplings)
            )
            return MoleculeModel(spins, couplings, active_pairs)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid molecule section: {exc}") from exc
    try:
        return tce_model(float(molecule.get("carbon_t1", 25.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid molecule section: {exc}") from exc


def _run_config(args: argparse.Namespace) -> RunConfig:
    data = _default_config()
    if args.config:
        _merge(data, _load_config_file(args.config))
    for section in ("molecule", "experiment", "noise", "output"):
        if data.get(section) is None:
            data[section] = {}
        if not isinstance(data[section], dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
    noise = data["noise"]
    if args.no_noise:
        noise = {"t1": False, "t2": False, "rf_miscalibration": 0.0}
    delays = ()
    if args.command != "tomo":  # a tomo process names its own delay
        delays = data["experiment"].get("delays", list(DEFAULT_DELAYS)) if args.delays is None else _parse_delays(args.delays)
        if not isinstance(delays, (list, tuple)):
            raise ConfigError("experiment.delays must be a list of seconds")
        try:
            delays = validate_delays(delays)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid delay list: {exc}") from exc
    engine = args.engine or data["experiment"].get("engine", "gate")
    if engine not in ENGINES:
        raise ConfigError(f"engine must be {' or '.join(map(repr, ENGINES))}, got {engine!r}")
    out_dir = args.out or data["output"].get("dir", "results")
    if not isinstance(out_dir, str):
        raise ConfigError(f"output.dir must be a path string, got {out_dir!r}")

    model = _build_model(data["molecule"])
    switches = {key: noise.get(key, True) for key in ("t1", "t2")}
    for key, value in switches.items():
        if not isinstance(value, bool):
            raise ConfigError(f"noise.{key} must be true or false, got {value!r}")
    try:
        model = model.with_relaxation(switches["t1"], switches["t2"])
        rotation_error = float(noise.get("rf_miscalibration", 0.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid noise section: {exc}") from exc
    if not math.isfinite(rotation_error):
        raise ConfigError(f"noise.rf_miscalibration must be finite, got {rotation_error}")

    return RunConfig(
        model=model,
        delays=delays,
        engine=engine,
        rotation_error=rotation_error,
        out_dir=Path(out_dir),
        channel=getattr(args, "channel", None),
    )


def _prepare_out_dir(cfg: RunConfig) -> Path:
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc}") from exc
    return cfg.out_dir


def _write_lines(path: Path, lines: list[str]) -> None:
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_curve_csv(path: Path, records: Sequence[SweepRecord]) -> None:
    lines = ["delay_s,entanglement_fidelity"]
    lines += [f"{_fmt(r.delay)},{_fmt(r.fe)}" for r in records]
    _write_lines(path, lines)


def _write_compare_csv(path: Path, comparison: CurveComparison) -> None:
    lines = ["delay_s,fe_teleport,fe_control"]
    lines += [
        f"{_fmt(d)},{_fmt(ft)},{_fmt(fc)}"
        for d, ft, fc in zip(comparison.delays, comparison.fe_teleport, comparison.fe_control)
    ]
    _write_lines(path, lines)


def _write_process_map(out_dir: Path, process_map: ProcessMap) -> None:
    def rows(matrix) -> list[str]:
        return [PAULI_HEADER] + [",".join(_fmt(v) for v in row) for row in matrix]

    _write_lines(out_dir / "process_R.csv", rows(process_map.transfer_matrix))
    _write_lines(out_dir / "process_chi_re.csv", rows(process_map.chi_matrix.real))
    _write_lines(out_dir / "process_chi_im.csv", rows(process_map.chi_matrix.imag))


def _fit_lines(fit: DecayFit | None) -> list[str]:
    if fit is None:
        return ["fit: skipped (needs at least 4 delays)"]
    return [
        "fit fe(t) = A*exp(-t/tau) + C:",
        f"  A = {_fmt(fit.amplitude)}",
        f"  tau_s = {_fmt(fit.time_constant)}",
        f"  C = {_fmt(fit.offset)}",
        f"  rms_residual = {_fmt(fit.residual_norm)}",
        f"  tau_identifiable = {'yes' if fit.tau_identifiable else 'no'}",
    ]


def _maybe_fit(records: Sequence[SweepRecord]) -> DecayFit | None:
    return fit_decay(records) if len(records) >= 4 else None


def _yes(flag: bool | None) -> str:
    if flag is None:
        return "undetermined"
    return "yes" if flag else "no"


def _sweep(cfg: RunConfig, experiment: str) -> SweepConfig:
    return _checked(SweepConfig(cfg.delays, experiment, cfg.model, cfg.engine, cfg.rotation_error))


def _checked(sweep: SweepConfig) -> SweepConfig:
    """``sweep``, checked before anything is written: its circuit is built (and kept
    for the run), which needs a three-spin molecule, and on the pulse engine its
    prefix is realized, which needs the couplings it uses and finite rf angles."""
    try:
        circuit, _ = sweep.circuit()
    except ValueError as exc:
        raise ConfigError(f"invalid molecule section: {exc}") from exc
    if sweep.engine == "pulse":
        try:
            realize_pulses(circuit.events[: circuit.delay_start], sweep.model, sweep.rotation_error)
        except UnsupportedGateError as exc:
            culprit = "with this noise.rf_miscalibration" if isinstance(exc, RfAngleError) else "on this molecule"
            raise ConfigError(f"the pulse engine cannot run {sweep.experiment} {culprit}: {exc}") from exc
    return sweep


def _emit(out_dir: Path, summary: list[str]) -> None:
    _write_lines(out_dir / "summary.txt", summary)
    print("\n".join(summary), flush=True)


def _header(cfg: RunConfig, experiment: str) -> list[str]:
    return [f"experiment: {experiment}", f"engine: {cfg.engine}", f"delays_s: {','.join(_fmt(d) for d in cfg.delays)}"]


def _run_curve(cfg: RunConfig, experiment: str, verdicts: Callable[[list[SweepRecord]], list[str]]) -> None:
    """One sweep: its curve, the process map of its first delay, and a summary of
    the header, the ``verdicts`` lines on its records and the decay fit."""
    sweep = _sweep(cfg, experiment)
    out_dir = _prepare_out_dir(cfg)
    records = run_sweep(sweep)
    _write_curve_csv(out_dir / "curve.csv", records)
    _write_process_map(out_dir, records[0].process_map)
    _emit(out_dir, _header(cfg, experiment) + verdicts(records) + _fit_lines(_maybe_fit(records)))


def cmd_teleport(cfg: RunConfig) -> None:
    def verdicts(records: list[SweepRecord]) -> list[str]:
        nonzero = [r for r in records if r.delay > 0.0]
        if not nonzero:
            return []
        first = nonzero[0]
        return [
            f"fe at smallest nonzero delay ({_fmt(first.delay)} s): {_fmt(first.fe)}",
            f"quantum transmission (fe > 0.5 at smallest nonzero delay): {_yes(first.fe > 0.5)}",
        ]

    _run_curve(cfg, "teleport", verdicts)


def cmd_control(cfg: RunConfig) -> None:
    def verdicts(records: list[SweepRecord]) -> list[str]:
        last = records[-1]
        return [
            f"fe at longest delay ({_fmt(last.delay)} s): {_fmt(last.fe)}",
            f"distance from 0.5 dephasing floor: {_fmt(abs(last.fe - 0.5))}",
        ]

    _run_curve(cfg, "control", verdicts)


def cmd_compare(cfg: RunConfig) -> None:
    if len(cfg.delays) < 4:
        raise ConfigError("compare needs at least 4 delays to fit both decay curves")
    sweeps = [_sweep(cfg, experiment) for experiment in ("teleport", "control")]
    out_dir = _prepare_out_dir(cfg)
    comparison = compare_curves(*(run_sweep(sweep) for sweep in sweeps))
    _write_compare_csv(out_dir / "compare.csv", comparison)
    summary = _header(cfg, "compare")
    summary += ["teleport " + line.strip() for line in _fit_lines(comparison.teleport_fit)]
    summary += ["control " + line.strip() for line in _fit_lines(comparison.control_fit)]
    summary += [
        f"tau_ratio (teleport/control): {_fmt(comparison.tau_ratio)}",
        f"verdict fe > 0.5 at smallest nonzero delay: {_yes(comparison.teleport_beats_classical)}",
        f"verdict control decays faster than teleport: {_yes(comparison.control_decays_faster)}",
        f"verdict teleport tau exceeds control tau by >3x: {_yes(comparison.teleport_outlasts_control)}",
    ]
    _emit(out_dir, summary)


_CHANNEL_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(([^)]*)\))?\s*$")


def _parse_channel(cfg: RunConfig) -> Callable[[], ProcessMap]:
    """The named channel's process tomography, checked, to run once the output
    directory exists: a circuit runs as a sweep of one delay, a built-in channel
    as one step on a one-qubit register."""
    match = _CHANNEL_RE.match(cfg.channel or "")
    if not match:
        raise ConfigError(f"cannot parse channel {cfg.channel!r}")
    name = match.group(1)
    raw_args = match.group(2)
    try:
        args = [float(a) for a in raw_args.split(",")] if raw_args else []
    except ValueError as exc:
        raise ConfigError(f"channel arguments must be numbers: {raw_args!r}") from exc

    def expect(n: int) -> None:
        if len(args) != n:
            raise ConfigError(f"channel {name!r} takes {n} argument(s), got {len(args)}")

    if name not in ("identity", "dephasing", "depolarizing", "relaxation", "teleport", "control"):
        raise ConfigError(
            f"unknown channel {name!r}; expected identity, dephasing(t,t2), depolarizing(p), "
            "relaxation(t,t1,t2), teleport(delay) or control(delay)"
        )
    try:
        if name == "identity":
            expect(0)
            channels = ()
        elif name in ("teleport", "control"):
            expect(1)
            sweep = SweepConfig((args[0],), name, cfg.model, cfg.engine, cfg.rotation_error)
        elif name == "dephasing":
            expect(2)
            channels = (dephasing_channel(args[0], args[1]),)
        elif name == "depolarizing":
            expect(1)
            channels = (depolarizing_channel(args[0]),)
        else:
            expect(3)
            channels = (relaxation_channel(args[0], RelaxationParams(args[1], args[2])),)
    except ValueError as exc:
        raise ConfigError(f"invalid channel parameters: {exc}") from exc
    if name in ("teleport", "control"):
        _checked(sweep)
        return lambda: run_sweep(sweep)[0].process_map
    return lambda: tomograph(lambda stack: run_events(channels, stack), 1, 0)[0]


def cmd_tomo(cfg: RunConfig) -> None:
    tomograph = _parse_channel(cfg)
    out_dir = _prepare_out_dir(cfg)
    process_map = tomograph()
    fe = entanglement_fidelity(process_map)
    _write_process_map(out_dir, process_map)
    summary = [
        f"process: {cfg.channel.strip()}",
        f"entanglement_fidelity: {_fmt(fe)}",
        f"transfer matrix trace / 4: {_fmt(float(process_map.transfer_matrix.trace()) / 4.0)}",
    ]
    _emit(out_dir, summary)


_COMMANDS = {
    "teleport": cmd_teleport,
    "control": cmd_control,
    "compare": cmd_compare,
    "tomo": cmd_tomo,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmrteleport",
        description="Density-matrix simulation of NMR teleportation on a three-spin molecule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (
        ("teleport", "run the teleportation sweep and fit its fidelity decay"),
        ("control", "run the control sweep (no Bell rotation, no correction)"),
        ("compare", "run both sweeps on one grid and compare decay times"),
        ("tomo", "process tomography of a named channel or circuit"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="YAML config file; flags override its keys")
        if command != "tomo":  # a tomo process fixes its own delay
            p.add_argument("--delays", help="comma-separated delay list in seconds")
        p.add_argument("--engine", choices=ENGINES, help="simulation engine")
        p.add_argument("--no-noise", action="store_true", help="disable all relaxation")
        p.add_argument("--out", help="output directory (default: results)")
        if command == "tomo":
            p.add_argument(
                "--channel",
                required=True,
                help="identity | dephasing(t,t2) | depolarizing(p) | relaxation(t,t1,t2) "
                "| teleport(delay) | control(delay)",
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _run_config(args)
        _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalInvariantError as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # The reader of stdout left early: the files are complete, only the echo
        # was cut.  Point stdout at devnull so the flush at shutdown cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK
