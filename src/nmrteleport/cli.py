"""Command-line driver for the simulator.

Subcommands: ``teleport`` and ``control`` run one fidelity-vs-delay sweep,
``compare`` runs both on a shared grid, ``tomo`` tomographs a built-in channel
or a circuit-derived process.  A flag overrides the value of its key in the
optional YAML config file, whose keys are exactly those ``_KEYS`` lists (every
coupling a molecule lists acts in the pulse engine); all defaults are the
measured TCE values, so a bare command reproduces the headline experiment.

Exit codes are stable: 0 success, 2 user or configuration error (an unexpected config
key too), 3 internal numerical invariant violation.  Output files are CSV plus a text
summary with 12 significant digits, byte-identical on a rerun; a command computes its
whole output set first, and one writer puts all of it in place or none of it.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .channels import RelaxationParams, depolarizing_channel, relaxation_channels
from .circuits import Circuit, validate_delays
from .errors import ConfigError, NumericalInvariantError, RfAngleError, UnsupportedGateError
from .experiment import (
    DEFAULT_DELAYS,
    ENGINES,
    MIN_TAU_RATIO,
    DecayFit,
    SweepConfig,
    SweepRecord,
    compare_curves,
    fit_exponential,
    run_sweep,
    tomograph,
)
from .nmr import MoleculeModel, SpinParams, tce_model

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


@contextlib.contextmanager
def _section(what: str):
    """The one rule for a malformed config value: its error inside the block
    becomes ``ConfigError("invalid <what>: …")``.  A ``ConfigError`` raised in
    the block already says what is wrong and passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _load_config_file(path: str) -> dict:
    import yaml  # only a run with --config pays for the import

    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except (yaml.YAMLError, RecursionError) as exc:  # a document nested too deep to parse
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a mapping at top level")
    return data


# The whole config schema: the keys that each mapping of a config file takes.  Any other key exits 2.
_KEYS = {
    "a config file": ("molecule", "experiment", "noise", "output"),
    "the built-in molecule": ("carbon_t1",),
    "a molecule with spins": ("spins", "couplings"),
    "a spin": ("name", "larmor_hz", "t1", "t2"),
    "a coupling": ("pair", "j_hz"),
    "experiment": ("delays", "engine"),
    "noise": ("t1", "t2", "rf_miscalibration"),
    "output": ("dir",),
}


def _check_keys(data: dict) -> None:
    """Refuse a key that its mapping does not take, and a molecule's spins or couplings
    that are not a list of mappings, naming the path; each section of ``data`` is a mapping."""
    molecule = data["molecule"]
    shape = "a molecule with spins" if "spins" in molecule else "the built-in molecule"
    scopes = [("a config file", "", data), (shape, "molecule.", molecule)]
    scopes += [(section, f"{section}.", data[section]) for section in ("experiment", "noise", "output")]
    for name, scope in (("spins", "a spin"), ("couplings", "a coupling")):
        entries = molecule.get(name, []) if "spins" in molecule else []
        if not isinstance(entries, list):
            raise ConfigError(f"molecule.{name} must be a list of mappings, got {entries!r}")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ConfigError(f"molecule.{name}[{i}] must be a mapping, got {entry!r}")
            scopes.append((scope, f"molecule.{name}[{i}].", entry))
    for scope, path, mapping in scopes:
        for key in mapping:
            if key not in _KEYS[scope]:
                raise ConfigError(f"unexpected config key {path}{key}: {scope} takes {', '.join(_KEYS[scope])}")


def _number(value) -> float:
    """A config number: what ``float`` takes, except a boolean, which YAML reads
    from ``true`` and ``float`` would take as 1."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _build_model(molecule: dict) -> MoleculeModel:
    if "spins" not in molecule:
        return tce_model(_number(molecule["carbon_t1"])) if "carbon_t1" in molecule else tce_model()
    spins = tuple(
        SpinParams(s["name"], _number(s["larmor_hz"]), _number(s["t1"]), _number(s["t2"]))
        for s in molecule["spins"]
    )
    couplings = {}
    for c in molecule.get("couplings", []):
        if not (isinstance(c["pair"], list) and len(c["pair"]) == 2):
            raise ValueError(f"a coupling pair must name two spins, got {c['pair']!r}")
        couplings[tuple(c["pair"])] = _number(c["j_hz"])
    return MoleculeModel(spins, couplings, frozenset(couplings))


def _run_config(args: argparse.Namespace) -> RunConfig:
    data = _load_config_file(args.config) if args.config else {}
    for section in _KEYS["a config file"]:
        if data.get(section) is None:
            data[section] = {}
        if not isinstance(data[section], dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
    _check_keys(data)
    noise = data["noise"]
    if args.no_noise:
        noise = {"t1": False, "t2": False, "rf_miscalibration": 0.0}
    delays = ()
    if args.command != "tomo":  # a tomo process names its own delay
        if args.delays is None:
            delays = data["experiment"].get("delays", list(DEFAULT_DELAYS))
        else:  # the flag's comma-separated entries, each read by _number below
            delays = [part for part in args.delays.split(",") if part.strip()]
        if not isinstance(delays, (list, tuple)):
            raise ConfigError("experiment.delays must be a list of seconds")
        with _section("delay list"):
            delays = validate_delays(map(_number, delays))
    engine = args.engine or data["experiment"].get("engine", "gate")
    if engine not in ENGINES:
        raise ConfigError(f"engine must be {' or '.join(map(repr, ENGINES))}, got {engine!r}")
    out_dir = args.out if args.out is not None else data["output"].get("dir", "results")
    if not isinstance(out_dir, str) or not out_dir or "\0" in out_dir:
        raise ConfigError(f"output.dir must be a path string, got {out_dir!r}")

    with _section("molecule section"):
        model = _build_model(data["molecule"])
    switches = {key: noise.get(key, True) for key in ("t1", "t2")}
    for key, value in switches.items():
        if not isinstance(value, bool):
            raise ConfigError(f"noise.{key} must be true or false, got {value!r}")
    with _section("noise section"):
        model = model.with_relaxation(switches["t1"], switches["t2"])
        rotation_error = _number(noise.get("rf_miscalibration", 0.0))
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


def _csv(header: str, rows) -> list[str]:
    return [header] + [",".join(_fmt(v) for v in row) for row in rows]


def _process_files(record: SweepRecord) -> dict[str, list[str]]:
    return {
        "process_R.csv": _csv(PAULI_HEADER, record.transfer_matrix),
        "process_chi_re.csv": _csv(PAULI_HEADER, record.chi_matrix.real),
        "process_chi_im.csv": _csv(PAULI_HEADER, record.chi_matrix.imag),
    }


def _write_outputs(out_dir: Path, outputs: dict[str, list[str]]) -> None:
    """Put the output set ``{file name: lines}`` in ``out_dir``, all of it or none.

    Each file is first written as ``<name>.<pid>.tmp`` beside its target.  Only
    then are the old targets unlinked (a symlink is replaced, not followed) and
    the new files renamed onto the freed names: on ext4, rewriting a file that
    holds data, or renaming over it, made each rerun into the same directory
    tens of milliseconds slower.  Nothing is fsynced.
    """
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    temporaries: dict[Path, Path] = {}
    try:
        for name, lines in outputs.items():
            path = out_dir / name
            if path.is_dir() and not path.is_symlink():  # found before any old file goes
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            temporaries[path] = out_dir / f"{name}.{os.getpid()}.tmp"
            temporaries[path].write_text("\n".join(lines) + "\n")
        for path in temporaries:
            path.unlink(missing_ok=True)
        for path, temporary in temporaries.items():
            temporary.rename(path)
    except OSError as exc:
        for temporary in temporaries.values():
            with contextlib.suppress(OSError):
                temporary.unlink()
        raise ConfigError(f"cannot write {path}: {exc}") from exc


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


def _yes(flag: bool | None) -> str:
    if flag is None:
        return "undetermined"
    return "yes" if flag else "no"


def _records(sweep: SweepConfig) -> list[SweepRecord]:
    """``run_sweep(sweep)``, with the molecule's faults as config errors: building
    the circuit needs a three-spin molecule, and the pulse engine needs the
    couplings its gates use and finite rf angles."""
    with _section("molecule section"):
        try:
            return run_sweep(sweep)
        except UnsupportedGateError as exc:
            culprit = "with this noise.rf_miscalibration" if isinstance(exc, RfAngleError) else "on this molecule"
            raise ConfigError(f"the pulse engine cannot run {sweep.experiment} {culprit}: {exc}") from exc


def _header(cfg: RunConfig, experiment: str) -> list[str]:
    return [f"experiment: {experiment}", f"engine: {cfg.engine}", f"delays_s: {','.join(_fmt(d) for d in cfg.delays)}"]


def _run_curve(cfg: RunConfig, experiment: str, verdicts: Callable[[list[SweepRecord]], list[str]]) -> dict[str, list[str]]:
    """One sweep's outputs: its curve, the process of its first delay, and a
    summary of the header, the ``verdicts`` lines on its records and the decay fit."""
    records = _records(SweepConfig(cfg.delays, experiment, cfg.model, cfg.engine, cfg.rotation_error))
    delays, fes = tuple(r.delay for r in records), tuple(r.fe for r in records)
    fit = fit_exponential(delays, fes) if len(records) >= 4 else None
    return {
        "curve.csv": _csv("delay_s,entanglement_fidelity", zip(delays, fes)),
        **_process_files(records[0]),
        "summary.txt": _header(cfg, experiment) + verdicts(records) + _fit_lines(fit),
    }


def cmd_teleport(cfg: RunConfig) -> dict[str, list[str]]:
    def verdicts(records: list[SweepRecord]) -> list[str]:
        nonzero = [r for r in records if r.delay > 0.0]
        if not nonzero:
            return []
        first = nonzero[0]
        return [
            f"fe at smallest nonzero delay ({_fmt(first.delay)} s): {_fmt(first.fe)}",
            f"quantum transmission (fe > 0.5 at smallest nonzero delay): {_yes(first.fe > 0.5)}",
        ]

    return _run_curve(cfg, "teleport", verdicts)


def cmd_control(cfg: RunConfig) -> dict[str, list[str]]:
    def verdicts(records: list[SweepRecord]) -> list[str]:
        last = records[-1]
        return [
            f"fe at longest delay ({_fmt(last.delay)} s): {_fmt(last.fe)}",
            f"distance from 0.5 dephasing floor: {_fmt(abs(last.fe - 0.5))}",
        ]

    return _run_curve(cfg, "control", verdicts)


def cmd_compare(cfg: RunConfig) -> dict[str, list[str]]:
    if len(cfg.delays) < 4:
        raise ConfigError("compare needs at least 4 delays to fit both decay curves")
    sweeps = (SweepConfig(cfg.delays, kind, cfg.model, cfg.engine, cfg.rotation_error) for kind in ("teleport", "control"))
    comparison = compare_curves(*map(_records, sweeps))
    summary = _header(cfg, "compare")
    summary += ["teleport " + line.strip() for line in _fit_lines(comparison.teleport_fit)]
    summary += ["control " + line.strip() for line in _fit_lines(comparison.control_fit)]
    summary += [
        f"tau_ratio (teleport/control): {_fmt(comparison.tau_ratio)}",
        f"verdict fe > 0.5 at smallest nonzero delay: {_yes(comparison.teleport_beats_classical)}",
        f"verdict control decays faster than teleport: {_yes(comparison.control_decays_faster)}",
        f"verdict teleport tau exceeds control tau by >{MIN_TAU_RATIO:g}x: {_yes(comparison.teleport_outlasts_control)}",
    ]
    rows = zip(comparison.delays, comparison.fe_teleport, comparison.fe_control)
    return {"compare.csv": _csv("delay_s,fe_teleport,fe_control", rows), "summary.txt": summary}


_CHANNEL_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(([^)]*)\))?\s*$")

# name -> (parameter names, the one-qubit circuit it builds on a grid of one
# delay); a circuit has none here: it runs as a sweep of one delay.
_CHANNELS = {
    "identity": ((), lambda: Circuit(1, ())),
    "dephasing": (("t", "t2"), lambda t, t2: Circuit(1, (relaxation_channels((t,), RelaxationParams(math.inf, t2)),), delays=(t,))),
    "depolarizing": (("p",), lambda p: Circuit(1, (depolarizing_channel(p),))),
    "relaxation": (("t", "t1", "t2"), lambda t, t1, t2: Circuit(1, (relaxation_channels((t,), RelaxationParams(t1, t2)),), delays=(t,))),
    "teleport": (("delay",), None),
    "control": (("delay",), None),
}
_SIGNATURES = [name + (f"({','.join(params)})" if params else "") for name, (params, _) in _CHANNELS.items()]


def _channel_process(cfg: RunConfig) -> SweepRecord:
    """The named channel's process, tomographed on a grid of one delay: a circuit
    runs as a sweep, a built-in channel as its one-qubit circuit."""
    match = _CHANNEL_RE.match(cfg.channel or "")
    if not match:
        raise ConfigError(f"cannot parse channel {cfg.channel!r}")
    name, raw_args = match.groups()
    try:
        args = [float(a) for a in raw_args.split(",")] if raw_args and not raw_args.isspace() else []
    except ValueError as exc:
        raise ConfigError(f"channel arguments must be numbers: {raw_args!r}") from exc
    if name not in _CHANNELS:
        raise ConfigError(f"unknown channel {name!r}; expected {', '.join(_SIGNATURES[:-1])} or {_SIGNATURES[-1]}")
    params, build = _CHANNELS[name]
    if len(args) != len(params):
        raise ConfigError(f"channel {name!r} takes {len(params)} argument(s), got {len(args)}")
    with _section("channel parameters"):
        if build is None:
            sweep = SweepConfig(tuple(args), name, cfg.model, cfg.engine, cfg.rotation_error)
        else:
            circuit = build(*args)
    if build is None:
        return _records(sweep)[0]
    return tomograph(circuit)[0]


def cmd_tomo(cfg: RunConfig) -> dict[str, list[str]]:
    record = _channel_process(cfg)
    summary = [
        f"process: {cfg.channel.strip()}",
        f"entanglement_fidelity: {_fmt(record.fe)}",
        f"transfer matrix trace / 4: {_fmt(float(record.transfer_matrix.trace()) / 4.0)}",
    ]
    return {**_process_files(record), "summary.txt": summary}


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
                help=" | ".join(_SIGNATURES),
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _run_config(args)
        outputs = _COMMANDS[args.command](cfg)
        _write_outputs(cfg.out_dir, outputs)
        print("\n".join(outputs["summary.txt"]), flush=True)
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
