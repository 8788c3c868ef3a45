"""Library-driven gate-engine scan, run as one child process by ``run.py``.

Each scan item builds a fresh seeded molecule, sweeps teleport and control
on the gate engine over its seeded delays and fits both curves with
``compare_curves``.  No item reuses anything from another.

Modes::

    gate_scan.py setup --seed S
        import nmrteleport.cli and build the first item's molecule, then exit
    gate_scan.py run --seed S --seconds T --min-items M [--max-items X] --out F [--trace F]
        closed loop over items 0, 1, ... until T seconds and M items are done
    gate_scan.py check --seed S --items I,J,... --out F
        recompute the listed items, with the pulse engine's teleport curve
        added as the cross-engine reference

Results go to ``--out`` as JSON: per item, the serialized outputs and the
wall time of the item.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter

import workloads


def _api():
    import nmrteleport.cli  # noqa: F401  (same import set-up as the CLI)
    import nmrteleport

    return nmrteleport


def build_model(nt, item: dict):
    base = nt.tce_model(item["carbon_t1"])
    t2 = {"C2": item["c2_t2"], "C1": item["c1_t2"]}
    spins = tuple(nt.SpinParams(s.name, s.larmor_hz, s.t1, t2.get(s.name, s.t2)) for s in base.spins)
    return nt.MoleculeModel(spins, base.j_couplings, base.active_couplings)


def scan_item(nt, seed: int, index: int) -> dict:
    item = workloads.gate_scan_item(seed, index)
    model = build_model(nt, item)
    curves = {
        experiment: nt.run_sweep(nt.SweepConfig(item["delays"], experiment, model, "gate"))
        for experiment in ("teleport", "control")
    }
    cmp = nt.compare_curves(curves["teleport"], curves["control"])
    return {
        "item": index,
        "delays": list(cmp.delays),
        "fe_teleport": list(cmp.fe_teleport),
        "fe_control": list(cmp.fe_control),
        "tau_teleport": cmp.teleport_fit.time_constant,
        "tau_control": cmp.control_fit.time_constant,
        "verdicts": [cmp.teleport_beats_classical, cmp.control_decays_faster, cmp.teleport_outlasts_control],
    }


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def cmd_run(args, nt) -> dict:
    items, latencies = [], []
    cpu0 = _cpu_s()
    start = perf_counter()
    index = 0
    while index < args.max_items and (
        index < args.min_items or perf_counter() - start < args.seconds
    ):
        t0 = perf_counter()
        items.append(scan_item(nt, args.seed, index))
        latencies.append(perf_counter() - t0)
        index += 1
    wall = perf_counter() - start
    return {"items": items, "latency_s": latencies, "wall_s": wall, "cpu_s": _cpu_s() - cpu0}


def cmd_check(args, nt) -> dict:
    items = []
    for index in (int(i) for i in args.items.split(",")):
        result = scan_item(nt, args.seed, index)
        item = workloads.gate_scan_item(args.seed, index)
        model = build_model(nt, item)
        records = nt.run_sweep(nt.SweepConfig(item["delays"], "teleport", model, "pulse"))
        result["pulse_fe_teleport"] = [r.fe for r in records]
        items.append(result)
    return {"items": items}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="gate_scan.py")
    parser.add_argument("mode", choices=("setup", "run", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-items", type=int, default=1)
    parser.add_argument("--max-items", type=int, default=sys.maxsize)
    parser.add_argument("--items", default="0")
    parser.add_argument("--out")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    nt = _api()
    if args.mode == "setup":
        build_model(nt, workloads.gate_scan_item(args.seed, 0))
        return 0
    result = cmd_run(args, nt) if args.mode == "run" else cmd_check(args, nt)
    with open(args.out, "w") as f:
        json.dump(result, f)
    if tracer:
        tracer.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
