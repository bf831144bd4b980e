"""Benchmark of the cellevo command line: four workloads, one process each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload (one `cellevo.cli.main` call each, with
--workers 1) until S seconds of rounds have been timed, checks every
round's outputs, and prints one JSON object as the last line of stdout.
With --trace 0 it reports the end-to-end metrics (medians over rounds);
with --trace 1 it wraps cellevo's public functions and reports per-layer
metrics instead, writing the spans to perfbench/out/.
"""
from time import perf_counter, process_time

T0 = perf_counter()  # setup_s counts from here: imports are set-up work

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import CheckFailed, require  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# The CLI plus the modules the output checks call into.
MODULES = ("cli", "config", "predictor", "rules")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_cellevo():
    """Import the checkout's cellevo, never an installed copy."""
    if not (SRC / "cellevo" / "__init__.py").is_file():
        raise SystemExit(f"no cellevo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cellevo = importlib.import_module("cellevo")
    for name in MODULES:
        importlib.import_module(f"cellevo.{name}")
    if Path(cellevo.__file__).resolve().parent != SRC / "cellevo":
        raise SystemExit(f"imported cellevo from {cellevo.__file__}")
    return cellevo


def prepare(cellevo, workload, seed, run_dir):
    """Cold set-up: empty the program's caches, write this seed's inputs,
    parse them the way the CLI will, and build the rule's kernel."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("cellevo"):
            for value in list(vars(mod).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
    argv = workload.inputs(seed, run_dir)
    args = cellevo.cli.build_parser().parse_args(argv + ["--out", str(run_dir)])
    if getattr(args, "config", None):
        cellevo.config.load_config_file(args.config)
    if getattr(args, "rule", None):
        spec = cellevo.rules.load_preset(args.rule).kernel
        side = getattr(args, "side", None) or args.grid_side
    else:
        spec, side = cellevo.config.DEFAULT_EVO_KERNEL, args.grid_side
    kernel = cellevo.rules.build_kernel(spec)
    if hasattr(kernel, "spectrum"):
        kernel.spectrum((side, side))
    return argv


def capture(cellevo, names, store):
    """Keep the return value of cellevo.cli.<name> calls (for output checks)."""
    originals = {}
    for name in names:
        fn = originals[name] = getattr(cellevo.cli, name)

        def shim(*a, _fn=fn, _name=name, **k):
            store[_name] = result = _fn(*a, **k)
            return result

        setattr(cellevo.cli, name, shim)
    return originals


def layer_metrics(summary, requested, wall):
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    conv_s, conv_n = get("grid.convolve", "s"), get("grid.convolve", "work")
    lg_s, lg_n = get("predictor.loss_and_grads", "s"), get("predictor.loss_and_grads", "calls")
    return {
        "grid.convolve.s": conv_s,
        "grid.convolve.grids": conv_n,
        "grid.convolve.us_per_grid": 1e6 * conv_s / conv_n if conv_n else 0.0,
        "rules.step.s": get("rules.step", "s"),
        "rules.step.self_s": get("rules.step", "self_s"),
        "rules.step.calls": get("rules.step", "calls"),
        "rules.step.grid_steps": get("rules.step", "work"),
        "rules.evolve_batch.s": get("rules.evolve_batch", "s"),
        "rules.retired_frac": 1.0 - get("rules.step", "work") / requested,
        "halting.generate_dataset.s": get("halting.generate_dataset", "s"),
        "halting.predictor_fitness.s": get("halting.predictor_fitness", "s"),
        "predictor.train.s": get("predictor.train", "s"),
        "predictor.loss_and_grads.s": lg_s,
        "predictor.loss_and_grads.calls": lg_n,
        "predictor.loss_and_grads.ms_per_call": 1e3 * lg_s / lg_n if lg_n else 0.0,
        "predictor.predict_batch.s": get("predictor.predict_batch", "s"),
        "cmaes.ask.s": get("cmaes.ask", "s"),
        "cmaes.tell.s": get("cmaes.tell", "s"),
        "patterns.synthesize.s": get("patterns.synthesize", "s"),
        "patterns.mutate.s": get("patterns.mutate", "s"),
        "patterns.evaluate_tiles.s": get("patterns.evaluate_tiles", "s"),
        "patterns.evaluate_tiles.self_s": get("patterns.evaluate_tiles", "self_s"),
        "metrics.compute_metrics.s": get("metrics.compute_metrics", "s"),
        "metrics.compute_metrics.self_s": get("metrics.compute_metrics", "self_s"),
        "parallel.parallel_map.self_s": get("parallel.parallel_map", "self_s"),
        "io.write_frames.s": get("io.write_frames", "s"),
        "io.write_frames.bytes": get("io.write_frames", "work"),
        "io.save.s": get("io.save", "s"),
        "cli.self_s": get("cli", "self_s"),
        "trace.wall_s": wall,
    }


def unit_of(name: str) -> str:
    for suffix, unit in ((".grids", "count"), (".calls", "count"),
                         (".grid_steps", "count"), (".us_per_grid", "us"),
                         (".ms_per_call", "ms"), (".bytes", "bytes"),
                         ("_frac", "frac")):
        if name.endswith(suffix):
            return unit
    return "s"


def candidate_facts(spans):
    """Label balance and grid-steps simulated per halting dataset."""
    facts = {i: {"alive_frac": span[4], "grid_steps": 0}
             for i, span in enumerate(spans) if span[0] == "halting.generate_dataset"}
    for name, _, _, parent, work in spans:
        if name != "rules.step":
            continue
        while parent >= 0 and parent not in facts:
            parent = spans[parent][3]
        if parent in facts:
            facts[parent]["grid_steps"] += work
    return list(facts.values())


def own_threads() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 1


def run_rounds(cellevo, workload, argv, run_dir, seconds, tracer):
    """Timed rounds until `seconds` of them have elapsed (at least one)."""
    rounds, walls, cpus, layers, failed = [], [], [], [], 0
    while not walls or sum(walls) < seconds:
        out = run_dir / f"round{len(walls)}"
        captured = {}
        originals = capture(cellevo, workload.captures, captured)
        lo = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.install()
        buf = io.StringIO()
        w0, c0 = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(buf):
                code = cellevo.cli.main(argv + ["--out", str(out)])
        finally:
            wall, cpu = perf_counter() - w0, process_time() - c0
            if tracer:
                tracer.uninstall()
            for name, fn in originals.items():
                setattr(cellevo.cli, name, fn)
        walls.append(wall)
        cpus.append(cpu)
        if code != 0:
            failed += 1
            continue
        rounds.append({"out": out, "stdout": buf.getvalue(), "captured": captured})
        if tracer:
            layers.append(layer_metrics(tracer.summarize(lo, len(tracer.spans)),
                                        workload.requested_grid_steps(), wall))
    return rounds, walls, cpus, layers, failed


def check_run(cellevo, workload, seed, rounds, threads):
    """Process-wide checks, byte-identical rounds, then the workload's own."""
    require(rounds, "every round failed")
    require(not multiprocessing.active_children(), "the workload left child processes")
    require(threads <= (os.cpu_count() or 1), f"{threads} threads on {os.cpu_count()} CPUs")
    base = rounds[0]["out"]
    files = sorted(p.relative_to(base) for p in base.rglob("*") if p.is_file())
    for rnd in rounds[1:]:
        for rel in files:
            require((rnd["out"] / rel).read_bytes() == (base / rel).read_bytes(),
                    f"{rel} differs between rounds of the same inputs")
    return workload.check(cellevo, seed, rounds[0])


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cellevo = import_cellevo()
    except (SystemExit, ImportError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - T0
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**32
    run_dir = HERE / "out" / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        preps = []
        for _ in range(SETUP_REPEATS):
            t = perf_counter()
            argv = prepare(cellevo, workload, seed, run_dir)
            preps.append(perf_counter() - t)
        setup_s = import_s + statistics.median(preps)

        tracer = Tracer() if args.trace else None
        rounds, walls, cpus, layers, failed = run_rounds(
            cellevo, workload, argv, run_dir, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        threads = own_threads()
        try:
            facts = check_run(cellevo, workload, seed, rounds, threads)
            correct = True
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            facts, correct = {}, False
            print(f"run.py: check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if tracer:
        tracer.write(HERE / "out" / f"trace-{workload.name}-seed{seed}.jsonl", T0,
                     {"workload": workload.name, "seed": seed, "round_wall_s": walls,
                      "datasets": candidate_facts(tracer.spans),
                      "checks": facts})
        metrics = {name: {"value": statistics.median(m[name] for m in layers),
                          "unit": unit_of(name)} for name in layers[0]} if layers else {}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"run.py: {workload.name} seed {seed}: {len(walls)} rounds, "
          f"walls {[round(w, 3) for w in walls]}, threads {threads}, checks {facts}",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(walls), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
