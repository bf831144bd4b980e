"""The four benchmark workloads: their inputs, and checks of their outputs.

Each round of a workload is one `cellevo.cli.main(argv)` call with the
same argv apart from --out; run.py checks that all rounds wrote the same
bytes, so a workload checks its first round only. Checks raise
reference.CheckFailed. They run after the timed rounds and read only
files, captured stdout and the captured return value of the CLI's search
call.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

import reference as ref
from reference import require

# Rule search: the default fitness config, two candidates of one
# generation. sigma0 keeps both at the centre of the genome box, where
# about 40 % of grids survive the horizon.
RS = dict(popsize=2, generations=1, sigma0=0.001, n_grids=128, grid_side=64,
          horizon=256, epochs=20, n_predictors=3, split=0.75)
EVO_KERNEL = {"radius": 18, "ring_weights": [0.5, 1.0, 0.667],
              "core": "lenia_shell", "core_param": 4.0}
# Persistent metrics: s613 on the default grid, patch and escape box.
PM = dict(rule="s613", n_grids=16, grid_side=128, patch_side=32, box_side=64,
          window=16)
# Glider search: default grid, horizon and population. The GA seed is
# fixed because a GA run's cost depends heavily on it (see README).
GS = dict(rule="Orbium", ga_seed=0, generations=2, population=32,
          grid_side=128, steps=256, stride=8, truncation=0.25,
          survival_threshold=0.01, lambda_homeo=10.0)
# Simulate: one default 128^2 grid with a 64^2 noise patch, frames every 8.
SF = dict(rule="Orbium", side=128, patch_side=64, steps=1024, every=8)


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def _rule_dict(cellevo, name: str) -> dict:
    return cellevo.rules.rule_to_dict(cellevo.rules.load_preset(name))


class Workload:
    name = ""
    captures = ()  # names in cellevo.cli whose return value a round keeps

    def inputs(self, seed: int, run_dir: Path) -> list[str]:
        """Write this seed's input files and return argv without --out."""
        raise NotImplementedError

    def requested_grid_steps(self) -> int:
        """Grid-steps one round would simulate without retirement."""
        raise NotImplementedError

    def check(self, cellevo, seed: int, rnd: dict) -> dict:
        """Check one round's outputs; return facts worth reporting."""
        raise NotImplementedError


class RuleSearch(Workload):
    name = "rule-search"

    def inputs(self, seed, run_dir):
        cfg = run_dir / "evolve_ca.json"
        cfg.write_text(json.dumps({"fitness": {
            "n_predictors": RS["n_predictors"], "split": RS["split"]}}))
        return ["evolve-ca", "--mode", "predictor", "--workers", "1",
                "--seed", str(seed), "--config", str(cfg),
                "--generations", str(RS["generations"]),
                "--popsize", str(RS["popsize"]),
                "--sigma0", str(RS["sigma0"]),
                "--n-grids", str(RS["n_grids"]),
                "--grid-side", str(RS["grid_side"]),
                "--horizon", str(RS["horizon"]),
                "--epochs", str(RS["epochs"])]

    def requested_grid_steps(self):
        return RS["popsize"] * RS["generations"] * RS["n_grids"] * RS["horizon"]

    def check(self, cellevo, seed, rnd):
        n_val = RS["n_grids"] - int(RS["n_grids"] * RS["split"])
        quantum = 1.0 / (RS["n_predictors"] * n_val)
        out = rnd["out"]
        history = _read_jsonl(out / "history.jsonl")
        require(len(history) == RS["generations"], "history length")
        m = re.search(r"(\d+) evaluations, best fitness (\S+)", rnd["stdout"])
        require(m is not None, "evolve-ca printed no summary line")
        require(int(m.group(1)) == RS["popsize"] * RS["generations"],
                f"evaluations {m.group(1)}")
        best = max(h["best_fitness"] for h in history)
        require(abs(float(m.group(2)) - best) <= 1e-5 * max(1.0, abs(best)),
                "printed best fitness is not the history maximum")
        for h in history:
            # popsize 2: the other candidate's fitness is 2*mean - best.
            for f in (h["best_fitness"], 2 * h["mean_fitness"] - h["best_fitness"]):
                require(-1.0 - 1e-12 <= f <= 1e-12, f"fitness {f} outside [-1, 0]")
                k = f / quantum
                require(abs(k - round(k)) < 1e-6,
                        f"fitness {f} is not a multiple of 1/{round(1 / quantum)}")
        rule = json.loads((out / "best_rule.json").read_text())
        genome = history[-1]["best_genome"]
        got = [rule["genesis"]["mu"], rule["genesis"]["sigma"],
               rule["persistence"]["mu"], rule["persistence"]["sigma"]]
        require(np.allclose(got, ref.squash(genome), rtol=1e-12, atol=0.0),
                "best_rule.json does not match the squashed best genome")
        require(rule["kernel"] == EVO_KERNEL and rule["dt"] == 0.1,
                "best rule lost the evolution kernel or dt")

        # The best candidate's dataset: CMA-ES samples sigma0 * z from the
        # [seed, 0] stream in its first generation; grid j of candidate i
        # comes from the [seed, 1, i, 0, j] stream.
        z = np.random.default_rng([seed, 0]).standard_normal((RS["popsize"], 4))
        cand = int(np.argmin(np.abs(RS["sigma0"] * z - genome).sum(axis=1)))
        side, patch = RS["grid_side"], RS["grid_side"] // 2
        grids = np.stack([ref.patch_grid(side, patch, [seed, 1, cand, 0, j])
                          for j in range(8)])
        program_rule = cellevo.rules.rule_from_dict(rule)
        err = ref.check_step(cellevo.rules.step, program_rule, rule, grids)

        labels = ref.halting_labels(grids, rule, RS["horizon"])
        pooled = grids.reshape(8, 32, side // 32, 32, side // 32).mean(axis=(2, 4))
        rng = np.random.default_rng([seed, 2])
        pred = cellevo.predictor
        flat = rng.normal(0.0, 0.1, pred.PARAM_COUNT)
        coords = rng.choice(pred.PARAM_COUNT, size=24, replace=False)
        grad_err = ref.check_gradients(pred.loss_and_grads, pred.PredictorWeights.unpack,
                                       flat, pooled, labels.astype(float), coords)
        return {"step_err": err, "grad_rel_err": grad_err,
                "fd_batch_alive": float(labels.mean())}


class PersistentMetrics(Workload):
    name = "persistent-metrics"

    def inputs(self, seed, run_dir):
        return ["metrics", "--rule", PM["rule"], "--seed", str(seed),
                "--n-grids", str(PM["n_grids"]),
                "--grid-side", str(PM["grid_side"]),
                "--patch-side", str(PM["patch_side"]),
                "--box-side", str(PM["box_side"]),
                "--window", str(PM["window"])]

    def requested_grid_steps(self):
        return PM["n_grids"] * 2 * PM["window"]

    def check(self, cellevo, seed, rnd):
        report = json.loads((rnd["out"] / "metrics.json").read_text())
        require(report["n_grids"] == PM["n_grids"], "n_grids")
        for key in ("fertility", "mortality"):
            for v in report[key]:
                k = v * PM["n_grids"]
                require(0.0 <= v <= 1.0 and abs(k - round(k)) < 1e-9,
                        f"{key} {v} is not a multiple of 1/{PM['n_grids']}")
        require(max(report["mortality"]) < 0.5,
                f"s613 mortality {report['mortality']} reached 1/2")
        grids = np.stack([ref.patch_grid(PM["grid_side"], PM["patch_side"], [seed, i])
                          for i in range(4)])
        rule = _rule_dict(cellevo, PM["rule"])
        err = ref.check_step(cellevo.rules.step, cellevo.rules.load_preset(PM["rule"]),
                             rule, grids)
        return {"step_err": err}


class GliderSearch(Workload):
    name = "glider-search"
    captures = ("evolve_patterns",)

    def inputs(self, seed, run_dir):
        cfg = run_dir / "evolve_pattern.json"
        cfg.write_text(json.dumps({k: GS[k] for k in (
            "stride", "truncation", "survival_threshold", "lambda_homeo")}))
        return ["evolve-pattern", "--rule", GS["rule"], "--workers", "1",
                "--seed", str(GS["ga_seed"]), "--config", str(cfg),
                "--generations", str(GS["generations"]),
                "--population", str(GS["population"]),
                "--grid-side", str(GS["grid_side"]),
                "--steps", str(GS["steps"])]

    @staticmethod
    def expected_evaluations():
        pop = GS["population"]
        keep = max(1, round(pop * GS["truncation"]))
        return pop + (GS["generations"] - 1) * (pop - keep)

    def requested_grid_steps(self):
        return self.expected_evaluations() * GS["steps"]

    def check(self, cellevo, seed, rnd):
        out = rnd["out"]
        history = _read_jsonl(out / "history.jsonl")
        require(len(history) == GS["generations"], "history length")
        bests = [h["best_fitness"] for h in history]
        require(all(b >= a for a, b in zip(bests, bests[1:])),
                f"best fitness decreased over generations: {bests}")
        result = rnd["captured"].get("evolve_patterns")
        require(result is not None, "evolve_patterns result was not captured")
        require(result.evaluations == self.expected_evaluations(),
                f"evaluations {result.evaluations}")
        pattern = json.loads((out / "best_pattern.json").read_text())
        tile = np.array(pattern["cells"]).reshape(pattern["height"], pattern["width"])
        require(tile.min() >= 0.0 and tile.max() <= 1.0, "tile outside [0, 1]")
        require(pattern["rule"] == GS["rule"], "pattern names another rule")
        rule = _rule_dict(cellevo, GS["rule"])
        grid = ref.centered(GS["grid_side"], tile)
        err = ref.check_step(cellevo.rules.step, cellevo.rules.load_preset(GS["rule"]),
                             rule, grid)
        last = history[-1]
        fit = ref.pattern_fitness(tile, rule, GS["grid_side"], GS["steps"], GS["stride"],
                                  GS["survival_threshold"], GS["lambda_homeo"])
        require(fit["survived"] == last["best_survived"],
                f"re-simulated survival {fit['survived']} != {last['best_survived']}")
        gap = abs(fit["motility"] - last["best_motility"])
        scale = max(1.0, abs(last["best_motility"]))
        require(gap <= ref.RESIM_TOL * scale,
                f"re-simulated motility {fit['motility']} != {last['best_motility']}")
        require(abs(fit["total"] - last["best_fitness"]) <= 10 * ref.RESIM_TOL * scale,
                "re-simulated fitness differs")
        return {"step_err": err, "motility_gap": gap, "best_fitness": last["best_fitness"]}


class SimulateFrames(Workload):
    name = "simulate-frames"

    def inputs(self, seed, run_dir):
        return ["simulate", "--rule", SF["rule"], "--seed", str(seed),
                "--side", str(SF["side"]), "--init", "patch",
                "--patch-side", str(SF["patch_side"]),
                "--steps", str(SF["steps"]),
                "--frames-every", str(SF["every"])]

    def requested_grid_steps(self):
        return SF["steps"]

    def check(self, cellevo, seed, rnd):
        steps, every = SF["steps"], SF["every"]
        init = ref.patch_grid(SF["side"], SF["patch_side"], [seed, 0])
        summary = json.loads((rnd["out"] / "summary.json").read_text())
        means = summary["means"]
        require(len(means) == steps, "summary has the wrong number of means")
        require(min(means) >= 0.0 and max(summary["maxes"]) <= 1.0,
                "summary values outside [0, 1]")
        frames = sorted((rnd["out"] / "frames").glob("frame_*.pgm"))
        require(len(frames) == steps // every + 1,
                f"{len(frames)} frames, expected {steps // every + 1}")
        first = ref.decode_pgm(frames[0].read_bytes())
        require(np.array_equal(first, ref.quantize(init)),
                "frame 0 is not the quantized initial patch")
        for k, path in enumerate(frames[1:], start=1):
            mean = ref.decode_pgm(path.read_bytes()).mean() / 255.0
            require(abs(mean - means[k * every - 1]) <= 1.0 / 255.0,
                    f"frame {k} mean {mean} vs summary {means[k * every - 1]}")
        rule = _rule_dict(cellevo, SF["rule"])
        err = ref.check_step(cellevo.rules.step, cellevo.rules.load_preset(SF["rule"]),
                             rule, init)
        return {"step_err": err}


WORKLOADS = {w.name: w for w in (RuleSearch(), PersistentMetrics(),
                                 GliderSearch(), SimulateFrames())}
