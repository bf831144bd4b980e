"""Property: a small setting either runs quietly or is refused before --out exists.

For each subcommand, hypothesis draws small settings with zero, negative
and below-kernel-side values mixed in; a value bounded by a grid side is
drawn within the side already drawn. It adds --config files that set
config-only fields (and evolve-ca's mode on some draws) and, for render,
--pattern files with small tiles. simulate, metrics and evolve-pattern
take their rule from --rule, --rule-file or the config file's `rule` key
(a preset name or a rule object); a rule object may carry an extreme
`mu`, `sigma`, `dt` or `core_param`.
Every run must exit 0 with nothing on stderr, or exit 1 with a
`cellevo: error:` message and no --out. A run whose settings hold no bad
value must exit 0.
"""
import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cellevo.cli import main
from cellevo.config import DEFAULT_EVO_KERNEL, MODES
from cellevo.io import save_pattern
from cellevo.rules import load_preset, rule_to_dict

RULES = ("Orbium", "s613")
SEED = (st.integers(0, 3), st.integers(-2, -1))


def kernel_side(rule):
    return 2 * load_preset(rule).kernel.radius + 1


def ints(low, high):
    """Usual values in [low, high]; bad values are zero, negative or below low."""
    return st.integers(low, high), st.integers(-2, low - 1)


def within(side, low, high, margin=0):
    """A spec for a value in [low, min(high, side - margin)], where `side`
    names a value drawn before it; bad values as in `ints`."""
    return lambda drawn: ints(low, max(low, min(high, drawn[side] - margin)))


@st.composite
def values(draw, **specs):
    """(values, whether one is bad): one value per (usual, bad) spec, drawn in
    order; a spec may be a function of the values drawn before it. Half the
    draws take every value from its usual values; the other half take one
    spec's value from its bad ones."""
    bad = draw(st.sampled_from(list(specs))) if draw(st.booleans()) else None
    drawn = {}
    for name, spec in specs.items():
        usual, bad_values = spec(drawn) if callable(spec) else spec
        drawn[name] = draw(bad_values if name == bad else usual)
    return drawn, bad is not None


# Extreme rule parameters: they overflow on the way to an exact result,
# or lie out of range. BUMP_CHANGES are updates to one growth bump.
BUMP_CHANGES = ({"sigma": 5e-324}, {"sigma": 1e-300}, {"sigma": 1e-200},
                {"sigma": 1e308}, {"sigma": 0.0}, {"sigma": -1.0},
                {"mu": 1e308, "sigma": 1e-300}, {"mu": -1e308}, {"mu": 1e308},
                {"mu": math.inf}, {"sigma": math.nan})
DTS = (0.0, 1.0, 5e-324, 1.0000000000000002, -0.1, math.nan)
CORE_PARAMS = (1e308, 1e-300, 5e-324, 0.0, math.inf)
RULE_FILE = "rule.json"  # a --rule-file, written in the example's directory


@st.composite
def extreme_rule(draw, name):
    """Preset `name` as a rule object with one extreme parameter."""
    rule = rule_to_dict(load_preset(name))
    change = draw(st.sampled_from(["bump", "dt", "core_param"]))
    if change == "bump":
        bumps = [k for k in ("growth", "genesis", "persistence") if k in rule]
        rule[draw(st.sampled_from(bumps))].update(draw(st.sampled_from(BUMP_CHANGES)))
    elif change == "dt":
        rule["dt"] = draw(st.sampled_from(DTS))
    else:
        rule["kernel"]["core"] = draw(st.sampled_from(["lenia_shell",
                                                       "gaussian_ring"]))
        rule["kernel"]["core_param"] = draw(st.sampled_from(CORE_PARAMS))
    return rule


@st.composite
def rule_source(draw, name, extreme=False):
    """(argv, config) giving preset `name` through --rule, --rule-file or
    the config file's `rule` key (a name or an object); a flag may
    override another rule in the config file. With `extreme`, the rule is
    an object with one extreme parameter. A --rule-file's content is the
    config's RULE_FILE entry."""
    routes = ["--rule-file", "config-object"]
    if not extreme:
        routes += ["--rule", "config-name"]
    route = draw(st.sampled_from(routes))
    config = {}
    if route.startswith("--") and draw(st.booleans()):
        config["rule"] = draw(st.sampled_from(RULES))  # the flag wins
    if route == "--rule":
        return ["--rule", name], config
    if route == "config-name":
        return [], {"rule": name}
    rule = draw(extreme_rule(name)) if extreme else rule_to_dict(load_preset(name))
    if route == "config-object":
        return [], {"rule": rule}
    return ["--rule-file", RULE_FILE], {**config, RULE_FILE: rule}


def rules_from(name):
    """A `values` spec: usual rules, and rule objects with an extreme value."""
    return rule_source(name), rule_source(name, extreme=True)


def flags(**values):
    argv = []
    for name, value in values.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    return argv


# Each strategy draws (argv, config dict or None, pattern or None, whether
# a value is bad); a pattern is (tile, preset name). A config key RULE_FILE
# is not part of the config: it holds the content of the --rule-file.

@st.composite
def simulate(draw):
    rule = draw(st.sampled_from(RULES))
    v, bad = draw(values(seed=SEED, side=ints(kernel_side(rule), 64),
                         steps=ints(0, 8), patch_side=within("side", 0, 32),
                         frames_every=ints(0, 4), rule=rules_from(rule)))
    init = draw(st.sampled_from(["patch", "uniform"]))
    rule_argv, config = v.pop("rule")
    argv = ["simulate", *rule_argv, "--init", init, *flags(**v)]
    return argv, config, None, bad


@st.composite
def evolve_ca(draw):
    mode = draw(st.sampled_from(MODES))
    low_side = 64 if mode == "predictor" else 2 * DEFAULT_EVO_KERNEL.radius + 1
    v, bad = draw(values(seed=SEED, generations=ints(1, 2), popsize=ints(2, 4),
                         n_grids=ints(4, 8), grid_side=ints(low_side, 64),
                         horizon=ints(1, 8), epochs=ints(0, 1),
                         workers=ints(1, 2),
                         patch_side=within("grid_side", 0, 48)))
    config = {"fitness": {"patch_side": v.pop("patch_side")}}
    argv = ["evolve-ca", *flags(**v)]
    if draw(st.booleans()):
        config["mode"] = mode
    else:
        argv += ["--mode", mode]
    return argv, config, None, bad


@st.composite
def evolve_pattern(draw):
    rule = draw(st.sampled_from(RULES))
    v, bad = draw(values(
        seed=SEED, grid_side=ints(kernel_side(rule), 64),
        tile_side=ints(3, 16), steps=ints(1, 8), population=ints(2, 4),
        generations=ints(1, 2), workers=ints(1, 2), stride=ints(1, 1),
        weight_std=(st.floats(0.0, 0.5),
                    st.sampled_from([-1.0, math.nan, math.inf])),
        act_prob=(st.floats(0.0, 1.0), st.sampled_from([-0.5, 2.0, math.nan])),
        rule=rules_from(rule)))
    rule_argv, config = v.pop("rule")
    config.update((name, v.pop(name)) for name in ("stride", "weight_std",
                                                   "act_prob"))
    return ["evolve-pattern", *rule_argv, *flags(**v)], config, None, bad


@st.composite
def metrics(draw):
    rule = draw(st.sampled_from(RULES))
    v, bad = draw(values(seed=SEED, grid_side=ints(kernel_side(rule), 64),
                         n_grids=ints(1, 8),
                         patch_side=within("grid_side", 1, 16),
                         box_side=within("grid_side", 1, 16, margin=1),
                         window=ints(1, 8), rule=rules_from(rule)))
    rule_argv, config = v.pop("rule")
    return ["metrics", *rule_argv, *flags(**v)], config, None, bad


@st.composite
def render(draw):
    tile = st.builds(np.full, st.tuples(st.integers(1, 4), st.integers(1, 4)),
                     st.floats(0.0, 1.0))
    pattern = draw(st.none() | st.tuples(tile, st.sampled_from(RULES)))
    # Without a pattern, render paints a 4 * radius demo tile under Orbium.
    low = (kernel_side(pattern[1]) if pattern
           else 4 * load_preset("Orbium").kernel.radius)
    v, bad = draw(values(seed=SEED, grid_side=ints(low, 64),
                         steps=ints(0, 8), every=ints(1, 4)))
    return ["render", *flags(**v)], None, pattern, bad


COMMANDS = {"simulate": simulate(), "evolve-ca": evolve_ca(),
            "evolve-pattern": evolve_pattern(), "metrics": metrics(),
            "render": render()}


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_small_setting_runs_or_is_refused_before_out(tmp_path_factory,
                                                     command, data):
    argv, config, pattern, bad = data.draw(COMMANDS[command])
    tmp = tmp_path_factory.mktemp(command)  # fresh per example
    if config and RULE_FILE in config:
        config = dict(config)
        (tmp / RULE_FILE).write_text(json.dumps(config.pop(RULE_FILE)))
        argv = [str(tmp / a) if a == RULE_FILE else a for a in argv]
    if config is not None:
        (tmp / "config.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp / "config.json")]
    if pattern is not None:
        tile, rule = pattern
        path = save_pattern(tmp / "pattern.json", name="p", tile=tile, rule=rule)
        argv = [*argv, "--pattern", str(path)]
    out = tmp / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    event(f"exit {code}" + (" (a bad value)" if bad else ""))
    assert code in (0, 1), err.getvalue()
    if not bad:
        assert code == 0, err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("cellevo: error:")
        assert not out.exists()
