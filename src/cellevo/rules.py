"""Update rules for continuous cellular automata.

Two families share the same loop shape A' = clip(A + dt * delta, 0, 1):

* single-channel growth:  delta = G(n)
* gated growth:           delta = (1 - A) * G_gen(n) + A * G_per(n)

where n = K * A is the toroidal neighborhood sum and each G is a
Gaussian bump rescaled to (-1, 1]. `step` convolves a batch one chunk
of whole grids at a time, CHUNK_CELLS cells or one grid, so no spectrum
is as large as the batch. It updates each chunk's convolution output one
cache-sized block of cells at a time with two scratch buffers, and the
final clip writes into the chunk's slice of the result. A grid's FFT and
update do not depend on the rest of its batch, so this is bit-identical
to evaluating the formula above on whole arrays. Kernels are concentric
rings over a disc of radius R, built from a declarative spec so rules
serialize to plain JSON.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import MISSING, dataclass
from functools import lru_cache
from importlib import resources
from types import UnionType
from typing import NamedTuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from .grid import Kernel, check_kernel_fits, convolve

LENIA = "lenia"
GLABERISH = "glaberish"
FRAMEWORKS = (LENIA, GLABERISH)

KERNEL_CORES = ("lenia_shell", "gaussian_ring")


@dataclass(frozen=True)
class GrowthBump:
    """Gaussian growth g(n) = 2 exp(-(n - mu)^2 / (2 sigma^2)) - 1."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError("growth mu must be finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("growth sigma must be positive")


def _growth(bump: GrowthBump, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write 2 exp(-z^2 / 2) - 1 with z = (n - mu) / sigma into `out`.

    z z (-1/2) and the textbook (-z/2) z round identically wherever exp
    does not return exactly 0 or 1, and this order needs no second buffer.
    The exponent is floored at -50: 2 exp(x) - 1 rounds to exactly -1 for
    every x <= -39, and exp is 10-90 times slower per element where its
    result is subnormal or underflows (x below about -708), as it is for
    most cells under a narrow bump. So a z or z z that overflows to inf is
    exact too, and callers ignore that overflow. `out` may be `n` itself.
    """
    np.subtract(n, bump.mu, out=out)
    out /= bump.sigma
    np.multiply(out, out, out=out)
    out *= -0.5
    np.maximum(out, -50.0, out=out)
    np.exp(out, out=out)
    out *= 2.0
    out -= 1.0
    return out


def growth_value(bump: GrowthBump, n):
    """Evaluate the growth bump; peak +1 at n = mu, floor -1 far away."""
    n = np.asarray(n, dtype=np.float64)
    with np.errstate(over="ignore"):  # exact: see `_growth`
        out = _growth(bump, n, np.empty_like(n))
    return out.item() if out.ndim == 0 else out


@dataclass(frozen=True)
class KernelSpec:
    """Declarative ring kernel: radius, per-ring amplitudes, ring profile.

    With B rings, a cell at relative radius r in [0, 1] lands in ring
    k = min(floor(B r), B - 1) at intra-ring position q = B r - k; its
    unnormalized weight is ring_weights[k] / max(ring_weights) * core(q).
    """

    radius: int
    ring_weights: tuple[float, ...]
    core: str = "lenia_shell"
    core_param: float = 4.0

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("kernel radius must be at least 1")
        if self.core not in KERNEL_CORES:
            raise ValueError(
                f"unknown kernel core {self.core!r}; expected one of {KERNEL_CORES}"
            )
        weights = tuple(float(b) for b in self.ring_weights)
        if not weights:
            raise ValueError("ring_weights must be non-empty")
        if any(b < 0 or not math.isfinite(b) for b in weights):
            raise ValueError("ring_weights must be finite and nonnegative")
        if all(b == 0 for b in weights):
            raise ValueError("ring_weights must include a positive entry")
        if not (math.isfinite(self.core_param) and self.core_param > 0):
            raise ValueError("core_param must be positive")
        object.__setattr__(self, "ring_weights", weights)


def _core_profile(spec: KernelSpec, q: np.ndarray) -> np.ndarray:
    if spec.core == "lenia_shell":
        # exp(alpha * (1 - 1/(4 q (1 - q)))): smooth bump, exactly 0 at q in {0, 1}.
        out = np.zeros_like(q)
        interior = (q > 0.0) & (q < 1.0)
        qi = q[interior]
        out[interior] = np.exp(spec.core_param * (1.0 - 0.25 / (qi * (1.0 - qi))))
        return out
    # gaussian_ring: exp(-(q - 1/2)^2 / (2 w^2)); positive at ring edges.
    z = (q - 0.5) / spec.core_param
    return np.exp(-0.5 * z * z)


@lru_cache(maxsize=None)
def build_kernel(spec: KernelSpec) -> Kernel:
    """Realize a KernelSpec as nonnegative weights summing to 1 on its
    (2R+1)^2 stencil, exactly 0 outside the disc. Ring weights are relative
    amplitudes, divided by the largest, so their sum cannot overflow."""
    ax = np.arange(-spec.radius, spec.radius + 1, dtype=np.float64)
    r = np.hypot(ax[:, None], ax[None, :]) / spec.radius
    nrings = len(spec.ring_weights)
    u = nrings * r
    ring = np.minimum(np.floor(u), nrings - 1).astype(int)
    q = u - ring
    amp = (np.asarray(spec.ring_weights) / max(spec.ring_weights))[ring]
    with np.errstate(over="ignore"):  # an overflowed exponent gives exp 0
        profile = _core_profile(spec, q)
    weights = np.where(r <= 1.0, amp * profile, 0.0)
    total = weights.sum()
    if total <= 0.0:
        raise ValueError(
            f"kernel weights sum to 0 at radius {spec.radius} with core"
            f" {spec.core!r} and core_param {spec.core_param!r}")
    return Kernel(spec.radius, weights / total)


def physical_memory() -> int:
    """The host's physical memory in bytes, or 0 where the platform does not
    report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return 0


def check_kernel(spec: KernelSpec, side: int, field: str = "grid_side") -> None:
    """Refuse a kernel that does not fit the grid side `field`, then a side
    whose one float64 grid exceeds the host's physical memory (where the
    platform reports it), then a kernel whose weights all come out 0. Both
    side checks come first, so no stencil larger than a grid is built."""
    check_kernel_fits(spec.radius, side, field)
    memory = physical_memory()
    if 0 < memory < 8 * side * side:
        raise ValueError(f"{field} {side} needs {8 * side * side} bytes per grid,"
                         f" more than the {memory} bytes of physical memory")
    build_kernel(spec)


def check_batch(count: int, side: int, k: float, field: str) -> None:
    """Refuse a batch of `count` side x side grids, the count setting `field`,
    when the k batch-sized float64 arrays its run holds at its peak exceed
    the host's physical memory; where the platform does not report its
    memory, nothing is refused. The count stays an exact integer in the
    comparison, so no count is too large to compare."""
    memory = physical_memory()
    if memory and count * side * side > memory / (8 * k):
        raise ValueError(f"{field} {count} needs {k:g} x {8 * side * side} bytes"
                         f" per grid of side {side}, more than the {memory} bytes"
                         " of physical memory")


@dataclass(frozen=True)
class RuleParams:
    """A complete update rule: kernel, growth bump(s), step size, framework.

    growth is used by the "lenia" framework; genesis/persistence by
    "glaberish". dt = 0 is allowed and freezes the state (useful as a
    null rule in tests and metrics baselines).
    """

    name: str
    framework: str
    kernel: KernelSpec
    dt: float
    growth: GrowthBump | None = None
    genesis: GrowthBump | None = None
    persistence: GrowthBump | None = None

    def __post_init__(self):
        if self.framework not in FRAMEWORKS:
            raise ValueError(
                f"unknown framework {self.framework!r}; expected one of {FRAMEWORKS}"
            )
        if not (math.isfinite(self.dt) and 0.0 <= self.dt <= 1.0):
            raise ValueError("dt must lie in [0, 1]")
        if self.framework == LENIA:
            if self.growth is None or self.genesis or self.persistence:
                raise ValueError("lenia rules take exactly one growth bump")
        else:
            if self.growth is not None or not (self.genesis and self.persistence):
                raise ValueError(
                    "glaberish rules take genesis and persistence bumps"
                )

    def zero_is_absorbing(self) -> bool:
        """True when an all-zero state is an exact fixed point.

        Empty cells see n = 0, so they stay empty iff the relevant growth
        at 0 is nonpositive (the clip floors the update at 0).
        """
        bump = self.growth if self.framework == LENIA else self.genesis
        return growth_value(bump, 0.0) <= 0.0


# Cells per elementwise pass in `step`: 128 KB per float64 operand, so the
# operands of a pass (state, sums, result, two scratch buffers) stay in L2.
BLOCK_CELLS = 1 << 14
# Cells per convolution in `step` (512 KB of float64), rounded down to whole
# grids and at least one grid: its spectrum and sums are about this large.
CHUNK_CELLS = 1 << 16


def _update(sums: np.ndarray, state: np.ndarray, rule: RuleParams,
            out: np.ndarray) -> None:
    """Write clip(state + dt * delta(state, sums), 0, 1) into `out`,
    BLOCK_CELLS cells at a time. `sums` (overwritten) and `out` are
    contiguous and shaped like `state`; `out` may be `sums` itself."""
    cells = sums.reshape(-1)  # views: `sums` and `out` are contiguous
    dest = out.reshape(-1)
    flat = state.reshape(-1)  # copies only a non-contiguous state
    size = min(BLOCK_CELLS, cells.size)
    a, b = np.empty(size), np.empty(size)
    with np.errstate(over="ignore"):  # exact: see `_growth`
        for lo in range(0, cells.size, BLOCK_CELLS):
            n = cells[lo : lo + BLOCK_CELLS]
            s = flat[lo : lo + BLOCK_CELLS]
            d = dest[lo : lo + BLOCK_CELLS]
            t, u = a[: n.size], b[: n.size]
            if rule.framework == LENIA:
                _growth(rule.growth, n, t)
            else:
                # delta = (1 - A) G_gen(n) + A G_per(n)
                _growth(rule.genesis, n, t)
                t *= np.subtract(1.0, s, out=u)
                _growth(rule.persistence, n, u)
                u *= s
                t += u
            t *= rule.dt
            np.add(s, t, out=d)
            np.clip(d, 0.0, 1.0, out=d)


def step(state: np.ndarray, rule: RuleParams) -> np.ndarray:
    """One update A' = clip(A + dt * delta(A, K*A), 0, 1), batched over leading axes.

    The grids go through `convolve` one chunk at a time: as many whole
    grids as fit in CHUNK_CELLS cells, and at least one. Each chunk's
    neighborhood sums are updated in place, BLOCK_CELLS cells at a time
    with two block-sized scratch buffers, and the final clip writes into
    the chunk's slice of one preallocated result; a batch of one chunk
    returns its sums array. So beyond its result a step holds about three
    chunk-sized arrays (the spectrum, the inverse FFT's copy of it and the
    sums), whatever the batch size. Every cell goes through the same IEEE
    operations as the formula evaluated on whole arrays, so results are
    bit-identical to it. `state` is only read; the result never shares its
    memory.
    """
    state = np.asarray(state, dtype=np.float64)
    kernel = build_kernel(rule.kernel)
    grid_cells = math.prod(state.shape[-2:])
    if state.size <= max(CHUNK_CELLS, grid_cells):  # one chunk
        out = np.ascontiguousarray(convolve(state, kernel))
        _update(out, state, rule, out)
        return out
    out = np.empty(state.shape)
    grids = state.reshape(-1, *state.shape[-2:])  # copies only a non-contiguous state
    dest = out.reshape(grids.shape)  # a view: writes land in `out`
    per = max(1, CHUNK_CELLS // grid_cells)
    for lo in range(0, len(grids), per):
        chunk = grids[lo : lo + per]
        sums = np.ascontiguousarray(convolve(chunk, kernel))
        _update(sums, chunk, rule, dest[lo : lo + per])
    return out


def trajectory(work: np.ndarray, rule: RuleParams, steps: int):
    """Yield (t, each) after each `step` t = 1..steps of a (N, H, W) batch.

    `each(f)` applies a per-grid function `f`, which maps (M, H, W) to
    (M, ...), to all N grids at step t and returns the (N, ...) result;
    call it before asking for the next step. When the empty state is
    absorbing under `rule`, grids whose max is exactly 0 are retired: their
    future is known, and per-grid updates are bitwise independent of batch
    composition. A retired grid is no longer stepped or stored, and `each`
    reads it as a zero grid, reducing one zero grid however many have
    retired. Once no grid is left, nothing is stepped.
    """
    n, shape = work.shape[0], work.shape[1:]
    retire = rule.zero_is_absorbing()
    active = np.arange(n)

    def each(f):
        if active.size == n:
            return f(work)
        out = np.repeat(f(np.zeros((1, *shape))), n, axis=0)
        if active.size:
            out[active] = f(work)
        return out

    for t in range(1, steps + 1):
        if active.size:
            # Rebinding the parameter drops the caller's initial batch.
            work = step(work, rule)
            if retire:
                alive = work.max(axis=(-2, -1)) != 0.0
                if not alive.all():
                    active, work = active[alive], work[alive]
        yield t, each


class RunResult(NamedTuple):
    final: np.ndarray
    means: np.ndarray  # mean cell value after each step, shape (steps, ...)
    maxes: np.ndarray  # max cell value after each step


def run(state: np.ndarray, rule: RuleParams, steps: int, every: int = 0,
        on_frame=None) -> RunResult:
    """Iterate `step` and record per-step mean/max summaries.

    With every > 0 it also hands each frame, uncopied, to `on_frame` as it
    is produced: step 0, every `every` steps and the last step. It keeps
    no frame, so memory does not grow with `steps`. Summaries, frames and
    the final state are read through `trajectory`'s `each`, so a grid that
    reaches exactly 0 under an absorbing rule stops being simulated and
    reads 0 from then on.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if every and on_frame is None:
        raise ValueError("frames every > 0 steps need an on_frame consumer")
    state = np.asarray(state, dtype=np.float64)
    lead = state.shape[:-2]
    batch = state.reshape(-1, *state.shape[-2:])
    means = np.zeros((steps, batch.shape[0]))
    maxes = np.zeros((steps, batch.shape[0]))
    if every:
        on_frame(state)
    for t, each in trajectory(batch, rule, steps):
        means[t - 1] = each(lambda w: w.mean(axis=(-2, -1)))
        maxes[t - 1] = each(lambda w: w.max(axis=(-2, -1)))
        if every and (t % every == 0 or t == steps):
            on_frame(each(lambda w: w).reshape(state.shape))
    return RunResult(
        each(lambda w: w).reshape(state.shape) if steps else state.copy(),
        means.reshape(steps, *lead),
        maxes.reshape(steps, *lead),
    )


# --- serialization -----------------------------------------------------------

def _require_keys(mapping: dict, allowed: set[str], required: set[str], what: str):
    for key in mapping:
        if key not in allowed:
            raise ValueError(f"unknown {what} field {key!r}")
    for key in sorted(required):
        if key not in mapping:
            raise ValueError(f"missing {what} field {key!r}")


def from_json(cls, data, what: str):
    """Build dataclass `cls` from a parsed JSON object; `what` names it in errors.

    Unknown keys, missing keys (fields without a default) and values of
    the wrong JSON type are errors that name the field; see `json_value`.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object")
    fields = dataclasses.fields(cls)
    required = {
        f.name for f in fields
        if f.default is MISSING and f.default_factory is MISSING
    }
    _require_keys(data, {f.name for f in fields}, required, what)
    hints = _type_hints(cls)
    return cls(**{key: json_value(value, hints[key], key, what)
                  for key, value in data.items()})


# JSON types each scalar annotation accepts; a bool is never a number.
_JSON_SCALARS = {int: (int, "an integer"), float: ((int, float), "a number"),
                 str: (str, "a string")}
_type_hints = lru_cache(maxsize=None)(get_type_hints)  # evaluated once per class


def json_value(value, hint, key: str, what: str):
    """Check one JSON value against field `key`'s annotation and convert it.

    int takes an int only (not 2.0), float a float or an int within the
    float range, str a string, tuple[X, ...] a list of X, and a dataclass
    an object, parsed by `from_json` under the field's name. A RuleParams
    also takes a string, the name of a preset (KeyError if unknown). A
    union reads as its first member, so `X | None` reads as X.
    """
    if get_origin(hint) in (Union, UnionType):
        hint = get_args(hint)[0]
    if hint is RuleParams and isinstance(value, str):
        return load_preset(value)
    if dataclasses.is_dataclass(hint):
        return from_json(hint, value, key)
    if get_origin(hint) is tuple:
        if isinstance(value, list):
            return tuple(json_value(v, get_args(hint)[0], key, what) for v in value)
        expected = "a list"
    else:
        types, expected = _JSON_SCALARS[hint]
        if isinstance(value, types) and not isinstance(value, bool):
            try:
                return hint(value)
            except OverflowError:  # an int beyond the float range
                raise ValueError(f"{what} field {key!r} is too large for a"
                                 " float") from None
    raise ValueError(
        f"{what} field {key!r} must be {expected}, got {json.dumps(value)}"
    )


def rule_from_dict(d: dict) -> RuleParams:
    """Parse the JSON rule format; see `from_json`."""
    return from_json(RuleParams, d, "rule")


def rule_to_dict(rule: RuleParams) -> dict:
    """The JSON rule format: absent bumps left out, dt last."""
    out = {k: v for k, v in dataclasses.asdict(rule).items() if v is not None}
    out["kernel"]["ring_weights"] = list(rule.kernel.ring_weights)
    out["dt"] = out.pop("dt")
    return out


# --- bundled presets ---------------------------------------------------------

# Listing order: classic single-growth rules first, then the evolved rules.
PRESET_ORDER = (
    "Orbium",
    "P_s_labens",
    "S_valvatus",
    "D_valvatus",
    "H_natans",
    "s7",
    "s613",
    "s11",
    "s643",
    "s113",
)


@lru_cache(maxsize=1)
def _preset_index() -> dict[str, RuleParams]:
    loaded = {}
    root = resources.files(__package__) / "presets"
    for entry in root.iterdir():
        if entry.name.endswith(".json"):
            rule = rule_from_dict(json.loads(entry.read_text()))
            loaded[rule.name] = rule
    order = [n for n in PRESET_ORDER if n in loaded]
    order += sorted(n for n in loaded if n not in PRESET_ORDER)
    return {n: loaded[n] for n in order}


def preset_names() -> list[str]:
    return list(_preset_index())


def load_preset(name: str) -> RuleParams:
    presets = _preset_index()
    if name not in presets:
        known = ", ".join(presets)
        raise KeyError(f"unknown preset {name!r}; available: {known}")
    return presets[name]
