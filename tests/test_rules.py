"""Growth bumps, ring kernels, update steps, presets, serialization."""
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellevo.rules as rules
from cellevo.grid import convolve, place_centered
from cellevo.rules import (
    GrowthBump,
    KernelSpec,
    RuleParams,
    build_kernel,
    check_kernel,
    growth_value,
    load_preset,
    preset_names,
    rule_from_dict,
    rule_to_dict,
    run,
    step,
)
from conftest import (
    loop_glaberish_step,
    loop_growth,
    loop_lenia_step,
    loop_ring_kernel,
)

ORBIUM_KERNEL = KernelSpec(radius=13, ring_weights=(1.0,))
NATANS_KERNEL = KernelSpec(radius=18, ring_weights=(0.5, 1.0, 0.667))

# 2 e^{-1/2} - 1, correctly rounded to double (peak-offset growth value).
TWO_EXP_HALF_MINUS_ONE = 0.21306131942526686


def lenia_rule(mu, sigma, kernel=ORBIUM_KERNEL, dt=0.1, name="test"):
    return RuleParams(name, "lenia", kernel, dt, growth=GrowthBump(mu, sigma))


def glaberish_rule(gen, per, kernel=ORBIUM_KERNEL, dt=0.1, name="test"):
    return RuleParams(
        name, "glaberish", kernel, dt,
        genesis=GrowthBump(*gen), persistence=GrowthBump(*per),
    )


def always_decay_rule(kernel=ORBIUM_KERNEL, dt=0.1):
    # mu far above any reachable n: the bump underflows to exactly -1.
    return lenia_rule(50.0, 0.1, kernel=kernel, dt=dt, name="decay")


def always_grow_rule(kernel=ORBIUM_KERNEL, dt=0.1):
    # sigma so wide the exponential is 1.0 in double precision: growth +1.
    return lenia_rule(0.0, 1e9, kernel=kernel, dt=dt, name="grow")


class TestGrowthValue:
    def test_peak_is_one(self):
        assert growth_value(GrowthBump(0.150, 0.0150), 0.150) == 1.0

    def test_offset_by_sigma_closed_form(self):
        got = growth_value(GrowthBump(0.150, 0.0150), 0.165)
        assert abs(got - TWO_EXP_HALF_MINUS_ONE) < 1e-12
        assert abs(got - (2.0 * math.exp(-0.5) - 1.0)) < 1e-12

    def test_far_tail_saturates_at_minus_one(self):
        assert growth_value(GrowthBump(0.1, 0.01), 5.0) == -1.0

    def test_symmetry_about_mu(self):
        b = GrowthBump(0.3, 0.05)
        assert growth_value(b, 0.3 + 0.123) == pytest.approx(
            growth_value(b, 0.3 - 0.123), abs=1e-15
        )

    @settings(max_examples=50, deadline=None)
    @given(
        mu=st.floats(-1.0, 1.0),
        sigma=st.floats(1e-3, 1.0),
        n=st.floats(-2.0, 2.0),
    )
    def test_range_and_oracle(self, mu, sigma, n):
        got = growth_value(GrowthBump(mu, sigma), n)
        assert -1.0 <= got <= 1.0
        assert got == pytest.approx(loop_growth(n, mu, sigma), abs=1e-15)

    def test_vectorized_matches_scalar(self):
        b = GrowthBump(0.2, 0.04)
        ns = np.linspace(0.0, 0.5, 11)
        vec = growth_value(b, ns)
        assert vec.shape == ns.shape
        for n, v in zip(ns, vec):
            assert v == growth_value(b, float(n))

    def test_scalar_input_gives_python_float(self):
        got = growth_value(GrowthBump(0.2, 0.04), 0.25)
        assert type(got) is float
        assert type(growth_value(GrowthBump(0.2, 0.04), np.float64(0.25))) is float

    def test_bitwise_equal_to_textbook_order(self):
        # 2 exp((-z/2) z) - 1, including the underflow and overflow ends of z.
        rng = np.random.default_rng(3)
        n = np.concatenate([
            rng.uniform(-5.0, 5.0, 5000),
            [1e-160, -1e-160, 5e-324, 1e154, -1e154, 1e300, np.inf, -np.inf],
        ])
        for mu, sigma in [(0.15, 0.015), (0.0, 1e9), (50.0, 0.1), (0.3, 1e-3)]:
            z = (n - mu) / sigma
            with np.errstate(over="ignore"):
                expected = 2.0 * np.exp(-0.5 * z * z) - 1.0
                got = growth_value(GrowthBump(mu, sigma), n)
            assert got.tobytes() == expected.tobytes()

    def test_bitwise_equal_to_textbook_across_exponent_range(self):
        # Exponents -z^2/2 from 0 down to -1e6, densely through the band where
        # 2 exp(x) - 1 reaches -1 and the band where exp goes subnormal.
        exponents = -np.concatenate([
            np.linspace(0.0, 60.0, 6001),
            np.linspace(700.0, 750.0, 5001),
            np.geomspace(1.0, 1e6, 2000),
        ])
        bump = GrowthBump(0.3, 0.02)
        n = bump.mu + bump.sigma * np.sqrt(-2.0 * exponents)
        for x in (n, 2 * bump.mu - n):
            assert growth_value(bump, x).tobytes() == textbook_growth(bump, x).tobytes()

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            GrowthBump(0.1, 0.0)
        with pytest.raises(ValueError, match="sigma"):
            GrowthBump(0.1, -0.2)


class TestBuildKernel:
    def test_matches_loop_oracle_lenia_shell(self):
        spec = KernelSpec(radius=5, ring_weights=(0.5, 1.0, 0.25))
        expected = loop_ring_kernel(5, (0.5, 1.0, 0.25), "lenia_shell", 4.0)
        assert np.abs(build_kernel(spec).weights - expected).max() < 1e-12

    def test_matches_loop_oracle_gaussian_ring(self):
        spec = KernelSpec(
            radius=4, ring_weights=(1.0, 0.3), core="gaussian_ring", core_param=0.15
        )
        expected = loop_ring_kernel(4, (1.0, 0.3), "gaussian_ring", 0.15)
        assert np.abs(build_kernel(spec).weights - expected).max() < 1e-12

    def test_gaussian_ring_radius1_uniform_cross(self):
        # q is 0 at the center and 1 at the axis edge, both at distance 1/2
        # from the ring midpoint, so the five in-disc cells share one weight.
        k = build_kernel(
            KernelSpec(radius=1, ring_weights=(1.0,), core="gaussian_ring",
                       core_param=0.2)
        )
        expected = np.array([[0, 0.2, 0], [0.2, 0.2, 0.2], [0, 0.2, 0]])
        assert np.abs(k.weights - expected).max() < 1e-12

    def test_lenia_shell_center_and_rim_are_zero(self):
        k = build_kernel(ORBIUM_KERNEL)
        assert k.weights[13, 13] == 0.0  # center: q = 0
        assert k.weights[13, 0] == 0.0  # on-axis rim: q = 1

    def test_shell_peak_at_half_radius(self):
        # Single ring: profile is maximal where d = R/2 exactly.
        spec = KernelSpec(radius=10, ring_weights=(1.0,))
        w = build_kernel(spec).weights
        assert w[10, 15] == w.max()  # d = 5 on the axis

    def test_normalized_and_supported(self):
        for spec in (ORBIUM_KERNEL, NATANS_KERNEL):
            k = build_kernel(spec)
            assert abs(k.weights.sum() - 1.0) < 1e-9
            assert np.all(k.weights >= 0)

    @pytest.mark.parametrize("spec", [ORBIUM_KERNEL, NATANS_KERNEL],
                             ids=["Orbium", "H_natans"])
    def test_ring_weights_are_relative_amplitudes(self, spec):
        # Scaled by 2**1020, the unnormalized weights would sum past the
        # largest float; every scaled entry is exact, so the bits are equal.
        scaled = KernelSpec(spec.radius, tuple(b * 2.0 ** 1020
                                               for b in spec.ring_weights))
        assert (build_kernel(scaled).weights.tobytes()
                == build_kernel(spec).weights.tobytes())

    def test_symmetry_under_rotation_and_reflection(self):
        w = build_kernel(NATANS_KERNEL).weights
        assert np.array_equal(w, w.T)
        assert np.array_equal(w, w[::-1, :])
        assert np.array_equal(w, np.rot90(w))

    def test_cached(self):
        assert build_kernel(ORBIUM_KERNEL) is build_kernel(
            KernelSpec(radius=13, ring_weights=(1.0,))
        )

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="radius"):
            KernelSpec(radius=0, ring_weights=(1.0,))
        with pytest.raises(ValueError, match="ring_weights"):
            KernelSpec(radius=3, ring_weights=())
        with pytest.raises(ValueError, match="ring_weights"):
            KernelSpec(radius=3, ring_weights=(0.0, 0.0))
        with pytest.raises(ValueError, match="ring_weights"):
            KernelSpec(radius=3, ring_weights=(1.0, -0.1))
        with pytest.raises(ValueError, match="core"):
            KernelSpec(radius=3, ring_weights=(1.0,), core="box")

    @pytest.mark.parametrize("radius, core, core_param", [
        (1, "lenia_shell", 4.0),  # every cell sits at q = 0 or q = 1
        (13, "gaussian_ring", 1e-06),  # exp underflows to 0 off the midline
    ])
    def test_check_kernel_rejects_weights_that_are_all_zero(self, radius, core,
                                                            core_param):
        spec = KernelSpec(radius=radius, ring_weights=(1.0,), core=core,
                          core_param=core_param)
        with pytest.raises(ValueError) as err:
            check_kernel(spec, 64)
        assert str(err.value) == (
            f"kernel weights sum to 0 at radius {radius} with core {core!r}"
            f" and core_param {core_param!r}")

    def test_check_kernel_refuses_a_grid_beyond_physical_memory(self):
        spec = KernelSpec(radius=2, ring_weights=(1.0,))
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        side = math.isqrt(memory // 8)  # the largest side whose grid fits
        check_kernel(spec, side, "side")
        with pytest.raises(ValueError, match=f"^side {side + 1} needs"):
            check_kernel(spec, side + 1, "side")

    def test_check_kernel_sets_no_memory_bound_the_platform_cannot_report(
            self, monkeypatch):
        def unknown(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(rules.os, "sysconf", unknown)
        check_kernel(KernelSpec(radius=2, ring_weights=(1.0,)), 10 ** 30)


class TestStep:
    @pytest.mark.usefixtures("convolution")
    def test_lenia_matches_loop_oracle(self):
        rng = np.random.default_rng(123)
        state = rng.random((32, 32))
        rule = load_preset("Orbium")
        k = build_kernel(rule.kernel)
        expected = loop_lenia_step(
            state, k.weights, k.radius, rule.growth.mu, rule.growth.sigma, rule.dt
        )
        assert np.abs(step(state, rule) - expected).max() < 1e-9

    @pytest.mark.usefixtures("convolution")
    def test_glaberish_matches_loop_oracle(self):
        rng = np.random.default_rng(321)
        state = rng.random((40, 40))
        rule = glaberish_rule((0.05, 0.01), (0.25, 0.03), kernel=NATANS_KERNEL)
        k = build_kernel(rule.kernel)
        expected = loop_glaberish_step(
            state, k.weights, k.radius, (0.05, 0.01), (0.25, 0.03), rule.dt
        )
        assert np.abs(step(state, rule) - expected).max() < 1e-9

    def test_output_clipped_to_unit_interval(self):
        rng = np.random.default_rng(9)
        state = rng.random((30, 30))
        for rule in (always_grow_rule(), always_decay_rule()):
            out = state
            for _ in range(5):
                out = step(out, rule)
                assert out.min() >= 0.0 and out.max() <= 1.0

    def test_dt_zero_freezes_state(self):
        rng = np.random.default_rng(4)
        state = rng.random((28, 28))
        rule = lenia_rule(0.15, 0.015, dt=0.0)
        assert np.array_equal(step(state, rule), state)

    @pytest.mark.usefixtures("convolution")
    def test_dt_zero_is_clip_on_out_of_range_strided_states(self):
        wide = np.random.default_rng(12).uniform(-0.5, 1.5, (2, 40, 60))
        rules_ = (lenia_rule(0.15, 0.015, dt=0.0),
                  glaberish_rule((0.05, 0.01), (0.25, 0.03), dt=0.0))
        for state in (wide, wide[:, :, ::2], wide[:, ::-1, 3:33]):
            expected = np.clip(state, 0.0, 1.0)
            for rule in rules_:
                out = step(state, rule)
                assert out.shape == expected.shape
                assert out.tobytes() == expected.tobytes()

    def test_dt_zero_still_rejects_a_kernel_that_does_not_fit(self):
        with pytest.raises(ValueError, match="does not fit"):
            step(np.zeros((16, 16)), lenia_rule(0.15, 0.015, dt=0.0))

    def test_always_decay_subtracts_dt(self):
        state = np.full((30, 30), 0.75)
        out = step(state, always_decay_rule(dt=0.1))
        assert np.abs(out - 0.65).max() < 1e-12

    def test_always_grow_adds_dt_then_saturates(self):
        state = np.full((30, 30), 0.95)
        rule = always_grow_rule(dt=0.1)
        out = step(state, rule)
        assert np.abs(out - 1.0).max() == 0.0
        assert np.array_equal(step(out, rule), out)

    def test_glaberish_empty_cells_use_genesis_only(self):
        # On an all-zero state n = 0 everywhere; persistence is gated out.
        gen = (0.0, 0.5)  # growth at 0 is +1
        per = (9.0, 0.1)  # growth at 0 is -1 (irrelevant when A = 0)
        rule = glaberish_rule(gen, per, dt=0.1)
        out = step(np.zeros((30, 30)), rule)
        assert np.abs(out - 0.1).max() < 1e-12

    def test_glaberish_full_cells_use_persistence_only(self):
        gen = (9.0, 0.1)
        per = (0.0, 0.5)  # growth at n=1... value computed below
        rule = glaberish_rule(gen, per, dt=0.1)
        state = np.ones((30, 30))
        out = step(state, rule)
        expected = min(1.0, 1.0 + 0.1 * loop_growth(1.0, 0.0, 0.5))
        assert np.abs(out - expected).max() < 1e-12

    @pytest.mark.usefixtures("convolution")
    def test_batched_matches_single_bitwise(self):
        rng = np.random.default_rng(77)
        batch = rng.random((5, 40, 40))
        for rule in (load_preset("Orbium"), load_preset("s7")):
            full = step(batch, rule)
            for i in range(5):
                assert np.array_equal(full[i], step(batch[i], rule))

    def test_zero_is_absorbing_flags(self):
        assert always_decay_rule().zero_is_absorbing()
        assert not always_grow_rule().zero_is_absorbing()
        assert load_preset("Orbium").zero_is_absorbing()
        assert load_preset("s613").zero_is_absorbing()


def textbook_growth(bump, n):
    """2 exp(-z^2 / 2) - 1 on whole arrays, with no floor on the exponent."""
    z = (np.asarray(n, dtype=np.float64) - bump.mu) / bump.sigma
    with np.errstate(over="ignore", under="ignore"):
        return 2.0 * np.exp(-0.5 * z * z) - 1.0


def plain_step(state, rule):
    """The update evaluated on whole arrays, one temporary per operation.

    It convolves with whatever `step` would, the oracle under `shift_add`.
    """
    state = np.asarray(state, dtype=np.float64)
    n = rules.convolve(state, build_kernel(rule.kernel))
    if rule.framework == "lenia":
        delta = growth_value(rule.growth, n)
    else:
        delta = (1 - state) * growth_value(rule.genesis, n) + state * growth_value(
            rule.persistence, n
        )
    return np.clip(state + rule.dt * delta, 0, 1)


def noncontiguous_batch(rng):
    # Every other slice, columns reversed, then transposed: no unit strides.
    return rng.random((6, 64, 64))[::2, :, ::-1].transpose(0, 2, 1)


class TestBlockedStep:
    """`step` convolves chunks of whole grids and updates each chunk's sums in
    blocks of BLOCK_CELLS cells."""

    SHAPES = {
        "below_one_block": (40, 40),
        "one_block": (4, 64, 64),
        "two_blocks": (2, 128, 128),
        "ragged_tail": (5, 64, 64),
        "two_leading_axes": (2, 3, 64, 64),
        # Around a chunk of CHUNK_CELLS // (64 * 64) grids of 64^2, and a
        # grid larger than a chunk.
        "fewer_grids_than_a_chunk": (15, 64, 64),
        "one_chunk": (16, 64, 64),
        "one_more_than_a_chunk": (17, 64, 64),
        "ragged_chunk_tail": (40, 64, 64),
        "chunks_over_two_leading_axes": (3, 7, 64, 64),
        "grid_larger_than_a_chunk": (3, 264, 264),
        "one_grid_larger_than_a_chunk": (1, 264, 264),
    }

    def test_shapes_cover_block_boundaries(self):
        cells = {k: math.prod(v) for k, v in self.SHAPES.items()}
        assert cells["below_one_block"] < rules.BLOCK_CELLS
        assert cells["one_block"] == rules.BLOCK_CELLS
        assert cells["two_blocks"] == 2 * rules.BLOCK_CELLS
        assert cells["ragged_tail"] % rules.BLOCK_CELLS != 0
        assert cells["two_leading_axes"] % rules.BLOCK_CELLS != 0

    @pytest.mark.parametrize("shape", list(SHAPES.values()), ids=list(SHAPES))
    @pytest.mark.parametrize("name", ["Orbium", "s7"])
    def test_bitwise_equal_to_plain_formula(self, name, shape):
        rng = np.random.default_rng(11)
        rule = load_preset(name)
        for state in (
            rng.random(shape),
            np.where(rng.random(shape) < 0.5, 0.0, rng.random(shape)),
            rng.uniform(-0.5, 1.5, shape),  # outside [0, 1]
        ):
            got = step(state, rule)
            assert got.shape == state.shape
            assert got.tobytes() == plain_step(state, rule).tobytes()
            grids = state.reshape(-1, *shape[-2:])
            one_by_one = np.stack([step(grid, rule) for grid in grids])
            assert got.tobytes() == one_by_one.tobytes()

    def test_shapes_cover_chunk_boundaries(self):
        per_chunk = rules.CHUNK_CELLS // (64 * 64)
        grids = {k: math.prod(v[:-2]) for k, v in self.SHAPES.items()}
        assert grids["fewer_grids_than_a_chunk"] < per_chunk
        assert grids["one_chunk"] == per_chunk
        assert grids["one_more_than_a_chunk"] == per_chunk + 1
        assert grids["ragged_chunk_tail"] > 2 * per_chunk
        assert grids["ragged_chunk_tail"] % per_chunk != 0
        assert grids["chunks_over_two_leading_axes"] > per_chunk
        assert grids["chunks_over_two_leading_axes"] % per_chunk != 0
        assert 264 * 264 > rules.CHUNK_CELLS

    @pytest.mark.parametrize("shape, chunks", [
        ((16, 64, 64), [(16, 64, 64)]),  # one chunk: the batch as passed
        ((2, 8, 64, 64), [(2, 8, 64, 64)]),
        ((1, 264, 264), [(1, 264, 264)]),
        ((40, 64, 64), [(16, 64, 64), (16, 64, 64), (8, 64, 64)]),
        ((3, 7, 64, 64), [(16, 64, 64), (5, 64, 64)]),
        ((3, 264, 264), [(1, 264, 264)] * 3),
    ])
    def test_convolves_chunks_of_whole_grids(self, monkeypatch, shape, chunks):
        assert rules.CHUNK_CELLS == 16 * 64 * 64
        seen = []

        def recording(state, kernel):
            seen.append(state.shape)
            return convolve(state, kernel)

        monkeypatch.setattr(rules, "convolve", recording)
        step(np.zeros(shape), load_preset("Orbium"))
        assert seen == chunks

    @pytest.mark.parametrize("shape", [(0, 64, 64), (0, 3, 64, 64), (3, 0, 64, 64)])
    def test_empty_batch(self, shape):
        got = step(np.zeros(shape), load_preset("Orbium"))
        assert got.shape == shape and got.dtype == np.float64

    @pytest.mark.parametrize("convolution", ["fft", "direct"], indirect=True)
    @pytest.mark.parametrize("name", ["Orbium", "s7"])
    def test_noncontiguous_chunks(self, name, convolution):
        # 20 grids of 64^2, no unit strides: two chunks, the second ragged.
        state = np.random.default_rng(18).random((40, 64, 64))[::2, :, ::-1]
        state = state.transpose(0, 2, 1)
        assert len(state) * 64 * 64 > rules.CHUNK_CELLS
        rule = load_preset(name)
        got = step(state, rule)
        assert got.tobytes() == plain_step(state, rule).tobytes()
        assert np.array_equal(got, step(np.ascontiguousarray(state), rule))

    @pytest.mark.parametrize("convolution", ["fft", "direct"], indirect=True)
    @pytest.mark.parametrize("name", ["Orbium", "s7"])
    def test_noncontiguous_input(self, name, convolution):
        state = noncontiguous_batch(np.random.default_rng(12))
        assert not state.flags.c_contiguous and not state.flags.f_contiguous
        rule = load_preset(name)
        got = step(state, rule)
        assert got.tobytes() == plain_step(state, rule).tobytes()
        assert np.array_equal(got, step(np.ascontiguousarray(state), rule))

    def test_chained_steps_match(self):
        rule = load_preset("s613")
        a = b = np.random.default_rng(13).random((5, 64, 64))
        for _ in range(5):
            a, b = step(a, rule), plain_step(b, rule)
            assert a.tobytes() == b.tobytes()

    def test_chained_steps_match_textbook_growth_under_narrow_bumps(self):
        # Genome (0, -4, 0, -4): sigma about 0.0065, so most cells' exponents
        # lie far below the point where exp underflows.
        sigma = 0.001 + 0.299 / (1.0 + math.exp(4.0))
        rule = glaberish_rule((0.5, sigma), (0.5, sigma), kernel=NATANS_KERNEL)
        rng = np.random.default_rng(16)
        a = b = np.stack([place_centered(64, rng.random((32, 32)))
                          for _ in range(3)])
        for _ in range(20):
            a = step(a, rule)
            n = convolve(b, build_kernel(rule.kernel))
            delta = (1 - b) * textbook_growth(rule.genesis, n) + b * textbook_growth(
                rule.persistence, n
            )
            b = np.clip(b + rule.dt * delta, 0, 1)
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dt", [0.0, 0.1])
    @pytest.mark.parametrize("framework", ["lenia", "glaberish"])
    def test_input_unchanged_writeable_and_not_shared(self, framework, dt):
        if framework == "lenia":
            rule = lenia_rule(0.15, 0.015, dt=dt)
        else:
            rule = glaberish_rule((0.05, 0.01), (0.25, 0.03), dt=dt)
        for state in (
            np.random.default_rng(14).uniform(-0.5, 1.5, (5, 64, 64)),
            noncontiguous_batch(np.random.default_rng(15)),
        ):
            before = state.copy()
            for out in (step(state, rule), run(state, rule, 0).final,
                        run(state, rule, 3).final):
                assert np.array_equal(state, before)
                assert state.flags.writeable and out.flags.writeable
                assert not np.shares_memory(out, state)


def run_frames(*args, **kwargs):
    """The frames `run` hands to its `on_frame` consumer, in order."""
    frames = []
    run(*args, on_frame=frames.append, **kwargs)
    return frames


class TestRun:
    @pytest.mark.usefixtures("shift_add")
    def test_final_matches_plain_loop_bitwise(self):
        rng = np.random.default_rng(15)
        batch = np.stack([
            place_centered(32, rng.random((8, 8))),  # will die under decay-heavy rule
            np.zeros((32, 32)),                 # dead from the start
            rng.random((32, 32)),
        ])
        rule = lenia_rule(0.8, 0.02)  # most states decay, some survive
        expected = batch.copy()
        for _ in range(20):
            expected = step(expected, rule)
        got = run(batch, rule, 20).final
        assert np.array_equal(got, expected)

    def test_records_per_step_summaries(self):
        state = np.full((30, 30), 0.45)
        res = run(state, always_decay_rule(dt=0.1), 5)
        assert np.allclose(res.means, [0.35, 0.25, 0.15, 0.05, 0.0], atol=1e-12)
        assert np.allclose(res.maxes, res.means, atol=1e-12)
        assert np.all(res.final == 0.0)

    def test_zero_steps(self):
        state = np.random.default_rng(0).random((16, 16))
        res = run(state, load_preset("Orbium"), 0)
        assert np.array_equal(res.final, state)
        assert res.means.shape == (0,)

    @pytest.mark.usefixtures("shift_add")
    def test_matches_repeated_step(self):
        state = np.random.default_rng(8).random((40, 40))
        rule = load_preset("s11")
        res = run(state, rule, 4)
        manual = state
        for _ in range(4):
            manual = step(manual, rule)
        assert np.array_equal(res.final, manual)

    def test_batch_with_dying_slices_matches_plain_loop_bitwise(self, monkeypatch):
        sizes = []

        def spy(state, *args):
            sizes.append(len(state))
            return step(state, *args)

        rng = np.random.default_rng(15)
        batch = np.stack([
            place_centered(32, rng.random((8, 8))),  # decays to exactly 0
            np.zeros((32, 32)),
            np.ones((32, 32)),  # n = 1 sits on the growth peak
        ])
        rule = lenia_rule(1.0, 0.1)
        monkeypatch.setattr(rules, "step", spy)
        res = run(batch, rule, 20)
        monkeypatch.undo()
        assert sizes[0] == 3 and sizes[-1] == 1  # dead slices were retired
        state = batch
        for t in range(20):
            state = step(state, rule)
            assert np.array_equal(res.means[t], state.mean(axis=(-2, -1)))
            assert np.array_equal(res.maxes[t], state.max(axis=(-2, -1)))
        assert np.array_equal(res.final, state)
        assert res.maxes[-1, 0] == 0.0 and res.maxes[-1, 2] > 0.0

    @pytest.mark.parametrize("rule", [
        lenia_rule(0.15, 0.015, dt=0.0),  # frozen: the grid is stepped throughout
        always_decay_rule(dt=0.1),  # the grid retires within 10 steps
    ], ids=["frozen", "retired"])
    def test_memory_does_not_grow_with_steps(self, rule):
        state = np.random.default_rng(4).random((64, 64))

        def peak(steps):
            tracemalloc.start()
            try:
                run(state, rule, steps, every=1, on_frame=lambda frame: None)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(16)  # fill the kernel and FFT caches
        assert abs(peak(128) - peak(16)) <= state.nbytes

    def test_frames_need_a_consumer(self):
        with pytest.raises(ValueError, match="on_frame"):
            run(np.zeros((16, 16)), load_preset("Orbium"), 2, every=1)

    @pytest.mark.usefixtures("shift_add")
    def test_frames_at_zero_every_k_and_last_step(self):
        state = np.random.default_rng(3).random((40, 40))
        rule = load_preset("s11")
        frames = run_frames(state, rule, 7, every=3)
        states = [state]
        for _ in range(7):
            states.append(step(states[-1], rule))
        assert len(frames) == 4
        for frame, t in zip(frames, (0, 3, 6, 7)):
            assert np.array_equal(frame, states[t])
        assert run_frames(state, rule, 7) == []

    def test_retired_frames_read_zero(self):
        frames = run_frames(np.full((30, 30), 0.45), always_decay_rule(dt=0.1),
                            9, every=2)
        assert len(frames) == 6
        dead = frames[3:]  # the grid is exactly 0 from step 5 on
        assert all(np.all(f == 0.0) for f in dead)
        assert np.all(frames[2] > 0.0)

    def test_partly_retired_batch_frames_match_plain_loop(self):
        rng = np.random.default_rng(15)
        batch = np.stack([place_centered(32, rng.random((8, 8))),
                          np.ones((32, 32))])
        rule = lenia_rule(1.0, 0.1)
        frames = run_frames(batch, rule, 20, every=5)
        state = batch
        for t in range(1, 21):
            state = step(state, rule)
            if t % 5 == 0:
                assert np.array_equal(frames[t // 5], state)
        assert frames[-1][0].max() == 0.0


class TestTrajectory:
    @staticmethod
    def maxes(each, sizes):
        """Per-grid maxes through `each`, noting the batch sizes it reduces."""
        def f(w):
            sizes.append(w.shape[0])
            return w.max(axis=(1, 2))
        return each(f).tolist()

    def test_retires_dead_slices_and_stops_advancing(self, monkeypatch):
        calls = []

        def halve_then_kill(s, rule):
            calls.append(s.shape[0])
            return np.where(len(calls) >= 2, 0.0, s * 0.5)

        monkeypatch.setattr(rules, "step", halve_then_kill)
        batch = np.stack([np.zeros((4, 4)), np.full((4, 4), 0.5)])
        sizes = []
        seen = [(t, self.maxes(each, sizes))
                for t, each in rules.trajectory(batch, always_decay_rule(), 4)]
        assert seen == [(1, [0.0, 0.25]), (2, [0.0, 0.0]), (3, [0.0, 0.0]),
                        (4, [0.0, 0.0])]
        assert calls == [2, 1]
        # One zero grid stands for every retired grid: (zero, live), then zero.
        assert sizes == [1, 1, 1, 1, 1]

    def test_keeps_every_slice_without_retire(self, monkeypatch):
        calls = []

        def identity(s, rule):
            calls.append(s.shape[0])
            return s

        monkeypatch.setattr(rules, "step", identity)
        batch = np.zeros((2, 4, 4))
        sizes = []
        seen = [self.maxes(each, sizes) for _, each in rules.trajectory(
                    batch, always_grow_rule(), 3)]
        assert seen == [[0.0, 0.0]] * 3
        assert calls == [2, 2, 2]
        assert sizes == [2, 2, 2]  # the whole batch, no zero grid

    def test_real_step_keeps_zero_slices_when_zero_is_not_absorbing(self):
        # G(0) = +1 and G(n) < -0.9999 for n >= 0.05, so at dt = 1 the empty
        # grid fills to 1 and empties again, while the uniform 0.05 grid is
        # clipped to exactly 0 and refills. Under always_grow_rule() no grid
        # is 0 after a step, so it cannot tell whether zeros are retired.
        rule = lenia_rule(0.0, 0.01, dt=1.0)
        batch = np.stack([np.zeros((32, 32)), np.full((32, 32), 0.05)])
        seen = [(each(lambda w: w.min(axis=(1, 2))).tolist(),
                 each(lambda w: w.max(axis=(1, 2))).tolist())
                for _, each in rules.trajectory(batch, rule, 2)]
        assert seen == [([1.0, 0.0], [1.0, 0.0]), ([0.0, 1.0], [0.0, 1.0])]


class TestPresets:
    def test_lists_all_ten(self):
        assert preset_names() == [
            "Orbium", "P_s_labens", "S_valvatus", "D_valvatus", "H_natans",
            "s7", "s613", "s11", "s643", "s113",
        ]

    def test_orbium_values(self):
        r = load_preset("Orbium")
        assert r.framework == "lenia"
        assert (r.growth.mu, r.growth.sigma) == (0.150, 0.0150)
        assert r.kernel.radius == 13
        assert r.kernel.ring_weights == (1.0,)
        assert r.dt == 0.1

    def test_single_growth_family_values(self):
        expected = {
            "P_s_labens": (0.330, 0.0462),
            "S_valvatus": (0.292, 0.0486),
            "D_valvatus": (0.337, 0.0595),
            "H_natans": (0.260, 0.0360),
        }
        for name, (mu, sigma) in expected.items():
            r = load_preset(name)
            assert r.framework == "lenia"
            assert (r.growth.mu, r.growth.sigma) == (mu, sigma)

    def test_gated_family_values(self):
        expected = {
            "s7": ((0.0420, 0.00490), (0.261, 0.0292)),
            "s613": ((0.0621, 0.00879), (0.215, 0.0369)),
            "s11": ((0.0761, 0.0107), (0.260, 0.0303)),
            "s643": ((0.0670, 0.0101), (0.248, 0.0186)),
            "s113": ((0.266, 0.0382), (0.289, 0.0215)),
        }
        for name, (gen, per) in expected.items():
            r = load_preset(name)
            assert r.framework == "glaberish"
            assert (r.genesis.mu, r.genesis.sigma) == gen
            assert (r.persistence.mu, r.persistence.sigma) == per

    def test_kernel_assignment(self):
        wide = {"H_natans", "s7", "s613", "s11", "s643", "s113"}
        for name in preset_names():
            k = load_preset(name).kernel
            if name in wide:
                assert k.radius == 18
                assert k.ring_weights == (0.5, 1.0, 0.667)
            else:
                assert k.radius == 13
                assert k.ring_weights == (1.0,)

    def test_unknown_preset_lists_available(self):
        with pytest.raises(KeyError, match="Orbium"):
            load_preset("nope")


class TestSerialization:
    def test_round_trip_all_presets(self):
        for name in preset_names():
            rule = load_preset(name)
            again = rule_from_dict(json.loads(json.dumps(rule_to_dict(rule))))
            assert again == rule

    def test_rejects_unknown_rule_field(self):
        d = rule_to_dict(load_preset("Orbium"))
        d["flavor"] = "vanilla"
        with pytest.raises(ValueError, match="flavor"):
            rule_from_dict(d)

    def test_rejects_unknown_kernel_field(self):
        d = rule_to_dict(load_preset("Orbium"))
        d["kernel"]["alpha"] = 4.0
        with pytest.raises(ValueError, match="alpha"):
            rule_from_dict(d)

    def test_rejects_missing_growth(self):
        d = rule_to_dict(load_preset("Orbium"))
        del d["growth"]
        with pytest.raises(ValueError, match="growth"):
            rule_from_dict(d)

    def test_rejects_mixed_bumps(self):
        d = rule_to_dict(load_preset("s7"))
        d["growth"] = {"mu": 0.1, "sigma": 0.01}
        with pytest.raises(ValueError):
            rule_from_dict(d)

    def test_rejects_bad_framework(self):
        d = rule_to_dict(load_preset("Orbium"))
        d["framework"] = "life"
        with pytest.raises(ValueError, match="framework"):
            rule_from_dict(d)

    def test_float_field_reads_an_int_as_float(self):
        d = rule_to_dict(load_preset("Orbium"))
        d["dt"], d["kernel"]["ring_weights"] = 0, [1]
        rule = rule_from_dict(d)
        assert repr(rule.dt) == "0.0"
        assert repr(rule.kernel.ring_weights) == "(1.0,)"

    def test_rejects_null_bump(self):
        d = rule_to_dict(load_preset("Orbium"))
        d["growth"] = None
        with pytest.raises(ValueError, match="growth must be an object"):
            rule_from_dict(d)

    def test_rejects_dt_out_of_range(self):
        d = rule_to_dict(load_preset("Orbium"))
        d["dt"] = 1.5
        with pytest.raises(ValueError, match="dt"):
            rule_from_dict(d)


class TestJsonValue:
    @pytest.mark.parametrize(
        "hint, value",
        [(int, True), (int, 2.0), (int, "2"), (int, None), (float, True),
         (float, "0.5"), (float, [0.5]), (str, 3), (str, None),
         (tuple[float, ...], 5), (tuple[float, ...], "ab"),
         (tuple[float, ...], [1.0, "2"]), (tuple[float, ...], [False])],
    )
    def test_rejects_wrong_json_type_naming_the_field(self, hint, value):
        with pytest.raises(ValueError, match="section field 'x' must be"):
            rules.json_value(value, hint, "x", "section")

    @pytest.mark.parametrize(
        "hint, value, expected",
        [(int, 2, "2"), (float, 2, "2.0"), (float, 0.5, "0.5"),
         (str, "a", "'a'"), (tuple[float, ...], [1, 0.5], "(1.0, 0.5)"),
         (tuple[float, ...], [], "()"), (int | None, 3, "3")],
    )
    def test_accepts_and_converts(self, hint, value, expected):
        assert repr(rules.json_value(value, hint, "x", "section")) == expected

    @pytest.mark.parametrize("hint", [float, tuple[float, ...]])
    def test_integer_too_large_for_a_float_names_the_field(self, hint):
        value = 10 ** 400 if hint is float else [0.5, 10 ** 400]
        with pytest.raises(ValueError,
                           match="section field 'x' is too large for a float"):
            rules.json_value(value, hint, "x", "section")

    def test_dataclass_field_parses_under_its_name(self):
        with pytest.raises(ValueError, match="growth field 'sigma' must be"):
            rules.json_value({"mu": 0.1, "sigma": "0.2"}, GrowthBump,
                             "growth", "rule")
        with pytest.raises(ValueError, match="missing growth field 'mu'"):
            rules.json_value({"sigma": 0.2}, GrowthBump | None,
                             "growth", "rule")


class TestRuleParamsValidation:
    def test_lenia_requires_exactly_growth(self):
        with pytest.raises(ValueError):
            RuleParams("x", "lenia", ORBIUM_KERNEL, 0.1)
        with pytest.raises(ValueError):
            RuleParams(
                "x", "lenia", ORBIUM_KERNEL, 0.1,
                growth=GrowthBump(0.1, 0.01), genesis=GrowthBump(0.1, 0.01),
            )

    def test_glaberish_requires_both_bumps(self):
        with pytest.raises(ValueError):
            RuleParams(
                "x", "glaberish", ORBIUM_KERNEL, 0.1, genesis=GrowthBump(0.1, 0.01)
            )

    def test_dt_bounds(self):
        with pytest.raises(ValueError, match="dt"):
            lenia_rule(0.1, 0.01, dt=-0.1)
        with pytest.raises(ValueError, match="dt"):
            lenia_rule(0.1, 0.01, dt=1.01)
        lenia_rule(0.1, 0.01, dt=0.0)
        lenia_rule(0.1, 0.01, dt=1.0)
