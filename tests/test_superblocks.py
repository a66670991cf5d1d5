"""Superblock tier and ExecOptions: fusion, SMC invalidation, digests.

The fused dispatch tier is a pure optimisation (byte-identical results
with it on or off, across taint modes and pool widths), self-modifying-
code writes force re-fusion without changing results, and the
``ExecOptions`` bundle validates once and is the only spelling of an
execution knob: the retired flat kwargs raise :class:`TypeError`.
"""

from __future__ import annotations

import warnings

import pytest

from repro import ExecOptions, Session
from repro.builder import build_machine
from repro.isa.assembler import assemble
from repro.mem.layout import TEXT_BASE

#: Campaign digest pinned in CI (exp3, seed 11, 25 trials); any change
#: to executed semantics -- including a superblock bug -- moves it.
PINNED_EXP3_DIGEST = (
    "9b0588e410ed0e9184188b6567b5305abf6f4b56023b4c3a48c6e35f79829e4b"
)

#: A straight-line-heavy loop: 50 iterations of pure ALU work ending in
#: a branch, so the fused tier builds blocks once and replays them.
LOOP_PROGRAM = """
.text
_start:
    li $t0, 0
    li $t1, 50
loop:
    addiu $t0, $t0, 3
    xor $t2, $t0, $t1
    addiu $t1, $t1, -1
    bne $t1, $zero, loop
    move $a0, $t0
    li $v0, 1
    syscall
"""

#: Same loop shape, but every iteration stores into the text segment
#: (classic SMC pattern).  Semantics come from the immutable predecode,
#: so the answer must not change -- but each store must drop the fused
#: blocks and force a rebuild.
SMC_PROGRAM = f"""
.text
_start:
    li $t0, {TEXT_BASE}
    li $t1, 4
    li $t2, 0
loop:
    sw $t2, 0($t0)
    addiu $t2, $t2, 5
    addiu $t1, $t1, -1
    bne $t1, $zero, loop
    move $a0, $t2
    li $v0, 1
    syscall
"""


def _run(source: str, superblocks: bool):
    sim, _kernel = build_machine(
        assemble(source), None, superblocks=superblocks
    )
    status = sim.run(max_instructions=100_000)
    return sim, status


class TestFusionTier:
    def test_fused_matches_unfused(self):
        fused, fused_status = _run(LOOP_PROGRAM, superblocks=True)
        plain, plain_status = _run(LOOP_PROGRAM, superblocks=False)
        assert fused_status == plain_status == 150
        assert fused.stats.instructions == plain.stats.instructions
        assert fused.regs.snapshot() == plain.regs.snapshot()

    def test_cache_populates_and_replays(self):
        sim, _ = _run(LOOP_PROGRAM, superblocks=True)
        info = sim.superblocks.info()
        assert info["size"] == info["built"] >= 2
        # 50 loop iterations through a handful of blocks: nearly every
        # dispatch is a replay of an already-fused block.
        assert info["hits"] > info["built"]
        assert info["invalidated"] == 0

    def test_disabled_tier_builds_nothing(self):
        sim, _ = _run(LOOP_PROGRAM, superblocks=False)
        assert sim.superblocks.info() == {
            "size": 0, "built": 0, "invalidated": 0, "hits": 0,
        }


class TestSelfModifyingCode:
    def test_text_write_invalidates_and_refuses(self):
        sim, status = _run(SMC_PROGRAM, superblocks=True)
        info = sim.superblocks.info()
        # One invalidation per store into the text segment.
        assert info["invalidated"] == 4
        # The loop body re-fuses after each flush: strictly more builds
        # than the cache holds at exit.
        assert info["built"] > info["size"] >= 1
        assert status == 20

    def test_smc_results_identical_without_fusion(self):
        fused, fused_status = _run(SMC_PROGRAM, superblocks=True)
        plain, plain_status = _run(SMC_PROGRAM, superblocks=False)
        assert fused_status == plain_status == 20
        assert fused.stats.instructions == plain.stats.instructions
        assert fused.regs.snapshot() == plain.regs.snapshot()


class TestCampaignDigestInvariance:
    """The CI-pinned exp3 digest must be reachable in every mode."""

    def _digest(self, **fields) -> str:
        session = Session(options=ExecOptions(**fields))
        result = session.run_campaign(builtin="exp3", seed=11, trials=25)
        return result.digest()

    def test_pinned_digest_with_superblocks(self):
        assert self._digest(superblocks=True) == PINNED_EXP3_DIGEST

    def test_pinned_digest_without_superblocks(self):
        assert self._digest(superblocks=False) == PINNED_EXP3_DIGEST

    def test_pinned_digest_across_taint_mode_and_workers(self):
        digest = self._digest(
            superblocks=True, taint_labels=True, workers=2
        )
        assert digest == PINNED_EXP3_DIGEST


class TestExecOptionsValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ExecOptions(engine="vliw")

    def test_unknown_defense_rejected(self):
        with pytest.raises(ValueError, match="unknown defense"):
            ExecOptions(defense="prayer")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            ExecOptions(policy="hope")

    def test_bounds_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ExecOptions(workers=-1)
        with pytest.raises(ValueError, match="max_instructions"):
            ExecOptions(max_instructions=0)
        with pytest.raises(ValueError, match="superblocks"):
            ExecOptions(superblocks="yes")
        with pytest.raises(ValueError, match="TraceConfig"):
            ExecOptions(trace="t.jsonl")

    def test_coerce_accepts_dict_and_rejects_unknown_field(self):
        opts = ExecOptions.coerce({"engine": "pipeline", "workers": 2})
        assert opts.engine == "pipeline" and opts.workers == 2
        with pytest.raises(ValueError, match="unknown ExecOptions field"):
            ExecOptions.coerce({"turbo": True})

    def test_merged_revalidates(self):
        base = ExecOptions()
        assert base.merged(superblocks=False).superblocks is False
        with pytest.raises(ValueError):
            base.merged(engine="vliw")


class TestLegacyKwargAliases:
    """The pre-ExecOptions flat kwargs are retired and fail loudly."""

    def test_mixing_options_and_kwargs_raises(self):
        with pytest.raises(TypeError):
            Session(options=ExecOptions(), use_caches=True)

    def test_retired_kwargs_raise_type_error(self):
        with pytest.raises(TypeError):
            Session(engine="pipeline")
        with pytest.raises(TypeError):
            Session(policy="paper")
        exe = assemble(LOOP_PROGRAM)
        with pytest.raises(TypeError, match="options="):
            Session().run_executable(exe, max_instructions=5)
        with pytest.raises(TypeError, match="options="):
            Session().run_executable(exe, use_pipeline=True)
        with pytest.raises(TypeError, match="options="):
            Session().run_minic(
                "int main(void) { return 0; }", superblocks=False
            )
        with pytest.raises(TypeError, match="options="):
            Session().run_campaign(builtin="exp3", workers=2)
        with pytest.raises(TypeError, match="options="):
            Session().run_campaign(builtin="exp3", taint_labels=True)
        with pytest.raises(TypeError):
            Session().run_experiment("fig1", workers=2)

    def test_options_path_is_warning_free(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session = Session(options=ExecOptions(use_caches=True))
            assert session.options.use_caches is True
        assert not [
            w for w in caught
            if issubclass(w.category, DeprecationWarning)
        ]

    def test_per_call_options_replace_the_session_bundle(self):
        session = Session(options=ExecOptions(max_instructions=5))
        exe = assemble(LOOP_PROGRAM)
        assert session.run_executable(exe).outcome == "limit"
        result = session.run_executable(
            exe, options=ExecOptions(max_instructions=100_000)
        )
        assert result.outcome == "exit" and result.exit_status == 150
