"""Checkpoint/rollback: snapshot round-trips and re-run determinism."""

import random

import pytest

from repro.defenses.policy import PointerTaintPolicy
from repro.cpu.machine import ExecutionLimit
from repro.cpu.simulator import Simulator
from repro.fault.checkpoint import Checkpoint
from repro.kernel.syscalls import Kernel
from repro.libc.build import build_program

SOURCE = r"""
int main(void) {
    char buf[16];
    int *p;
    int v;
    int i;
    read(0, buf, 8);
    p = malloc(16);
    p[0] = 5;
    v = 0;
    i = 0;
    while (i < 40) {
        v = v + p[0] + buf[i % 8];
        i = i + 1;
    }
    printf("v=%d\n", v);
    return 0;
}
"""

STDIN = b"abcdefgh"


def make_machine(use_caches=False):
    kernel = Kernel(stdin=STDIN)
    sim = Simulator(
        build_program(SOURCE),
        PointerTaintPolicy(),
        syscall_handler=kernel,
        use_caches=use_caches,
    )
    kernel.attach(sim)
    return sim, kernel


def pages(sim):
    """Memory data and shadow pages as comparable values."""
    return (
        {base: bytes(page) for base, page in sim.memory._pages.items()},
        {base: bytes(page) for base, page in sim.plane.mem_taint.items()},
    )


def run_partway(sim, instructions=500):
    sim.arm_watchdog(max_instructions=instructions)
    with pytest.raises(ExecutionLimit):
        sim.run()
    sim.disarm_watchdog()


class TestMachineSnapshot:
    def test_roundtrip_restores_all_architectural_state(self):
        sim, kernel = make_machine()
        run_partway(sim)
        snap = sim.snapshot()
        captured = pages(sim)
        # Perturb everything by running to completion...
        sim.run()
        assert sim.halted
        assert pages(sim) != captured
        # ...then roll back and compare every captured domain.
        sim.restore(snap)
        assert sim.pc == snap.pc
        assert not sim.halted
        assert sim.regs.snapshot() == snap.regs
        assert pages(sim) == captured
        assert sim.stats == snap.stats
        assert tuple(sim.recent_pcs) == snap.recent_pcs
        assert tuple(sim.detector.alerts) == snap.alerts

    def test_taint_bitmap_roundtrips(self):
        sim, _ = make_machine()
        run_partway(sim, 2000)  # past the read(): input bytes are tainted
        snap = sim.snapshot()
        _, taint_pages = pages(sim)
        tainted_writes = sim.memory.tainted_bytes_written
        assert any(any(page) for page in taint_pages.values())
        # Scrub some shadow bits, then roll back.
        for base in list(taint_pages):
            sim.memory.set_taint(base, 64, False)
        sim.memory.set_taint(0x7FFF0000, 4, True)
        sim.restore(snap)
        assert pages(sim)[1] == taint_pages
        assert sim.memory.tainted_bytes_written == tainted_writes

    def test_restore_is_in_place_and_rerunnable(self):
        """The decode-once executor closures capture the live register
        lists and stats object; restore must mutate them, never swap."""
        sim, kernel = make_machine()
        values = sim.regs.values
        taints = sim.regs.taints
        stats = sim.stats
        checkpoint = Checkpoint(sim, kernel)
        first_exit = sim.run()
        first_out = kernel.process.stdout_text
        first_instr = sim.stats.instructions
        checkpoint.restore(sim, kernel)
        assert sim.regs.values is values
        assert sim.regs.taints is taints
        assert sim.stats is stats
        assert sim.stats.instructions == 0
        # The same bound program must replay bit-for-bit after rollback.
        assert sim.run() == first_exit
        assert kernel.process.stdout_text == first_out
        assert sim.stats.instructions == first_instr

    def test_pages_materialized_after_snapshot_are_dropped(self):
        sim, _ = make_machine()
        run_partway(sim)
        snap = sim.snapshot()
        before = sim.memory.mapped_pages()
        sim.memory.write(0x55555550, 4, 0xDEAD, 0)
        assert sim.memory.mapped_pages() == before + 1
        sim.restore(snap)
        assert sim.memory.mapped_pages() == before
        assert sim.memory.read(0x55555550, 4) == (0, 0)

    def test_cache_state_roundtrips(self):
        sim, _ = make_machine(use_caches=True)
        run_partway(sim, 1500)
        snap = sim.snapshot()
        assert snap.caches is not None
        sim.run()
        sim.restore(snap)
        assert sim.caches.snapshot() == snap.caches

    def test_cache_config_mismatch_rejected(self):
        plain, _ = make_machine(use_caches=False)
        cached, _ = make_machine(use_caches=True)
        with pytest.raises(ValueError, match="cache configuration"):
            plain.restore(cached.snapshot())

    def test_watchpoints_roundtrip(self):
        sim, _ = make_machine()
        snap = sim.snapshot()
        sim.watchpoints.add(0x10000000, 8, "uid")
        sim.restore(snap)
        assert len(tuple(sim.watchpoints)) == 0


class TestCheckpointBundle:
    def test_kernel_state_rolls_back(self):
        sim, kernel = make_machine()
        checkpoint = Checkpoint(sim, kernel)
        sim.run()
        assert kernel.process.stdout_text  # consumed stdin, wrote stdout
        checkpoint.restore(sim, kernel)
        assert kernel.process.stdout_text == ""
        assert bytes(kernel.process.stdin) == STDIN

    def test_rng_stream_rolls_back(self):
        sim, kernel = make_machine()
        rng = random.Random(42)
        rng.random()
        checkpoint = Checkpoint(sim, kernel, rng)
        first = [rng.random() for _ in range(5)]
        checkpoint.restore(sim, kernel, rng)
        assert [rng.random() for _ in range(5)] == first

    def test_missing_domains_raise(self):
        sim, kernel = make_machine()
        bare = Checkpoint(sim)
        with pytest.raises(ValueError, match="no kernel state"):
            bare.restore(sim, kernel)
        with pytest.raises(ValueError, match="no RNG state"):
            bare.restore(sim, rng=random.Random(0))

    def test_checkpoint_restores_many_times(self):
        sim, kernel = make_machine()
        checkpoint = Checkpoint(sim, kernel)
        results = []
        for _ in range(3):
            checkpoint.restore(sim, kernel)
            results.append((sim.run(), kernel.process.stdout_text))
        assert len(set(results)) == 1
