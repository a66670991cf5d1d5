"""Copy-on-write delta checkpoints: differential equivalence and invariants.

Three layers of evidence that delta restore is observably identical to
rebuilding the captured state from scratch:

* a randomized differential -- a captured memory/plane pair runs an
  interleaved stream of writes, bulk I/O, taint flips, wild writes, and
  rollbacks, and after every rollback must be bit-identical to a freshly
  seeded memory (both plane modes);
* white-box invariants on the capture's dirty/fresh/baseline tracking
  (first-write COW, fresh-page dropping, restore idempotence, stale
  checkpoints refused);
* the campaign digest pin -- one golden digest asserted across rollback
  vs fresh rebuild per trial, per-instruction observers, both taint
  modes, superblocks on/off, and worker pools, which is the end-to-end
  statement CI enforces.
"""

import random

import pytest

from repro.core.events import InstructionRetired
from repro.cpu.simulator import Simulator
from repro.fault.campaign import CampaignConfig, FaultCampaign
from repro.fault.workloads import builtin_workload
from repro.isa.assembler import assemble
from repro.mem.layout import PAGE_SIZE
from repro.mem.tainted_memory import TaintedMemory
from repro.taint.bits import TaintVector
from repro.taint.plane import MODE_BIT, MODE_LABEL, TaintPlane

#: exp3 / seed 11 / 25 trials, pinned.  Every configuration a campaign can
#: run in must reproduce this digest byte for byte (see TestCampaignDigestPin
#: and the checkpoint-smoke CI job).
DIGEST_PIN = "9b0588e410ed0e9184188b6567b5305abf6f4b56023b4c3a48c6e35f79829e4b"

#: A few pages of "program" address space plus a wild region far away,
#: so fault-style stray writes materialize fresh pages.
_BASE = 0x0040_0000
_WILD = 0x6161_4000


def _observable_state(memory: TaintedMemory):
    """Everything a restore must reproduce, as comparable values."""
    plane = memory.plane
    state = {
        "pages": {b: bytes(p) for b, p in memory._pages.items()},
        "shadow": {b: bytes(p) for b, p in plane.mem_taint.items()},
        "tainted_pages": set(plane.tainted_pages),
        "reg_taints": tuple(plane.reg_taints),
        "tainted_bytes_written": memory.tainted_bytes_written,
    }
    if plane.table is not None:
        state["mem_labels"] = dict(plane.mem_labels)
        state["reg_labels"] = tuple(plane.reg_labels)
        state["hilo_label"] = plane.hilo_label
        state["labels"] = tuple(plane.table.labels)
        state["sets"] = tuple(plane.table.sets)
    return state


def _seed_memory(memory: TaintedMemory, rng: random.Random) -> None:
    for i in range(4):
        memory.write_bytes(
            _BASE + i * PAGE_SIZE, bytes(rng.randrange(256) for _ in range(64))
        )
    memory.write_bytes(_BASE + 100, b"tainted-input", taint=True)
    if memory.plane.table is not None:
        lid = memory.plane.table.new_label(
            source_kind="stdin", syscall="read", fd=0, offset_range=(0, 13)
        )
        memory.plane.label_span(_BASE + 100, 13, memory.plane.table.singleton(lid))


def _random_op(memory: TaintedMemory, rng: random.Random) -> None:
    """One random mutation/observation, including page-straddling and wild
    accesses.  Must be driven by an identically seeded rng on both sides."""
    plane = memory.plane
    choice = rng.randrange(10)
    region = _WILD if rng.random() < 0.2 else _BASE
    addr = region + rng.randrange(3 * PAGE_SIZE)
    if choice == 0:
        size = rng.choice((1, 2, 4))
        memory.write(
            addr, size, rng.getrandbits(8 * size),
            taint_mask=rng.getrandbits(size),
        )
    elif choice == 1:
        length = rng.randrange(1, 200)
        memory.write_bytes(
            addr, bytes(rng.randrange(256) for _ in range(length)),
            taint=rng.random() < 0.5,
        )
    elif choice == 2:
        length = rng.randrange(1, 64)
        vector = TaintVector(length, rng.getrandbits(length))
        memory.write_bytes(addr, bytes(length), taint=vector)
    elif choice == 3:
        memory.set_taint(addr, rng.randrange(1, 300), rng.random() < 0.5)
    elif choice == 4:
        # Straddle a page boundary explicitly.
        edge = region + PAGE_SIZE - rng.randrange(1, 4)
        memory.write(edge, 4, rng.getrandbits(32), taint_mask=rng.getrandbits(4))
    elif choice == 5:
        memory.read(addr, rng.choice((1, 2, 4)))
    elif choice == 6:
        memory.read_taint(addr, rng.randrange(1, 300))
    elif choice == 7:
        memory.count_tainted(addr, rng.randrange(1, 300))
    elif choice == 8:
        memory.read_cstring(addr, 64)
    else:
        if plane.table is not None:
            lid = plane.table.new_label(
                source_kind="net", syscall="recv", fd=4,
                offset_range=(0, 4),
            )
            plane.label_span(addr, 4, plane.table.singleton(lid))
        else:
            plane.flip_reg_taint(rng.randrange(1, 32), 0xF)


def _rebuilt(mode: str) -> TaintedMemory:
    """The reference: the capture-time state, seeded from scratch."""
    memory = TaintedMemory(TaintPlane(mode))
    _seed_memory(memory, random.Random(99))
    return memory


def _rollback(memory: TaintedMemory, cow) -> None:
    memory.restore_cow(cow)
    memory.plane.restore_cow(cow)
    cow.clear_dirty()


class TestRandomizedDifferential:
    """COW delta restore vs a fresh rebuild, bit for bit."""

    @pytest.mark.parametrize("mode", (MODE_BIT, MODE_LABEL))
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_delta_restore_matches_legacy_restore(self, mode, seed):
        delta = _rebuilt(mode)
        cow = delta.begin_cow()
        delta.plane.begin_cow(cow)
        assert _observable_state(delta) == _observable_state(_rebuilt(mode))

        rng_a = random.Random(seed)
        rng_b = random.Random(seed)
        for cycle in range(5):
            # Capture tracking must not perturb semantics: an untracked
            # rebuild fed the same ops ends in the same state...
            live = _rebuilt(mode)
            for _ in range(40):
                _random_op(live, rng_a)
                _random_op(delta, rng_b)
            assert _observable_state(live) == _observable_state(delta)
            # ...and rollback lands exactly on the rebuilt capture state.
            _rollback(delta, cow)
            assert _observable_state(delta) == _observable_state(_rebuilt(mode))

    def test_restore_after_wild_write_unmaps_fresh_pages(self):
        memory = TaintedMemory(TaintPlane(MODE_BIT))
        memory.write_bytes(_BASE, b"x" * 32)
        before = memory.mapped_pages()
        cow = memory.begin_cow()
        memory.plane.begin_cow(cow)
        memory.write_bytes(_WILD, b"A" * 1000, taint=True)
        assert memory.mapped_pages() > before
        _rollback(memory, cow)
        assert memory.mapped_pages() == before
        assert set(memory._pages) == set(memory._taint_pages)


class TestDirtySetInvariants:
    """White-box: the capture tracks exactly the first post-capture writes."""

    def _captured(self):
        memory = TaintedMemory(TaintPlane(MODE_BIT))
        memory.write_bytes(_BASE, bytes(range(256)))
        cow = memory.begin_cow()
        memory.plane.begin_cow(cow)
        return memory, cow

    def test_capture_starts_clean(self):
        _, cow = self._captured()
        assert not cow.data_dirty and not cow.shadow_dirty
        assert not cow.fresh and not cow.data_baseline

    def test_first_write_cows_pristine_baseline(self):
        memory, cow = self._captured()
        memory.write(_BASE, 4, 0xDEADBEEF)
        assert cow.data_dirty == {_BASE}
        assert cow.data_baseline[_BASE][:4] == bytes(range(4))
        # A second write must not re-copy (the baseline is pre-mutation).
        memory.write(_BASE, 4, 0x11111111)
        assert cow.data_baseline[_BASE][:4] == bytes(range(4))

    def test_clean_write_to_clean_page_skips_shadow_tracking(self):
        memory, cow = self._captured()
        memory.write(_BASE, 4, 7)
        assert not cow.shadow_dirty  # shadow untouched, nothing to revert

    def test_fresh_pages_never_enter_the_baseline(self):
        memory, cow = self._captured()
        memory.write(_WILD, 4, 1, taint_mask=0xF)
        assert _WILD in cow.fresh
        assert _WILD not in cow.data_baseline
        assert _WILD not in cow.shadow_baseline

    def test_restore_is_idempotent(self):
        memory, cow = self._captured()
        memory.write_bytes(_BASE + 10, b"garbage", taint=True)
        _rollback(memory, cow)
        once = _observable_state(memory)
        _rollback(memory, cow)
        assert _observable_state(memory) == once
        assert not cow.data_dirty and not cow.shadow_dirty and not cow.fresh

    def test_restoring_a_displaced_checkpoint_raises(self):
        exe = assemble(".text\n_start:\nli $v0, 1\nli $a0, 0\nsyscall\n")
        sim = Simulator(exe)
        first = sim.snapshot()
        second = sim.snapshot()  # displaces the first capture
        with pytest.raises(ValueError, match="stale"):
            sim.restore(first)
        sim.restore(second)  # the most recent one keeps restoring
        sim.restore(second)
        with pytest.raises(ValueError, match="stale"):
            Simulator(exe).restore(second)  # another machine's snapshot


class TestCampaignDigestPin:
    """The end-to-end statement: every configuration reproduces the pin."""

    def _digest(self, **overrides) -> str:
        config = CampaignConfig(seed=11, trials=25, **overrides)
        campaign = FaultCampaign(builtin_workload("exp3"), config)
        return campaign.run().digest()

    def test_delta_restore_matches_legacy_full_copy(self):
        """Rollback vs the simplest reference: a fresh rebuild per trial."""
        assert self._digest() == DIGEST_PIN
        assert self._digest(reuse_snapshots=False) == DIGEST_PIN

    def test_fast_triggers_match_legacy_injector(self):
        """Fire-point triggers under per-instruction observers (unfused
        prefix, no epoch fast-forward)."""
        config = CampaignConfig(seed=11, trials=25)
        campaign = FaultCampaign(
            builtin_workload("exp3"),
            config,
            instrument=lambda sim: sim.events.subscribe(
                InstructionRetired, lambda event: None
            ),
        )
        assert campaign.run().digest() == DIGEST_PIN

    def test_pin_holds_in_label_mode(self):
        assert self._digest(taint_labels=True) == DIGEST_PIN

    def test_pin_holds_without_superblocks(self):
        assert self._digest(superblocks=False) == DIGEST_PIN

    @pytest.mark.parametrize("workers", (2, 8))
    def test_pin_holds_across_worker_pools(self, workers):
        assert self._digest(workers=workers) == DIGEST_PIN
