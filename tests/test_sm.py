"""SM tests: issue, LD/ST pipeline, blocking, retirement, IPC accounting.

These use magic-memory mode so the SM + L1 can be tested without the full
memory system.
"""

import dataclasses

import pytest

from repro.cache.l1 import AccessResult
from repro.cores.sm import SM
from repro.cores.warp import WarpState
from repro.mem.request import RequestFactory
from repro.sim.config import CoreConfig, tiny_gpu


def make_sm(programs, mlp=4, magic_latency=20, **core_kwargs):
    cfg = tiny_gpu().with_magic_memory(magic_latency)
    if core_kwargs:
        cfg = dataclasses.replace(
            cfg, core=dataclasses.replace(cfg.core, **core_kwargs)
        )
    return SM(0, cfg, [iter(p) for p in programs], mlp, RequestFactory())


def run(sm, cycles):
    for c in range(sm.cycles, sm.cycles + cycles):
        sm.step(c)


class TestComputeIssue:
    def test_compute_counts_instructions(self):
        sm = make_sm([[("compute", 5)]])
        run(sm, 10)
        assert sm.instructions == 5
        assert sm.done

    def test_issue_width_caps_per_cycle(self):
        sm = make_sm([[("compute", 10)], [("compute", 10)]], issue_width=2)
        sm.step(0)
        assert sm.instructions == 2

    def test_ipc_bounded_by_issue_width(self):
        sm = make_sm([[("compute", 50)] for _ in range(4)], issue_width=2)
        run(sm, 200)
        assert sm.done
        assert sm.ipc <= 2.0


class TestLoads:
    def test_load_reaches_l1_and_completes(self):
        sm = make_sm([[("load", [0x10])]], magic_latency=10)
        run(sm, 40)
        assert sm.done
        assert sm.l1.misses_issued == 1

    def test_warp_blocks_at_mlp_limit(self):
        program = [("load", [1]), ("load", [2]), ("load", [3]), ("compute", 1)]
        sm = make_sm([program], mlp=2, magic_latency=500)
        run(sm, 10)
        warp = sm.warps[0]
        assert warp.state is WarpState.BLOCKED
        assert warp.outstanding_loads == 2  # third load not yet issued

    def test_warp_wakes_on_completion(self):
        program = [("load", [1]), ("compute", 3)]
        sm = make_sm([program], mlp=1, magic_latency=15)
        run(sm, 60)
        assert sm.done
        assert sm.instructions == 2 + 3 - 1  # load + membar-free compute run

    def test_membar_waits_for_loads(self):
        program = [("load", [1]), ("membar",), ("compute", 1)]
        sm = make_sm([program], mlp=4, magic_latency=30)
        run(sm, 5)
        assert sm.warps[0].state is WarpState.BLOCKED
        run(sm, 100)
        assert sm.done

    def test_divergent_load_creates_transactions(self):
        sm = make_sm([[("load", [1, 2, 3, 4])]], magic_latency=5)
        run(sm, 60)
        assert sm.done
        assert sm.l1.misses_issued == 4
        # one load instruction, four transactions
        assert sm.instructions == 1


class TestStores:
    def test_store_is_fire_and_forget(self):
        sm = make_sm([[("store", [1]), ("compute", 2)]])
        run(sm, 10)
        assert sm.done
        assert sm.l1.stores_sent == 1


class TestStructural:
    def test_ldst_queue_full_stalls_issue(self):
        # mlp high, ldst tiny: issue must stall on queue space.
        program = [("load", [1, 2, 3, 4]) for _ in range(8)]
        sm = make_sm([program], mlp=8, magic_latency=400,
                     ldst_queue_depth=4, mem_pipeline_width=1)
        run(sm, 4)
        assert len(sm._ldst_queue) <= 4

    def test_mem_pipeline_width_limits_drain(self):
        sm = make_sm([[("load", [1, 2, 3, 4, 5, 6])]],
                     mlp=8, magic_latency=500, mem_pipeline_width=2)
        sm.step(0)   # issue the load -> 6 txns queued
        sm.step(1)   # drain at most 2
        assert sm.l1.misses_issued <= 4

    def test_quiesce_after_done(self):
        sm = make_sm([[("compute", 1)]])
        run(sm, 30)
        assert sm.done and sm.is_idle()
        before = sm.instructions
        run(sm, 10)
        assert sm.instructions == before


class TestMultiWarp:
    def test_all_warps_retire(self):
        programs = [[("compute", 2), ("load", [i]), ("compute", 2)]
                    for i in range(4)]
        sm = make_sm(programs, magic_latency=12)
        run(sm, 200)
        assert sm.done
        assert all(w.state is WarpState.RETIRED for w in sm.warps)

    def test_no_ready_warp_cycles_counted(self):
        sm = make_sm([[("load", [1])]], mlp=1, magic_latency=50)
        run(sm, 40)
        assert sm.no_ready_warp_cycles > 0

    def test_instructions_conserved(self):
        """Total issued = per-warp program lengths (compute expanded)."""
        programs = [
            [("compute", 3), ("load", [1]), ("store", [2])],
            [("compute", 2), ("membar",)],
        ]
        sm = make_sm(programs, magic_latency=8)
        run(sm, 200)
        assert sm.done
        expected = (3 + 1 + 1) + (2 + 1)
        assert sm.instructions == expected
        assert sm.instructions == sum(w.instructions for w in sm.warps)


#: SMs whose LD/ST head stalls on a full L1 miss queue (tiny: 4 slots)
#: while no warp can issue: the only warp blocked on its MLP limit, or a
#: ready warp whose next load cannot fit in the LD/ST queue (frozen issue).
STALLED_SHAPES = {
    "no_ready_warp": dict(
        program=[("load", [1, 2, 3, 4, 5, 6])], mlp=1, ldst_queue_depth=64),
    "issue_frozen": dict(
        program=[("load", [1, 2, 3, 4, 5, 6]), ("load", list(range(7, 13)))],
        mlp=4, ldst_queue_depth=7),
}
#: Cycle after whose SM step the test pops the miss queue, as the request
#: network (stepped after the SMs) would.
POP_AT = 40


def make_stalled_sm(shape, fast):
    spec = STALLED_SHAPES[shape]
    cfg = tiny_gpu()
    cfg = dataclasses.replace(cfg, core=dataclasses.replace(
        cfg.core, ldst_queue_depth=spec["ldst_queue_depth"]))
    sm = SM(0, cfg, [iter(spec["program"])], spec["mlp"], RequestFactory())
    sm.set_fast_mode(fast)
    return sm


def spy(sm, method):
    """Record the cycle of every call of ``sm.<method>``."""
    calls = []
    original = getattr(sm, method)

    def wrapper(now):
        calls.append(now)
        return original(now)

    setattr(sm, method, wrapper)
    return calls


def drive(sm, start, stop):
    for c in range(start, stop):
        sm.step(c)
        if c == POP_AT:
            sm.l1.miss_queue.pop(c)


@pytest.mark.parametrize("shape", sorted(STALLED_SHAPES))
class TestStalledLdstWindow:
    def test_sleeps_until_a_miss_queue_pop(self, shape):
        sm = make_stalled_sm(shape, fast=True)
        drains = spy(sm, "_drain_ldst")
        issues = spy(sm, "_issue")
        drive(sm, 0, 3)
        assert sm.stall_cycles_by_cause == {AccessResult.STALL_MISSQ_FULL: 1}
        assert sm.l1.misses_issued == 4
        assert sm.issue_cycles == 1  # cycles 1 and 2 could not issue
        settled = (list(drains), list(issues))
        drive(sm, 3, POP_AT + 1)
        # Nothing changed since cycle 2: the SM did not re-run its stages.
        assert (drains, issues) == settled
        drive(sm, POP_AT + 1, POP_AT + 2)
        # The pop moved the L1 resource epoch: the head retried at once.
        assert drains[-1] == issues[-1] == POP_AT + 1
        assert sm.l1.misses_issued == 5

    def test_counters_match_the_naive_loop(self, shape):
        runs = []
        for fast in (True, False):
            sm = make_stalled_sm(shape, fast)
            drive(sm, 0, 100)
            sm.finalize(100)
            runs.append((
                sm.inspect_cycle_classes(), sm.instructions,
                sm.mem_pipeline_stall_cycles, dict(sm.stall_cycles_by_cause),
                sm.l1.misses_issued, dict(sm.l1.stall_counts),
                len(sm._ldst_queue),
            ))
        assert runs[0] == runs[1]
        assert runs[0][0]["cycles"] == 100
