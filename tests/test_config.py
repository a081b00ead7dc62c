"""Configuration validation and derived-quantity tests."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigError
from repro.sim.config import (
    DRAM_DATA_RATE,
    PACKET_HEADER_BYTES,
    CoreConfig,
    DRAMConfig,
    GPUConfig,
    ICNTConfig,
    L1Config,
    L2Config,
    fermi_gtx480,
    small_gpu,
    tiny_gpu,
)


class TestValidation:
    def test_defaults_are_valid(self):
        GPUConfig()

    def test_factories_are_valid(self):
        for factory in (fermi_gtx480, small_gpu, tiny_gpu):
            assert isinstance(factory(), GPUConfig)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sms=0),
            dict(warps_per_sm=0),
            dict(issue_width=0),
            dict(mem_pipeline_width=0),
            dict(scheduler="bogus"),
        ],
    )
    def test_bad_core_config(self, kwargs):
        with pytest.raises(ConfigError):
            CoreConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(size_bytes=0),
            dict(assoc=0),
            dict(mshr_entries=0),
            dict(miss_queue_depth=0),
        ],
    )
    def test_bad_l1_config(self, kwargs):
        with pytest.raises(ConfigError):
            L1Config(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(banks=3),  # not a power of two
            dict(bank_latency=0),
            dict(access_queue_depth=0),
            dict(data_port_bytes=0),
        ],
    )
    def test_bad_l2_config(self, kwargs):
        with pytest.raises(ConfigError):
            L2Config(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sched_queue_depth=0),
            dict(banks=6),
            dict(bus_bytes=0),
            dict(scheduler="lifo"),
            dict(t_cas=0),
        ],
    )
    def test_bad_dram_config(self, kwargs):
        with pytest.raises(ConfigError):
            DRAMConfig(**kwargs)

    def test_bad_icnt_config(self):
        with pytest.raises(ConfigError):
            ICNTConfig(flit_bytes=0)
        with pytest.raises(ConfigError):
            ICNTConfig(network_latency=-1)

    def test_gpu_level_cross_checks(self):
        with pytest.raises(ConfigError):
            GPUConfig(n_partitions=3)
        with pytest.raises(ConfigError):
            GPUConfig(line_bytes=100)
        with pytest.raises(ConfigError):
            # L1 not divisible by line*assoc
            GPUConfig(l1=L1Config(size_bytes=1000))


def _attributes_read(tree: ast.AST) -> set[str]:
    """Attribute names loaded anywhere in ``tree`` outside ``__post_init__``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            node.body = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_config_field_has_a_reader():
    """A config field nothing reads (validation aside) is a dead knob."""
    read: set[str] = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        read |= _attributes_read(ast.parse(path.read_text()))
    unread = [
        f"{cls.__name__}.{f.name}"
        for cls in (CoreConfig, L1Config, ICNTConfig, L2Config, DRAMConfig,
                    GPUConfig)
        for f in dataclasses.fields(cls)
        if f.name not in read
    ]
    assert unread == []


class TestDerivedQuantities:
    def test_dram_transfer_cycles(self):
        cfg = GPUConfig()
        expected = cfg.line_bytes // (cfg.dram.bus_bytes * DRAM_DATA_RATE)
        assert cfg.dram_transfer_cycles == expected

    def test_l2_port_cycles(self):
        cfg = GPUConfig()
        assert cfg.l2_port_cycles == cfg.line_bytes // cfg.l2.data_port_bytes

    def test_scaled_port_is_single_cycle(self):
        cfg = dataclasses.replace(
            GPUConfig(), l2=L2Config(data_port_bytes=128)
        )
        assert cfg.l2_port_cycles == 1

    def test_request_flits_read_vs_write(self):
        cfg = GPUConfig()
        read = cfg.request_flits(is_write=False)
        write = cfg.request_flits(is_write=True)
        assert write > read  # writes carry line data
        assert read == -(-PACKET_HEADER_BYTES // cfg.icnt.flit_bytes)

    def test_response_transfer_cycles_shrink_with_flit_size(self):
        cfg = GPUConfig()
        big_flit = dataclasses.replace(
            cfg, icnt=dataclasses.replace(cfg.icnt, flit_bytes=16)
        )
        assert (
            big_flit.response_transfer_cycles()
            < cfg.response_transfer_cycles()
        )

    def test_with_magic_memory(self):
        cfg = GPUConfig().with_magic_memory(250)
        assert cfg.magic_memory
        assert cfg.magic_latency == 250
        # original untouched (frozen dataclass semantics)
        assert not GPUConfig().magic_memory

    def test_configs_are_frozen(self):
        cfg = GPUConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_partitions = 8  # noqa: REP005 - deliberately testing that the config is frozen
