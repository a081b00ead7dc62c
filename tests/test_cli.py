"""CLI smoke tests (tiny config, heavily scaled down)."""

import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.cli as cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "nn"])
        assert args.config == "small"
        assert args.scale == 1.0


def _leaf_parsers(parser, prefix=()):
    """(command path, subparser) for every command that sets a handler."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, prefix + (name,))
    if parser.get_default("func") is not None:
        yield " ".join(prefix), parser


def _args_read(func, seen=None):
    """Attributes of ``args`` that ``func`` reads, following the cli
    helpers (``_config``, ``_make_runner``, ...) it passes ``args`` to."""
    seen = set() if seen is None else seen
    seen.add(func)
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(func))):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            names.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            passed = [a for a in node.args if isinstance(a, ast.Name)]
            if not any(a.id == "args" for a in passed):
                continue
            if node.func.id == "getattr" and isinstance(
                    node.args[1], ast.Constant):
                names.add(node.args[1].value)
            helper = getattr(cli, node.func.id, None)
            if inspect.isfunction(helper) and helper not in seen:
                names |= _args_read(helper, seen)
    return names


class TestFlagsAreRead:
    def test_every_flag_is_read_by_its_handler(self):
        """A flag that no handler reads is silently ignored: the user
        asks for something and gets the default."""
        dead = []
        for command, parser in _leaf_parsers(build_parser()):
            read = _args_read(parser.get_default("func"))
            dead += [
                f"{command} {action.option_strings[-1]}"
                for action in parser._actions
                if action.option_strings and action.dest != "help"
                and action.dest not in read
            ]
        assert dead == []

    def test_walk_covers_nested_commands(self):
        commands = [c for c, _ in _leaf_parsers(build_parser())]
        assert {"validate", "campaign run", "campaign status"} <= set(commands)


SRC = Path(repro.__file__).resolve().parent.parent

#: Every package ``__init__`` under ``src/repro``, as a dotted name.
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in SRC.glob("repro/**/__init__.py")
)


def _fresh(code):
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(statements):
    """``repro`` modules a fresh interpreter holds after ``statements``."""
    return set(_fresh(
        f"{statements}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'repro')))"))


def _lazy_map(tree):
    """The ``lazy_exports`` map of a package ``__init__``, name -> module."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "lazy_exports"):
            exports = ast.literal_eval(node.args[1])
            return {n: m for m, names in exports.items() for n in names}
    return None


def _type_checking_imports(tree):
    """Names the ``if TYPE_CHECKING:`` block imports, name -> module."""
    names = {}
    for node in tree.body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            for stmt in node.body:
                names.update({a.name: stmt.module for a in stmt.names})
    return names


class TestImportFootprint:
    def test_cli_import_does_not_load_numpy(self):
        """Every CLI process pays for what ``repro.cli`` imports; the
        simulator keeps its state in plain lists and needs no numpy."""
        assert _fresh(
            "import json, sys, repro, repro.cli\n"
            "print(json.dumps('numpy' in sys.modules))") is False

    def test_simulator_loads_only_its_layers(self):
        """Importing the simulator loads no layer above it: package
        ``__init__``s resolve their re-exports on first use."""
        loaded = _loaded_after(
            "import repro.gpu, repro.workloads.suite, repro.core.metrics")
        layers = {m.split(".")[1] for m in loaded if m != "repro"}
        assert not layers & {"runner", "service", "telemetry", "analysis", "cli"}
        assert {m for m in loaded if m.split(".")[1:2] == ["core"]} == {
            "repro.core", "repro.core.metrics"}

    def test_cli_help_skips_unused_commands(self):
        """``repro --help`` builds the parser and imports no handler's
        implementation (``-X importtime`` lists every module imported)."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro.cli", "--help"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
        assert "latency-profile" in proc.stdout
        loaded = {
            line.rpartition("|")[2].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "repro.sim.config" in loaded
        assert "repro.core.validation" not in loaded
        assert not [m for m in loaded
                    if m.startswith(("repro.telemetry", "repro.analysis"))]
        # Parser defaults come from import-light modules: building the
        # parser loads no simulator, campaign runner or daemon.
        assert not loaded & {
            "repro.gpu", "repro.runner.campaign", "repro.service.daemon"}

    def test_runner_pool_preloads_the_simulator(self):
        """``BatchRunner`` forks a fresh pool per batch; its workers must
        inherit the compiled simulator instead of importing it per batch."""
        assert "repro.gpu" in _loaded_after("import repro.runner.pool")

    def test_every_exported_name_resolves(self):
        report = _fresh(
            "import importlib, json, repro\n"
            "from repro import *\n"
            f"packages = {PACKAGES!r}\n"
            "missing = [f'* {n}' for n in repro.__all__ if n not in globals()]\n"
            "for name in packages:\n"
            "    package = importlib.import_module(name)\n"
            "    listed = set(dir(package))\n"
            "    for export in package.__all__:\n"
            "        if not hasattr(package, export) or export not in listed:\n"
            "            missing.append(f'{name}.{export}')\n"
            "print(json.dumps(missing))")
        assert report == []

    @pytest.mark.parametrize("package", PACKAGES)
    def test_static_imports_match_the_lazy_map(self, package):
        """The ``TYPE_CHECKING`` block (what type checkers see) names the
        same objects from the same modules as the runtime map."""
        path = SRC.joinpath(*package.split("."), "__init__.py")
        tree = ast.parse(path.read_text())
        lazy = _lazy_map(tree)
        assert lazy is not None, f"{package} does not use lazy_exports"
        assert _type_checking_imports(tree) == lazy


class TestCommands:
    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "lbm" in out and "leukocyte" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Flit size (crossbar)" in out
        assert "Memory pipeline width" in out

    def test_run(self, capsys):
        assert main(["run", "nn", "--config", "tiny", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "L2 accessQ full" in out

    def test_run_magic(self, capsys):
        assert main([
            "run", "nn", "--config", "tiny", "--scale", "0.1",
            "--magic-latency", "100",
        ]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_congestion(self, capsys):
        assert main([
            "congestion", "--config", "tiny", "--scale", "0.1",
            "--benchmarks", "nn", "leukocyte",
        ]) == 0
        out = capsys.readouterr().out
        assert "Section III" in out

    def test_latency_profile(self, capsys):
        assert main([
            "latency-profile", "--config", "tiny", "--scale", "0.1",
            "--benchmarks", "nn", "--latencies", "0", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out

    def test_explore(self, capsys):
        assert main([
            "explore", "--config", "tiny", "--scale", "0.1",
            "--benchmarks", "nn",
        ]) == 0
        out = capsys.readouterr().out
        assert "Speedup over baseline" in out


class TestAnalysisCommands:
    def test_diagnose(self, capsys):
        assert main([
            "diagnose", "--config", "tiny", "--scale", "0.1",
            "--benchmarks", "leukocyte",
        ]) == 0
        out = capsys.readouterr().out
        assert "Bottleneck classification" in out

    def test_breakdown(self, capsys):
        assert main([
            "breakdown", "nn", "--config", "tiny", "--scale", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "Latency breakdown" in out
        assert "congestion share" in out

    def test_replicate(self, capsys):
        assert main([
            "replicate", "nn", "--config", "tiny", "--scale", "0.1",
            "--seeds", "1", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Replication" in out and "CV" in out

    def test_export(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        assert main([
            "export", str(target), "--config", "tiny", "--scale", "0.1",
            "--benchmarks", "nn",
        ]) == 0
        assert target.exists()
        assert "benchmark" in target.read_text().splitlines()[0]

    def test_validate_parser_wiring(self):
        args = build_parser().parse_args(["validate", "--scale", "0.2"])
        assert args.scale == 0.2
        assert args.func.__name__ == "_cmd_validate"


class TestTelemetryCommands:
    def test_run_timeline(self, capsys):
        assert main([
            "run", "nn", "--config", "tiny", "--scale", "0.1",
            "--timeline", "--window", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "Cycle-windowed telemetry" in out
        assert "dram bus util" in out

    def test_profile(self, capsys, tmp_path):
        target = tmp_path / "profile.json"
        assert main([
            "profile", "sc", "--config", "tiny", "--scale", "0.1",
            "--json", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "Top-down cycle accounting" in out
        assert "conserved=true" in out
        document = json.loads(target.read_text())
        assert document["benchmark"] == "sc"
        assert sum(document["classes"].values()) == document["sm_cycles"]

    def test_profile_diff(self, capsys, tmp_path):
        target = tmp_path / "diff.json"
        assert main([
            "profile", "sc", "--config", "tiny", "--scale", "0.1",
            "--diff", "baseline", "l2", "--json", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "Profile diff" in out
        assert "speedup" in out
        document = json.loads(target.read_text())
        assert document["a"]["config"] == "baseline"
        assert document["b"]["config"] == "l2"
        assert "classes_reclaimed" in document

    def test_profile_unknown_label_exits_2(self, capsys):
        assert main([
            "profile", "sc", "--config", "tiny", "--scale", "0.1",
            "--config-label", "turbo",
        ]) == 2
        assert "turbo" in capsys.readouterr().err

    def test_trace_writes_chrome_trace(self, capsys, tmp_path):
        target = tmp_path / "trace.json"
        assert main([
            "trace", "nn", "--config", "tiny", "--scale", "0.1",
            "--out", str(target), "--stride", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "spans" in out and "Per-hop latencies" in out
        trace = json.loads(target.read_text())
        assert trace["traceEvents"]
        assert trace["otherData"]["stride"] == 1

    def test_export_json_format(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        assert main([
            "export", str(target), "--format", "json",
            "--config", "tiny", "--scale", "0.1", "--benchmarks", "nn",
        ]) == 0
        assert "(json)" in capsys.readouterr().out
        runs = json.loads(target.read_text())
        assert runs[0]["benchmark"] == "nn"
        assert "full_fraction" in runs[0]["l2_accessq"]  # nested queues

    def test_repro_error_exits_2(self, capsys):
        # stride 0 reaches the telemetry UsageError, a ReproError:
        # main() reports it as a one-liner instead of a traceback.
        assert main([
            "trace", "nn", "--config", "tiny", "--scale", "0.1",
            "--stride", "0",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "stride" in err
