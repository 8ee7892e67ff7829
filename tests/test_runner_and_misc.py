"""Coverage for the experiment runner and remaining public surfaces."""

import pytest

from repro.experiments.iscas_socs import paper_reference
from repro.cli import main as cli_main
from repro.experiments.runner import EXPERIMENTS


class TestRunnerCli:
    def test_experiment_list_is_complete(self):
        assert set(EXPERIMENTS) == {
            "cone-example", "table1", "table2", "table3", "table4",
            "correlation", "ablation", "extensions", "tam", "population",
        }

    def test_runner_main_single(self, capsys):
        assert cli_main(["experiments", "cone-example"]) == 0
        assert "25.0%" in capsys.readouterr().out

    def test_runner_rejects_unknown(self):
        with pytest.raises(SystemExit):
            cli_main(["experiments", "not-an-experiment"])

    def test_paper_reference_tables(self):
        table1 = paper_reference(1)
        assert table1["mono_patterns"] == 216
        assert table1["max_core_patterns"] == 85
        table2 = paper_reference(2)
        assert table2["reduction_ratio"] == pytest.approx(2.22)

    def test_paper_reference_rejects_other_tables(self):
        with pytest.raises(ValueError):
            paper_reference(3)


class TestVersionAndExports:
    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize(
        "package",
        ["repro", "repro.core", "repro.soc", "repro.circuit", "repro.atpg",
         "repro.synth", "repro.itc02", "repro.tam", "repro.experiments"],
    )
    def test_all_exports_resolve(self, package):
        """Every name in __all__ must actually exist — catches stale
        export lists after refactors."""
        import importlib

        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name}"

    def test_no_upward_imports_from_circuit(self):
        """Layering check: repro.circuit modules must not import
        repro.atpg at module scope (the documented exception uses
        function-local imports)."""
        import pathlib

        circuit_dir = pathlib.Path("src/repro/circuit")
        for path in circuit_dir.glob("*.py"):
            for line in path.read_text().splitlines():
                # Module scope only: column 0.  Indented (function-local)
                # imports are the sanctioned exception.
                if line.startswith(("import ", "from ")) and "atpg" in line:
                    pytest.fail(f"{path.name}: module-scope atpg import: {line}")


class TestShippedFigures:
    def test_figures_directory_regenerates_identically(self, tmp_path):
        """The committed figures/ SVGs are exactly what the code emits."""
        import pathlib

        from repro.experiments import generate_figures

        shipped_dir = pathlib.Path("figures")
        if not shipped_dir.exists():
            pytest.skip("figures/ not generated in this checkout")
        written = generate_figures(tmp_path)
        for name, path in written.items():
            shipped = shipped_dir / f"{name}.svg"
            assert shipped.read_text() == path.read_text(), name
