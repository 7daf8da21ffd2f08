"""The public API surface: imports, quickstart, and __all__ hygiene."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.intervals",
            "repro.resources",
            "repro.computation",
            "repro.logic",
            "repro.decision",
            "repro.baselines",
            "repro.system",
            "repro.workloads",
            "repro.analysis",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"


    def test_import_does_not_load_numpy(self):
        """The profile algebra is pure Python: importing the package
        must not pull numpy in (it is a test and benchmark extra)."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print('numpy' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True,
        )
        assert probe.stdout.strip() == "False", probe.stdout


class TestQuickstart:
    def test_module_docstring_example(self):
        """The example in repro.__doc__ must actually work."""
        cluster = repro.ResourceSet.of(repro.term(5, repro.cpu("l1"), 0, 10))
        job = repro.ComplexRequirement(
            [repro.Demands({repro.cpu("l1"): 30})],
            repro.Interval(0, 8),
            label="job",
        )
        controller = repro.AdmissionController(cluster)
        decision = controller.admit(job)
        assert decision.admitted

    def test_readme_flow(self):
        """Build resources -> describe computation -> ask the question."""
        l1 = repro.Node("l1")
        actor = repro.Actor("worker", l1, (repro.Evaluate("fft", work=3),))
        computation = repro.sequential(actor, 0, 6, name="fft-job")
        model = repro.RotaModel(
            repro.ResourceSet.of(repro.term(5, repro.cpu(l1), 0, 6))
        )
        assert model.meets_deadline(computation) is not None
