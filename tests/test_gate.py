"""Every shipped fixture against the benchmark's correctness gate.

The benchmark refuses a change whose fixture outcomes (exit code,
verdicts, skip counts, max residuals) differ from those recorded in
perfbench/expected.json, at the fixture's own sample count and at 5000
samples. These tests make the same comparison with the gate's own code,
so such a change fails here first."""
import io

import pytest

from qbhkit.cli import run_command
from qbhkit.fixtures import fixture_names

from helpers import perfbench_module

gate = perfbench_module("gate")
EXPECTED = gate.load_expected()["fixtures"]


@pytest.mark.parametrize("samples", gate.RECORDED_SAMPLES)
@pytest.mark.parametrize("name", fixture_names())
def test_fixture_outcome_passes_the_benchmark_gate(name, samples):
    out = io.StringIO()
    argv = gate.fixture_argv(name, samples)
    code, _ = run_command(argv, stdout=out, stderr=io.StringIO())
    got = gate.outcome(code, out.getvalue())
    assert gate.compare(EXPECTED[gate.samples_key(samples)][name], got) == []
