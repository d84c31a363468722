"""tools/ab_inprocess.py: two trees in one process, alternately."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
TOOL = ROOT / "tools" / "ab_inprocess.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("ab_inprocess", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_repo_against_itself_agrees_on_every_op():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--fixture", "hojman-2d",
         "--ops", "4", "--warmup", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["parent", "change", "ratio", "change"]
    assert lines[-1].endswith("/4 ops")


def test_the_order_swaps_every_op_and_a_difference_stops_the_run(tool):
    calls = []

    def command(side, output):
        def run_command(argv, stdout, stderr):
            calls.append(side)
            stdout.write(output)
            return 0, None

        return run_command

    same = {"parent": command("parent", "{}"), "change": command("change", "{}")}
    times = tool.compare(same, iter([["x"]] * 3), ops=2, warmup=1)
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert [len(times[side]) for side in tool.SIDES] == [2, 2]
    other = dict(same, change=command("change", "{ }"))
    with pytest.raises(AssertionError, match="operation 0 .* differs"):
        tool.compare(other, iter([["x"]]), ops=1, warmup=0)
