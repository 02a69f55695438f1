"""Heavy packages stay off the import path of every command.

``networkx`` serves one Figure 4 helper (``control_flow_graph``) and may
not load until that code runs; numpy is no dependency at all, and no
command, batched runs included, may pull it in.  Loading either takes a
few tenths of a second.  Each check runs in a fresh interpreter, because
other tests may already have imported both into this one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HEAVY = ("networkx", "numpy")


def run_fresh(code: str, env=None) -> dict:
    """Run *code* in a fresh interpreter; it must ``report(...)`` a dict."""
    prelude = textwrap.dedent(
        """
        import json, sys

        def report(**facts):
            facts["loaded"] = sorted(m for m in %r if m in sys.modules)
            print(json.dumps(facts))
        """
        % (HEAVY,)
    )
    environ = dict(os.environ, PYTHONPATH=SRC)
    environ.update(env or {})
    done = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        env=environ,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_cli_loads_neither():
    assert run_fresh("import repro.cli\nreport()")["loaded"] == []


def test_campaign_status_loads_neither(tmp_path):
    facts = run_fresh(
        f"""
        from repro.cli import main
        report(rc=main(["campaign", "status", "e3-matrix", "--store", {str(tmp_path)!r}]))
        """
    )
    assert facts == {"rc": 0, "loaded": []}


def test_fresh_batched_run_loads_neither(tmp_path):
    argv = ["campaign", "run", "ci-smoke", "--store", str(tmp_path), "--batch", "16"]
    facts = run_fresh(f"from repro.cli import main\nreport(rc=main({argv!r}))")
    assert facts == {"rc": 0, "loaded": []}


def test_cached_batched_run_loads_neither(tmp_path):
    store = str(tmp_path)
    argv = ["campaign", "run", "ci-smoke", "--store", store, "--batch", "16"]
    filled = run_fresh(f"from repro.cli import main\nreport(rc=main({argv!r}))")
    assert filled["rc"] == 0
    rerun = run_fresh(
        f"from repro.cli import main\nreport(rc=main({argv + ['--require-cached', '1']!r}))"
    )
    assert rerun == {"rc": 0, "loaded": []}


def test_control_flow_graph_imports_networkx_on_use():
    facts = run_fresh(
        """
        from repro.sim import Machine, control_flow_graph
        machine = Machine("i7-7700", seed=1)
        result = machine.run(machine.load_program("mov rax, 1\\nhlt"), record_trace=True)
        before = "networkx" in sys.modules
        graph = control_flow_graph(result)
        report(before=before, graph=type(graph).__module__ + "." + type(graph).__name__)
        """
    )
    assert facts["before"] is False
    assert facts["graph"].startswith("networkx.") and facts["graph"].endswith("DiGraph")
