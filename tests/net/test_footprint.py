"""What a socket plane carries: no networkx, and nothing left for the
cyclic collector, or a socket for the garbage collector, once it is
closed.

Only a :class:`~repro.net.topology.Topology` (the simulator, the PSF
planner, Fig 1) needs networkx, so it is imported when one is built.
Every check runs in a fresh interpreter: a module another test already
imported, or garbage another test left, would hide what is measured.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _python(code: str, *flags: str, timeout: float = 120.0) -> str:
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True,
        timeout=timeout, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)])),
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "ResourceWarning" not in proc.stderr, proc.stderr[-4000:]
    return proc.stdout


def test_library_and_socket_stacks_do_not_import_networkx():
    out = _python(
        "import sys\n"
        "import repro, repro.core, repro.net, repro.core.sharding\n"
        "import repro.net.aio_transport, repro.net.reliability\n"
        "print('networkx' in sys.modules)\n"
    )
    assert out.split() == ["False"]


def test_a_topology_still_imports_networkx_when_built():
    out = _python(
        "import sys\n"
        "from repro.net.topology import lan_topology\n"
        "before = 'networkx' in sys.modules\n"
        "topo = lan_topology(['a', 'b'])\n"
        "print(before, 'networkx' in sys.modules, topo.latency('a', 'b'),\n"
        "      type(topo.graph).__name__)\n"
    )
    assert out.split() == ["False", "True", "1.0", "Graph"]


def test_composed_plane_runs_with_networkx_blocked(tmp_path):
    out = _python(
        "import sys\n"
        "sys.modules['networkx'] = None  # any import of it now fails\n"
        "from tests.net.composed_rig import build_composed, drive\n"
        f"system, top, store = build_composed({str(tmp_path)!r})\n"
        "try:\n"
        "    drive(system, store)\n"
        "    system.plane.check_invariants()\n"
        "finally:\n"
        "    system.close()\n"
        "    top.close()\n"
        "print(sorted(system.plane.counters.items()))\n"
    )
    assert "('commits'," in out


def test_a_closed_plane_is_freed_by_reference_counting(tmp_path):
    out = _python(
        "import json\n"
        "from tests.net.composed_rig import leftovers\n"
        f"print(json.dumps(leftovers({str(tmp_path)!r})))\n"
    )
    left = json.loads(out.splitlines()[-1])
    assert left == {"alive": [], "cyclic": []}, (
        "outlived close() and del: " + json.dumps(left)
    )


def test_close_leaves_no_socket_for_the_garbage_collector(tmp_path):
    # Under -X dev an unclosed socket or transport is a ResourceWarning
    # from its finalizer, printed to stderr (which _python reads).  A
    # close right behind a send also catches the link's connection
    # between its accept and its transport.
    out = _python(
        "import gc, threading\n"
        "from repro.net import AioTcpTransport, Message\n"
        "from tests.net.composed_rig import build_composed, drive\n"
        "for _ in range(5):\n"
        "    tr = AioTcpTransport()\n"
        "    got = threading.Event()\n"
        "    tr.bind('a', lambda m: None)\n"
        "    tr.bind('b', lambda m: got.set())\n"
        "    tr.send(Message('PING', 'a', 'b', {}))\n"
        "    tr.close()\n"
        "tr = AioTcpTransport()\n"
        "tr.bind('a', lambda m: None)\n"
        "tr.bind('b', lambda m: got.set())\n"
        "tr.send(Message('PING', 'a', 'b', {}))\n"
        "assert got.wait(5.0)\n"
        "tr.close()\n"
        f"system, top, store = build_composed({str(tmp_path)!r})\n"
        "try:\n"
        "    drive(system, store)\n"
        "finally:\n"
        "    system.close()\n"
        "    top.close()\n"
        "del tr, system, top, store\n"
        "gc.collect()\n"
        "print('closed')\n",
        "-X", "dev", "-W", "error::ResourceWarning",
    )
    assert out.split() == ["closed"]
