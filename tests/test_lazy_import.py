"""``import repro`` must stay light: heavy subpackages load lazily.

The server layer pulls in ``asyncio``/HTTP machinery and the baseline zoo
pulls in every encoder; a client that only wants ``repro.compress`` should
pay for neither.  These tests run in a fresh interpreter because pytest's
own imports would pollute ``sys.modules``.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

_PROBE = r"""
import repro
{extra}
heavy = ["repro.server", "repro.analysis", "repro.baselines", "repro.service",
         "asyncio", "http", "http.server"]
print(json.dumps({{m: (m in sys.modules) for m in heavy}}))
"""


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        capture_output=True,
        text=True,
        env=env,
    )


def _last_json(code: str):
    out = _python(code)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _run_probe(extra: str = "") -> dict:
    return _last_json(_PROBE.format(extra=extra))


def test_import_repro_does_not_pull_server_or_asyncio():
    loaded = _run_probe()
    assert not loaded["repro.server"], "repro.server imported eagerly"
    assert not loaded["asyncio"], "asyncio imported by plain `import repro`"
    assert not loaded["http"], "http imported by plain `import repro`"
    assert not loaded["repro.analysis"]
    assert not loaded["repro.baselines"]
    assert not loaded["repro.service"]


def test_lazy_subpackages_resolve_on_attribute_access():
    loaded = _run_probe(extra="repro.server")
    assert loaded["repro.server"], "attribute access must import the subpackage"


def test_default_compress_does_not_import_baselines():
    """Registry entry lookups are metadata-only: compressing with the
    default engine must not pull in the five baseline kernel modules."""
    loaded = _run_probe(
        extra="import numpy as np; "
        "repro.compress(np.zeros((8, 8), dtype=np.float32), eb=1e-3)"
    )
    assert not loaded["repro.baselines"], "default compress imported the baseline zoo"


def test_lazy_attributes_work_in_this_process():
    # __getattr__ routing: the attribute is a real module and gets cached.
    assert repro.analysis.__name__ == "repro.analysis"
    assert repro.baselines.__name__ == "repro.baselines"
    assert "analysis" in dir(repro)


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no attribute"):
        repro.not_a_subpackage


# ------------------------------------------------------------- import budget
# Every fresh process pays its imports: each CLI call, server start, pool
# worker (re)spawn and cluster worker.  These pin what each entry point
# loads, each in a fresh interpreter.


def _loaded_after(code: str, modules: list[str]) -> dict:
    return _last_json(code + f"\nprint(json.dumps({{m: m in sys.modules for m in {modules!r}}}))")


@pytest.mark.parametrize("entry", ["repro", "repro.cli", "repro.server.app"])
def test_entry_points_load_no_scipy(entry):
    assert _loaded_after(f"import {entry}", ["scipy"]) == {"scipy": False}


@pytest.mark.parametrize(
    "code",
    [
        "import repro",
        "import repro.client",
        "import repro.http",
        "import repro.faults",
        "import repro.server.pool",
        "import repro.server.app",
        "import repro.cli; repro.cli.build_parser()",
    ],
)
def test_frontend_imports_load_no_numpy(code):
    """What a process-pool ``repro serve`` frontend (and any HTTP client)
    imports: none of it may pull in NumPy or the codec engine."""
    loaded = _loaded_after(code, ["numpy", "repro.api", "repro.core.compressor"])
    assert not any(loaded.values()), loaded


@pytest.mark.parametrize(
    "argv",
    [["serve", ".", "--workers-procs", "-3"], ["bench", "--codec", "fzgpu"]],
    ids=["serve-bad-pool", "bench-usage"],
)
def test_failing_command_before_the_engine_loads_no_numpy(argv):
    """The CLI's error boundary reports a typed error without importing the
    error classes of layers the command never reached."""
    loaded = _loaded_after(
        f"import repro.cli\nassert repro.cli.main({argv!r}) == 2",
        ["numpy", "repro.api", "repro.core.compressor"],
    )
    assert not any(loaded.values()), loaded


def test_import_repro_api_loads_the_engine():
    """``import repro.api`` still pays for the whole engine up front, so a
    caller's first compress does not."""
    loaded = _loaded_after("import repro.api", ["numpy", "repro.core.compressor",
                                                "repro.encoders.huffman"])
    assert all(loaded.values()), loaded


@pytest.mark.parametrize(
    "module",
    ["repro.core", "repro.core.compressor", "repro.core.tiling", "repro.core.streaming",
     "repro.encoders", "repro.gpu", "repro.predictor", "repro.quantizer", "repro.datasets",
     "repro.metrics", "repro.baselines", "repro.service", "repro.analysis", "repro.evaluation"],
)
def test_any_engine_module_can_be_imported_first(module):
    """``import repro`` no longer imports the engine in one fixed order, so
    a fresh process (a spawned pool or tile worker unpickling its target)
    may enter it anywhere; no entry may hit an import cycle."""
    assert _loaded_after(f"import {module}", [module]) == {module: True}


def test_pool_worker_boot_loads_no_frontend():
    """What a spawned worker imports before its ready handshake: the parent's
    main module (``python -m repro.cli``), the pickled target's module and
    the worker's own boot imports."""
    loaded = _loaded_after(
        "import repro.cli, repro.faults\n"
        "from repro.core.cache import ByteBudgetLRU\n"
        "from repro.server.pool import _worker_main",
        ["asyncio", "ssl", "repro.server.app", "scipy"],
    )
    assert not any(loaded.values()), loaded


def test_pool_worker_imports_the_engine_before_its_handshake():
    """A worker sends ``ready`` only once the engine is loaded, so deadlined
    tasks never wait out its import.  The sentinel is queued first, so the
    worker loop runs no task: whatever it loaded, it loaded to boot."""
    code = (
        "import multiprocessing, queue\n"
        "from repro.server.pool import _worker_main\n"
        "tasks = queue.Queue()\n"
        "tasks.put(None)\n"
        "reader, writer = multiprocessing.Pipe(duplex=False)\n"
        "_worker_main(0, tasks, writer, 0)\n"
        "assert reader.recv() == (0, 'ready', 0)"
    )
    loaded = _loaded_after(code, ["repro.core.compressor", "repro.encoders.huffman",
                                  "asyncio", "repro.server.app"])
    assert loaded == {"repro.core.compressor": True, "repro.encoders.huffman": True,
                      "asyncio": False, "repro.server.app": False}


def test_server_package_exports_resolve_lazily():
    import repro.server as server

    assert set(server.__all__) <= set(dir(server))
    for name in server.__all__:
        assert getattr(server, name) is not None
    from repro.server.pool import WorkerPool

    assert server.WorkerPool is WorkerPool
    with pytest.raises(AttributeError, match="no attribute"):
        server.not_an_export


def test_worker_pool_handshake_and_compress_task():
    """Two spawned workers boot on the task path alone and still answer."""
    import asyncio

    import numpy as np

    import repro.api as api
    from repro.server.pool import WorkerPool

    field = np.sin(np.arange(16 * 16 * 16, dtype=np.float32) / 40).reshape(16, 16, 16)
    request = api.build_request(eb=1e-3)
    payload = {"query": {"eb": 1e-3}, "data": field.tobytes(),
               "dtype": field.dtype.name, "shape": field.shape}

    async def compress():
        return await asyncio.wait_for(pool.submit("compress", payload), timeout=60)

    pool = WorkerPool(2)
    pool.start()
    try:
        result = asyncio.run(compress())
        stats = pool.stats()
    finally:
        pool.close()
    assert result["payload"] == api.compress(field, request).to_bytes()
    assert len([p for p in stats["pids"] if p]) == 2 and os.getpid() not in stats["pids"]


_SERVE_PROBE = """
import http.client, json, os, sys, threading, time

from repro import cli


def report():
    print(json.dumps({m: m in sys.modules for m in ("numpy", "repro.api")}), flush=True)


def healthy(port):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


def probe(port):
    deadline = time.monotonic() + 60
    while not healthy(port):
        if time.monotonic() > deadline:
            os._exit(1)  # never healthy: end the process so the test sees EOF
        time.sleep(0.02)
    report()
    sys.stdin.readline()  # the test's compress round trip is done
    report()


if __name__ == "__main__":
    port = int(sys.argv[2])
    threading.Thread(target=probe, args=(port,), daemon=True).start()
    sys.exit(cli.main(["serve", sys.argv[1], "--port", str(port), "--workers-procs", "2"]))
"""


def test_pooled_serve_frontend_never_imports_numpy(tmp_path):
    """``repro serve --workers-procs 2``: the frontend has no NumPy once
    ``/healthz`` answers, nor after a compress, whose bytes are still the
    library's."""
    import http.client
    import signal
    import socket

    import numpy as np

    import repro.api as api

    script = tmp_path / "serve_probe.py"  # a file: spawned workers re-import it
    script.write_text(_SERVE_PROBE)
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, str(script), str(tmp_path / "root"), str(port)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env,
    )

    def next_report() -> dict:
        for line in proc.stdout:
            if line.startswith("{"):
                return json.loads(line)
        raise AssertionError("the serve probe ended without a report")

    try:
        assert next_report() == {"numpy": False, "repro.api": False}
        field = np.sin(np.arange(16**3, dtype=np.float32) / 40).reshape(16, 16, 16)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        conn.request("POST", "/compress?shape=16,16,16&eb=0.001", body=field.tobytes())
        resp = conn.getresponse()
        assert resp.status == 200
        assert resp.read() == api.compress(field, api.build_request(eb=1e-3)).to_bytes()
        conn.close()
        proc.stdin.write("again\n")
        proc.stdin.flush()
        assert next_report() == {"numpy": False, "repro.api": False}
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    assert proc.returncode == 0


# ------------------------------------------------------ scipy is optional
_NO_SCIPY = """
sys.modules["scipy"] = None  # every `import scipy...` now raises ImportError
import numpy as np
import repro
import repro.api as api
field = np.sin(np.arange(24 ** 3, dtype=np.float32) / 50).reshape(24, 24, 24)
for mode in ("cr", "tp"):
    blob = api.compress(field, api.build_request(mode=mode, eb=1e-3)).blob
    assert np.abs(api.decompress(blob) - field).max() <= blob.error_bound
import repro.server.app
errors = []
from repro.metrics import ssim2d
from repro.analysis.visualization import artifact_score
for fn in (ssim2d, artifact_score):
    try:
        fn(field[0], field[0] + 1)
    except ImportError as exc:
        errors.append(str(exc))
print(json.dumps(errors))
"""


def test_numpy_only_install_compresses_and_serves():
    errors = _last_json(_NO_SCIPY)
    assert len(errors) == 2
    assert all("analysis" in e and "scipy" in e for e in errors), errors


def test_numpy_only_install_runs_the_cli():
    out = _python(
        'sys.modules["scipy"] = None\n'
        "import runpy\n"
        'sys.argv = ["repro", "--version"]\n'
        'runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)'
    )
    assert out.returncode == 0, out.stderr
    assert repro.__version__ in out.stdout
