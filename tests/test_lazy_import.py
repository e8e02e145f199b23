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
    payload = {"request": request.to_dict(), "data": field.tobytes(),
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
