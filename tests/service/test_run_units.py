"""run_units: the one work-unit executor behind the batch runner and eval.

A toy job and a dict store pin the shared algorithm on every executor:
resume, LPT submission, per-unit archiving as results land, failure
isolation (a raising job, a failing append) and input-order rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.service import runner as runner_mod
from repro.service.runner import run_units


@dataclass
class Unit:
    key: str
    cost: float
    fail: str | None = None  # "job": the job raises; "append": archiving raises


@dataclass
class Row:
    key: str
    status: str = "failed"
    error: str | None = None
    seen: int | None = None  # store entries the job saw when it started
    inner: tuple | None = None


#: the store; serial jobs run in this process and count its entries
STORE: dict[str, str] = {}
#: keys in the order the serial executor called the job
CALLS: list[str] = []

UNITS = {
    u.key: u
    for u in (
        Unit("a", 1.0),
        Unit("b", 5.0),
        Unit("done", 9.0),
        Unit("c", 3.0, fail="job"),
        Unit("d", 4.0, fail="append"),
        Unit("e", 2.0),
    )
}


def _job(unit: Unit, inner):
    CALLS.append(unit.key)
    if unit.fail == "job":
        raise RuntimeError(f"job {unit.key} exploded")
    return Row(unit.key, "ok", seen=len(STORE), inner=inner), f"payload-{unit.key}"


def _append(key, row, payload):
    if UNITS[key].fail == "append":
        raise OSError("disk full")
    STORE[key] = payload


@pytest.mark.parametrize(
    "executor, inner",
    [("serial", ("threads", 0)), ("threads", ("threads", 1)), ("processes", ("serial", 1))],
)
def test_run_units(executor, inner, monkeypatch):
    STORE.clear()
    STORE["done"] = "archived by an earlier run"
    CALLS.clear()
    submitted = CALLS
    if executor != "serial":
        submitted = []
        real_pool = runner_mod.executor_pool

        def spy_pool(executor, workers):
            pool = real_pool(executor, workers)
            submit = pool.submit

            def recording_submit(fn, unit, inner):
                submitted.append(unit.key)
                return submit(fn, unit, inner)

            pool.submit = recording_submit
            return pool

        monkeypatch.setattr(runner_mod, "executor_pool", spy_pool)

    rows, executed, makespan = run_units(
        UNITS,
        lambda unit: unit.cost,
        _job,
        STORE,
        True,
        executor,
        2,
        blank=lambda unit: Row(unit.key),
        present=lambda key: Row(key, "skipped"),
        append=_append,
    )

    # Resume: the archived unit is reported from the store, never run.
    assert executed == ["a", "b", "c", "d", "e"]
    # LPT: largest cost first; two lanes over 5+4+3+2+1 finish at 8.
    assert submitted == ["b", "d", "c", "e", "a"]
    assert makespan == pytest.approx(8.0)
    # Rows in input order, one per unit; each failure fails only its unit.
    assert [r.key for r in rows] == list(UNITS)
    assert {r.key: r.status for r in rows} == {
        "a": "ok", "b": "ok", "done": "skipped", "c": "failed", "d": "failed", "e": "ok",
    }
    errors = {r.key: r.error for r in rows if r.status == "failed"}
    assert errors == {"c": "RuntimeError: job c exploded", "d": "OSError: disk full"}
    assert sorted(STORE) == ["a", "b", "done", "e"]
    # Nested-pool guard: the tile fan-out each unit may use.
    assert {r.inner for r in rows if r.status == "ok"} == {inner}
    if executor == "serial":
        # Each result is archived before the next unit runs.
        assert {r.key: r.seen for r in rows if r.seen is not None} == {
            "b": 1, "d": 2, "e": 2, "a": 3,
        }
