"""Cluster end-to-end: convergence, chaos (SIGKILL / coordinator faults),
byte-identity of the merged shard set against the single-node batch runner."""

import json
import os
import subprocess
import sys
import threading
import time

from repro.client import ReproClient, RetryPolicy
from repro.cluster import (
    REPORT_SCHEMA,
    STATUS_SCHEMA,
    ClusterWorker,
    CoordinatorThread,
    ShardSet,
    run_cluster,
)
from repro.faults import FaultPlan, FaultSpec, ReproFaults
from repro.service import ArchiveStore
from repro.service.manifest import parse_manifest
from repro.service.runner import BatchRunner

MANIFEST = {
    "job": {"name": "e2e", "eb": 1e-3, "mode": "cr"},
    "fields": [
        {"name": "nyx-a", "dataset": "nyx", "shape": [24, 24, 24], "seed": 1, "hot": True},
        {"name": "miranda-b", "dataset": "miranda", "shape": [16, 20, 20], "seed": 2},
        {"name": "cesm-c", "dataset": "cesm-atm", "shape": [48, 96], "seed": 3},
        {
            "name": "rtm-d",
            "dataset": "rtm",
            "shape": [14, 14, 14],
            "seed": 4,
            "timesteps": 2,
            "temporal": True,
        },
    ],
}


def _spec():
    return parse_manifest(MANIFEST)


def _run_workers(address, shard_paths, **worker_kw):
    """Drive N in-process workers to completion; returns their summaries."""
    summaries = [None] * len(shard_paths)

    def _one(i, shard):
        worker = ClusterWorker(
            address,
            shard,
            name=f"t{i}",
            policy=RetryPolicy(base_s=0.01, cap_s=0.1, deadline_s=30.0),
            seed=i,
            poll_interval_s=0.05,
            **worker_kw,
        )
        summaries[i] = worker.run()

    threads = [
        threading.Thread(target=_one, args=(i, shard), daemon=True)
        for i, shard in enumerate(shard_paths)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    return summaries


class TestInProcessConvergence:
    def test_two_workers_drain_and_report(self, tmp_path):
        coordinator = CoordinatorThread(_spec(), lease_ttl_s=10.0).start()
        shards = [str(tmp_path / f"t{i}.rpza") for i in range(2)]
        try:
            summaries = _run_workers(coordinator.address, shards)
            assert coordinator.wait_drained(timeout_s=5)
            report = coordinator.coordinator.report()
        finally:
            coordinator.stop()
        assert report["schema"] == REPORT_SCHEMA
        assert report["drained"] and report["ok"] == 4 and report["failed"] == 0
        assert report["reassignments"] == [] and report["duplicate_acks"] == 0
        assert sorted(report["field_status"]) == ["cesm-c", "miranda-b", "nyx-a", "rtm-d"]
        # Work is partitioned, never duplicated.
        done = [f for s in summaries for f in s["fields"]]
        assert sorted(done) == sorted(report["field_status"])
        # Keep-alive held: each worker's lease/ack traffic rode few sockets.
        for s in summaries:
            assert s["client"]["conn_opens"] <= 2
        with ShardSet(shards) as merged:
            assert merged.verify(expected=list(report["field_status"])) == []

    def test_status_endpoint_shape(self, tmp_path):
        coordinator = CoordinatorThread(_spec(), lease_ttl_s=10.0).start()
        try:
            host, port = coordinator.address.rsplit(":", 1)
            client = ReproClient(host, int(port), policy=RetryPolicy(base_s=0.01))
            status = client.get("/cluster").json()
            assert status["schema"] == STATUS_SCHEMA
            assert status["counts"]["fields"] == 4
            assert status["drained"] is False
            assert len(status["pending"]) == 4 and status["leased"] == []
            # LPT: the most expensive field (largest element count) leads.
            assert status["pending"][0] == "nyx-a"
            report = client.get("/report").json()
            assert report["schema"] == REPORT_SCHEMA and report["drained"] is False
            assert client.get("/healthz").json()["job"] == "e2e"
            assert client.get("/nope").status == 404
            assert client.post("/manifest", b"{}").status == 405
            client.close()
        finally:
            coordinator.stop()

    def test_coordinator_faults_are_retried_by_workers(self, tmp_path):
        # One injected 503 on the first lease grant and one on the first ack:
        # the client's retry loop absorbs both and the run still converges.
        plan = FaultPlan(
            [
                FaultSpec("cluster.lease-grant", "error", at=1),
                FaultSpec("cluster.ack", "error", at=1),
            ],
            seed=11,
        )
        with ReproFaults(plan, env=False):
            coordinator = CoordinatorThread(_spec(), lease_ttl_s=10.0).start()
            shards = [str(tmp_path / "solo.rpza")]
            try:
                (summary,) = _run_workers(coordinator.address, shards)
                assert coordinator.wait_drained(timeout_s=5)
                report = coordinator.coordinator.report()
            finally:
                coordinator.stop()
        assert report["drained"] and report["ok"] == 4
        assert summary["client"]["retries"] >= 2  # one per injected 503
        # The 503s were transparent: nothing reassigned, nothing doubled.
        assert report["reassignments"] == [] and report["duplicate_acks"] == 0

    def test_crash_resume_acks_without_recompute(self, tmp_path):
        # A shard pre-loaded with a committed entry is the restarted-worker
        # state: the new life acks `resumed` instead of recompressing.
        spec = _spec()
        shard = str(tmp_path / "resume.rpza")
        single = str(tmp_path / "single.rpza")
        BatchRunner(spec, single, executor="serial").run()
        with ArchiveStore(single) as src, ArchiveStore(shard, mode="w") as dst:
            entry = src.entry("nyx-a")
            dst.add_blob("nyx-a", src.read_bytes("nyx-a"), meta=dict(entry.meta))
        coordinator = CoordinatorThread(spec, lease_ttl_s=10.0).start()
        try:
            (summary,) = _run_workers(coordinator.address, [shard])
            assert coordinator.wait_drained(timeout_s=5)
            report = coordinator.coordinator.report()
        finally:
            coordinator.stop()
        assert summary["resumed"] == 1 and summary["ok"] == 4
        assert report["workers"]["t0"]["resumed"] == 1
        assert report["ok"] == 4 and report["failed"] == 0


class TestSubprocessCluster:
    """`run_cluster`: real worker subprocesses, real SIGKILL, merged verify."""

    def test_converges_and_matches_single_node_bytes(self, tmp_path):
        spec = _spec()
        report = run_cluster(
            spec, str(tmp_path / "out"), workers=2, lease_ttl_s=10.0, timeout_s=120.0
        )
        assert report["drained"] and report["ok"] == 4 and report["failed"] == 0
        assert report["verify_problems"] == [] and report["respawns"] == 0
        # Replication: the hot field lives in both worker shards.
        assert sorted(report["replicas"]["placement"]["nyx-a"]) == [
            "worker-0.rpza",
            "worker-1.rpza",
        ]
        # Byte-identity: the merged shard set serves exactly the bytes the
        # single-node batch runner would have archived.
        single = str(tmp_path / "single.rpza")
        BatchRunner(spec, single, executor="serial").run()
        shard_paths = [str(tmp_path / "out" / s) for s in report["shards"]]
        with ShardSet(shard_paths) as merged, ArchiveStore(single) as solo:
            for name in solo.names():
                assert merged.read_bytes(name) == solo.read_bytes(name), name

    def test_sigkilled_worker_is_respawned_and_fields_reassigned(self, tmp_path):
        # Worker 0 SIGKILLs itself at its second shard append (the canonical
        # lost-worker drill, same plan as configs/cluster_kill_worker.json);
        # the babysitter respawns it on the same shard and the lease sweeper
        # reassigns whatever the dead life still held.
        plan = FaultPlan([FaultSpec("cluster.shard-append", "kill", at=2)], seed=7)
        # Worker 0 only dies if it leases a second field. Whichever worker
        # polls first is granted the largest field (LPT order), so an
        # unhindered worker 1 can take the other three while worker 0 is
        # still on its first. Worker 1 therefore stalls 2 s before each of
        # its appends (its heartbeat keeps the lease alive): it would need
        # a head start of three stalls to leave worker 0 a single field.
        slow = FaultPlan([FaultSpec("cluster.shard-append", "stall", count=4, arg=2.0)], seed=7)
        report = run_cluster(
            _spec(),
            str(tmp_path / "out"),
            workers=2,
            lease_ttl_s=2.0,
            timeout_s=120.0,
            worker_env={0: {"REPRO_FAULTS": plan.dumps()}, 1: {"REPRO_FAULTS": slow.dumps()}},
        )
        assert report["drained"] and report["ok"] == 4 and report["failed"] == 0
        assert report["respawns"] == 1
        assert report["verify_problems"] == []
        # The kill interrupted a lease mid-hold: it must appear in the ledger
        # exactly once, charged to the dead life of worker 0.
        assert len(report["reassignments"]) >= 1
        assert any(r["worker"] == "w0" for r in report["reassignments"])
        # The respawned life shows up in the worker registry.
        assert "w0r" in report["workers"]

    def test_worker_cli_entrypoint_runs(self, tmp_path):
        # The exact argv run_cluster spawns, driven manually against a live
        # coordinator — pins the CLI contract a respawn depends on.
        spec = _spec()
        coordinator = CoordinatorThread(spec, lease_ttl_s=10.0).start()
        shard = str(tmp_path / "cli.rpza")
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        try:
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "cluster",
                    "worker",
                    "--coordinator",
                    coordinator.address,
                    "--shard",
                    shard,
                    "--name",
                    "cliw",
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert coordinator.wait_drained(timeout_s=5)
        finally:
            coordinator.stop()
        assert proc.returncode == 0, proc.stderr
        assert "cliw: 4 ok" in proc.stdout
        with ArchiveStore(shard) as arch:
            assert len(arch) == 4


class TestExpiryReassignment:
    def test_silent_worker_forfeits_lease_to_peer(self, tmp_path):
        # A worker that leases a field and then goes silent (no ack, no
        # heartbeat) must lose it to the sweeper; a live worker finishes it.
        spec = _spec()
        coordinator = CoordinatorThread(spec, lease_ttl_s=0.6).start()
        address = coordinator.address
        host, port = address.rsplit(":", 1)
        try:
            dead = ReproClient(host, int(port), policy=RetryPolicy(base_s=0.01))
            grant = dead.post(
                "/lease", json.dumps({"worker": "ghost"}).encode()
            ).json()
            assert grant["status"] == "granted"
            dead.close()  # never acks, never heartbeats
            time.sleep(1.0)  # > ttl: the sweeper requeues ghost's field
            shards = [str(tmp_path / "live.rpza")]
            _run_workers(address, shards)
            assert coordinator.wait_drained(timeout_s=10)
            report = coordinator.coordinator.report()
        finally:
            coordinator.stop()
        assert report["ok"] == 4
        assert [r["worker"] for r in report["reassignments"]] == ["ghost"]
        assert report["field_status"][grant["field"]] == "ok"
        with ShardSet([str(tmp_path / "live.rpza")]) as merged:
            assert merged.missing(report["field_status"]) == []
