"""End-to-end tests for the async compression service over localhost.

Each test gets the ``serve`` fixture (runs an async scenario against a real
server on a free port, archive root = ``tmp_path``) and the ``http`` fixture
(one HTTP/1.1 exchange over a fresh TCP connection).
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.container import CompressedBlob


class TestHealthAndStats:
    def test_healthz(self, serve, http):
        import repro
        from repro.api import REQUEST_SCHEMA

        async def scenario(server):
            resp = await http(server, "GET", "/healthz")
            assert resp.status == 200
            doc = resp.json()
            assert doc["status"] == "ok"
            # one version source: the package version + request schema id
            assert doc["version"] == repro.__version__
            assert doc["request_schema"] == REQUEST_SCHEMA

        serve(scenario)

    def test_fixed_rate_codec_reachable_via_opt_params(self, serve, http, field16):
        """Codec options ride as opt.* query keys, so cuzfp (which needs a
        rate) is usable over HTTP — not just advertised by /codecs."""

        async def scenario(server):
            body = field16.tobytes()
            resp = await http(
                server, "POST", "/compress?shape=16,16,16&codec=cuzfp&opt.rate=8", body
            )
            assert resp.status == 200
            assert resp.headers["x-repro-codec"] == "cuzfp"
            back = await http(server, "POST", "/decompress", resp.body)
            assert back.status == 200
            # Without the rate option the request is a clean 400 naming cuzfp.
            refused = await http(server, "POST", "/compress?shape=16,16,16&codec=cuzfp", body)
            assert refused.status == 400
            assert "cuzfp" in refused.json()["error"]

        serve(scenario)

    def test_codecs_endpoint_lists_registry(self, serve, http):
        from repro.api import registry

        async def scenario(server):
            resp = await http(server, "GET", "/codecs")
            assert resp.status == 200
            doc = resp.json()
            assert set(doc["codecs"]) == set(registry.names())
            assert doc["codecs"]["cusz-hi-cr"]["tiling"] is True
            assert doc["codecs"]["fzgpu"]["dims"] == [1, 2, 3]
            assert (await http(server, "POST", "/codecs", b"x")).status == 405

        serve(scenario)

    def test_stats_shape(self, serve, http):
        async def scenario(server):
            resp = await http(server, "GET", "/stats")
            assert resp.status == 200
            doc = resp.json()
            assert doc["schema"] == "repro.stats/2"
            for block in ("pool", "admission", "jobs", "responses"):
                assert block in doc
            assert "cache" not in doc and "batcher" not in doc
            assert doc["pool"]["workers"] == 1 and doc["pool"]["pids"] == [None]

        serve(scenario)


class TestComputeEndpoints:
    def test_compress_decompress_roundtrip(self, serve, http, field16):
        async def scenario(server):
            resp = await http(
                server, "POST", "/compress?shape=16,16,16&eb=1e-3", field16.tobytes()
            )
            assert resp.status == 200
            assert resp.headers["x-repro-codec"] == "cusz-hi-cr"
            assert float(resp.headers["x-repro-cr"]) > 1.0
            blob = CompressedBlob.from_bytes(resp.body)

            back = await http(server, "POST", "/decompress", resp.body)
            assert back.status == 200
            recon = back.array()
            assert recon.shape == field16.shape
            err = np.abs(field16.astype(np.float64) - recon.astype(np.float64)).max()
            assert err <= blob.error_bound

        serve(scenario)

    def test_compress_tiled_and_tp_mode(self, serve, http, field16):
        async def scenario(server):
            resp = await http(
                server,
                "POST",
                "/compress?shape=16,16,16&eb=1e-3&tiles=8,8,8&mode=tp",
                field16.tobytes(),
            )
            assert resp.status == 200
            assert resp.headers["x-repro-codec"] == "cusz-hi-tiled"

        serve(scenario)

    def test_concurrent_compress_requests_coalesce(self, serve, http, field16):
        async def scenario(server):
            body = field16.tobytes()
            responses = await asyncio.gather(
                *[
                    http(server, "POST", "/compress?shape=16,16,16&eb=1e-3", body)
                    for _ in range(6)
                ]
            )
            assert all(r.status == 200 for r in responses)
            # Identical inputs must produce byte-identical containers no
            # matter how the concurrent requests interleaved.
            assert len({r.body for r in responses}) == 1

        serve(scenario)

    def test_bad_compress_fails_alone_among_concurrent_good_ones(self, serve, http, field16):
        """Per-request failure isolation: one compress the codec rejects
        gets a 400, and the good requests around it still get 200."""

        async def scenario(server):
            def good():
                return http(server, "POST", "/compress?shape=16,16,16&eb=1e-3", field16.tobytes())

            # An all-NaN field has no range to resolve a relative bound
            # against: the request parses, and the task itself raises.
            nan_field = np.full((8, 8, 8), np.nan, dtype=np.float32)
            bad = http(server, "POST", "/compress?shape=8,8,8&eb=1e-3", nan_field.tobytes())
            return await asyncio.gather(good(), good(), bad, good(), good())

        responses = serve(scenario)
        assert [r.status for r in responses] == [200, 200, 400, 200, 200]
        assert b"relative error bound" in responses[2].body
        assert len({r.body for i, r in enumerate(responses) if i != 2}) == 1


class TestArchiveReads:
    def test_whole_field_read(self, serve, http, field16, seeded_archive):
        async def scenario(server):
            resp = await http(server, "GET", "/archives/corpus/fields/plain")
            assert resp.status == 200
            assert resp.headers["x-repro-source"] == "store"
            recon = resp.array()
            assert recon.shape == field16.shape

            listing = await http(server, "GET", "/archives/corpus")
            assert listing.status == 200
            names = {e["name"] for e in listing.json()["entries"]}
            assert names == {"plain", "tiled"}

            catalog = await http(server, "GET", "/archives")
            assert catalog.json()["archives"] == ["corpus.rpza"]

        serve(scenario)

    def test_repeated_tile_read_hits_cache(self, serve, http, seeded_archive):
        async def scenario(server):
            first = await http(server, "GET", "/archives/corpus/fields/tiled?tile=3")
            assert first.status == 200
            assert first.headers["x-repro-source"] == "store"
            assert first.headers["x-repro-shape"] == "8,8,8"
            assert "x-repro-tile-origin" in first.headers

            second = await http(server, "GET", "/archives/corpus/fields/tiled?tile=3")
            assert second.status == 200
            assert second.headers["x-repro-source"] == "worker-cache"
            assert second.body == first.body

            pool = (await http(server, "GET", "/stats")).json()["pool"]
            assert pool["read_cache_hits"] == 1

        serve(scenario)

    def test_cache_eviction_under_byte_pressure(self, serve, http, field16, seeded_archive):
        async def scenario(server):
            # Budget fits exactly one whole field, so alternating whole-field
            # reads must evict each other: every read comes from the store.
            sources = []
            for _ in range(2):
                for name in ("plain", "tiled"):
                    resp = await http(server, "GET", f"/archives/corpus/fields/{name}")
                    assert resp.status == 200
                    sources.append(resp.headers["x-repro-source"])
            assert sources == ["store"] * 4
            # The last field read is still resident: one more read hits.
            again = await http(server, "GET", "/archives/corpus/fields/tiled")
            assert again.headers["x-repro-source"] == "worker-cache"
            pool = (await http(server, "GET", "/stats")).json()["pool"]
            assert pool["read_cache_hits"] == 1

        serve(scenario, cache_bytes=field16.nbytes + 512)

    def test_zero_budget_disables_cache(self, serve, http, seeded_archive):
        async def scenario(server):
            for _ in range(2):
                resp = await http(server, "GET", "/archives/corpus/fields/tiled?tile=0")
                assert resp.status == 200
                assert resp.headers["x-repro-source"] == "store"
            pool = (await http(server, "GET", "/stats")).json()["pool"]
            assert pool["read_cache_hits"] == 0

        serve(scenario, cache_bytes=0)

    def test_concurrent_mixed_reads_and_compress(self, serve, http, field16, seeded_archive):
        async def scenario(server):
            body = field16.tobytes()
            tasks = []
            for i in range(4):
                tasks.append(http(server, "GET", "/archives/corpus/fields/plain"))
                tasks.append(http(server, "GET", f"/archives/corpus/fields/tiled?tile={i % 8}"))
                tasks.append(http(server, "POST", "/compress?shape=16,16,16", body))
                tasks.append(http(server, "GET", "/healthz"))
            responses = await asyncio.gather(*tasks)
            assert [r.status for r in responses] == [200] * len(responses)
            stats = (await http(server, "GET", "/stats")).json()
            assert stats["responses"]["2xx"] >= len(responses)
            assert stats["responses"].get("5xx", 0) == 0

        serve(scenario)


class TestJobLifecycle:
    MANIFEST = {
        "job": {"name": "served-corpus", "eb": 1e-3},
        "fields": [
            {"name": "a", "dataset": "nyx", "shape": [16, 16, 16]},
            {"name": "b", "dataset": "miranda", "shape": [16, 16, 16], "tiles": [8, 8, 8]},
        ],
    }

    def test_submit_poll_report_then_read(self, serve, http, poll):
        async def scenario(server):
            resp = await http(
                server,
                "POST",
                "/jobs?archive=served.rpza",
                json.dumps(self.MANIFEST).encode(),
            )
            assert resp.status == 202
            submitted = resp.json()
            assert submitted["status"] in ("queued", "running")
            assert submitted["fields"] == 2

            done = await poll(server, submitted["id"])
            assert done["status"] == "done"
            report = done["report"]
            assert report["schema"] == "repro.batch-report/1"
            assert report["totals"]["ok"] == 2
            assert {f["name"] for f in report["fields"]} == {"a", "b"}

            # The archive the job wrote is immediately servable.
            read = await http(server, "GET", "/archives/served/fields/b?tile=0")
            assert read.status == 200
            assert read.headers["x-repro-shape"] == "8,8,8"
            jobs = (await http(server, "GET", "/stats")).json()["jobs"]
            assert jobs["done"] == 1

        serve(scenario)

    def test_job_with_failing_field_reports_it(self, serve, http, poll):
        manifest = {
            "fields": [
                {"name": "ok", "dataset": "nyx", "shape": [12, 12, 12]},
                {"name": "gone", "path": "missing.f32"},
            ]
        }

        async def scenario(server):
            resp = await http(server, "POST", "/jobs", json.dumps(manifest).encode())
            assert resp.status == 202
            done = await poll(server, resp.json()["id"])
            assert done["status"] == "done"  # the *job* ran; one field failed
            assert done["report"]["totals"]["failed"] == 1
            assert done["report"]["totals"]["ok"] == 1

        serve(scenario)

    def test_invalid_manifest_rejected_at_submit(self, serve, http):
        async def scenario(server):
            resp = await http(server, "POST", "/jobs", b'{"fields": []}')
            assert resp.status == 400
            assert "fields" in resp.json()["error"]
            # Nothing was queued.
            assert (await http(server, "GET", "/stats")).json()["jobs"]["total"] == 0

        serve(scenario)

    def test_boolean_workers_rejected_at_submit(self, serve, http):
        """``workers: true`` is not a worker count (it used to run as 1)."""
        manifest = {"job": {"workers": True}, "fields": [{"name": "a", "dataset": "nyx"}]}

        async def scenario(server):
            resp = await http(server, "POST", "/jobs", json.dumps(manifest).encode())
            assert resp.status == 400
            assert "job.workers" in resp.json()["error"]
            assert (await http(server, "GET", "/stats")).json()["jobs"]["total"] == 0

        serve(scenario)

    def test_unknown_job_404(self, serve, http):
        async def scenario(server):
            assert (await http(server, "GET", "/jobs/job-999")).status == 404

        serve(scenario)


class TestMalformedRequests:
    """Every client mistake must come back as a clean 4xx JSON error."""

    @pytest.mark.parametrize(
        "target, body",
        [
            ("/compress", b""),  # missing shape
            ("/compress?shape=0,4", b""),  # non-positive dims
            ("/compress?shape=abc", b""),  # unparsable dims
            ("/compress?shape=4294967296,4294967296", b""),  # overflowing product
            ("/compress?shape=4,4&dtype=int32", b"x" * 64),  # unsupported dtype
            ("/compress?shape=4,4&eb=nope", b"x" * 64),  # unparsable eb
            ("/compress?shape=4,4&mode=zz", b"x" * 64),  # unknown mode
            ("/compress?shape=4,4&eb=-1", b"x" * 64),  # non-positive eb
            ("/compress?shape=4,4&codec=gzip", b"x" * 64),  # unknown codec
            ("/compress?shape=4,4&codec=fzgpu&tiles=2,2", b"x" * 64),  # no tiling
            ("/compress?shape=4,4&workers=2", b"x" * 64),  # workers need tiles
            ("/compress?shape=4,4", b"xx"),  # body/shape mismatch
        ],
    )
    def test_compress_400s(self, serve, http, target, body):
        async def scenario(server):
            resp = await http(server, "POST", target, body)
            assert resp.status == 400
            assert "error" in resp.json()

        serve(scenario)

    def test_decompress_rejects_garbage(self, serve, http):
        async def scenario(server):
            resp = await http(server, "POST", "/decompress", b"not a container at all")
            assert resp.status == 400

        serve(scenario)

    def test_decompress_rejects_overdeclared_bitmap(self, serve, http, hostile_rre_blob):
        """CRC-valid body whose RRE bitmap declares 2^28 bits: a typed 400,
        not a 500 from a MemoryError in the worker."""
        body, _ = hostile_rre_blob

        async def scenario(server):
            resp = await http(server, "POST", "/decompress", body)
            assert resp.status == 400
            assert "bitmap" in resp.json()["error"]

        serve(scenario)

    def test_decompress_rejects_hostile_rans_lane_offset(self, serve, http, hostile_ans_blob):
        """CRC-valid body whose rANS lane starts at byte 2^40: a typed 400,
        not a 500 from an IndexError in the worker."""

        async def scenario(server):
            resp = await http(server, "POST", "/decompress", hostile_ans_blob)
            assert resp.status == 400
            assert "rANS lane 0" in resp.json()["error"]

        serve(scenario)

    def test_decompress_rejects_overlong_rre_round(self, serve, http, sealed_codes_blob):
        """CRC-valid CR body whose bitmap's RRE round declares 2^63 kept
        bytes: a typed 400, not a 500 from an OverflowError in the worker."""

        def huge_count(codes: bytearray) -> None:
            codes[24:32] = (2**63 - 1).to_bytes(8, "little")

        body = sealed_codes_blob("HF+RRE4-TCMS8-RZE1", huge_count)

        async def scenario(server):
            resp = await http(server, "POST", "/decompress", body)
            assert resp.status == 400
            assert "RRE round" in resp.json()["error"]

        serve(scenario)

    def test_decompress_rejects_short_rans_frequency_table(self, serve, http, sealed_codes_blob):
        """CRC-valid body whose rANS frequencies no longer cover the table:
        a typed 400, not a 500 from an IndexError in the worker."""

        def drop_two(codes: bytearray) -> None:
            codes[12:16] = bytes(4)

        body = sealed_codes_blob("nvCOMP::ANS", drop_two)

        async def scenario(server):
            resp = await http(server, "POST", "/decompress", body)
            assert resp.status == 400
            assert "rANS frequencies sum to" in resp.json()["error"]

        serve(scenario)

    def test_unknown_route_404(self, serve, http):
        async def scenario(server):
            assert (await http(server, "GET", "/nope")).status == 404
            assert (await http(server, "GET", "/archives/zz/fields/a")).status == 404

        serve(scenario)

    def test_wrong_method_405(self, serve, http):
        async def scenario(server):
            assert (await http(server, "POST", "/healthz")).status == 405
            assert (await http(server, "GET", "/compress")).status == 405

        serve(scenario)

    def test_field_read_4xx_paths(self, serve, http, seeded_archive):
        async def scenario(server):
            unknown = await http(server, "GET", "/archives/corpus/fields/zz")
            assert unknown.status == 404
            oob = await http(server, "GET", "/archives/corpus/fields/tiled?tile=999")
            assert oob.status == 404
            bad = await http(server, "GET", "/archives/corpus/fields/tiled?tile=x")
            assert bad.status == 400
            untiled = await http(server, "GET", "/archives/corpus/fields/plain?tile=0")
            assert untiled.status == 400

        serve(scenario)

    @pytest.mark.parametrize(
        "patch, status", [({"offset": -5}, 503), ({"dtype": "bogus"}, 400)], ids=["offset", "dtype"]
    )
    def test_field_read_from_hostile_index_is_typed(
        self, serve, http, seeded_archive, reseal_archive_entry, patch, status
    ):
        """A CRC-valid index whose entry holds a negative offset or an
        unknown dtype: a typed 503 (corruption) or 400, never a 500."""
        reseal_archive_entry(str(seeded_archive), patch)

        async def scenario(server):
            resp = await http(server, "GET", "/archives/corpus/fields/plain")
            assert resp.status == status
            assert "error" in resp.json()

        serve(scenario)

    def test_traversal_names_rejected(self, serve, http, seeded_archive):
        async def scenario(server):
            resp = await http(server, "GET", "/archives/..%2Fcorpus/fields/plain")
            assert resp.status == 400

        serve(scenario)

    def test_malformed_request_line(self, serve):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(b"COMPLETE GARBAGE\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            assert b"400" in raw.split(b"\r\n", 1)[0]

        serve(scenario)

    def test_post_without_content_length(self, serve):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(b"POST /compress HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            assert b"411" in raw.split(b"\r\n", 1)[0]

        serve(scenario)

    def test_oversized_body_413(self, serve, http):
        async def scenario(server):
            resp = await http(server, "POST", "/compress?shape=4,4", b"x" * 2048)
            assert resp.status == 413

        serve(scenario, max_body=1024)
