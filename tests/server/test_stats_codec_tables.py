"""GET /stats codec-table counters: repeated requests with identical
histograms must show table-cache hits instead of rebuilt tables."""

from repro.encoders import huffman


class TestCodecTableStats:
    def test_stats_exposes_codec_table_counters(self, serve, http):
        async def scenario(server):
            resp = await http(server, "GET", "/stats")
            assert resp.status == 200
            return resp.json()

        doc = serve(scenario)
        tables = doc["codec_tables"]
        for section in ("huffman", "ans", "interp_plans"):
            assert {"hits", "misses", "entries"} <= set(tables[section])
        assert {"hits", "misses"} <= set(doc["archive_blob_cache"])

    def test_identical_compress_requests_hit_table_cache(self, serve, http, field16):
        huffman.reset_table_cache()
        body = field16.tobytes()
        target = "/compress?shape=16,16,16&dtype=float32&eb=1e-3"

        async def scenario(server):
            first = await http(server, "POST", target, body)
            assert first.status == 200
            mid = await http(server, "GET", "/stats")
            second = await http(server, "POST", target, body)
            assert second.status == 200
            assert second.body == first.body  # deterministic blob
            after = await http(server, "GET", "/stats")
            return mid.json(), after.json()

        mid_doc, after_doc = serve(scenario)
        mid_t, after_t = mid_doc["codec_tables"], after_doc["codec_tables"]
        # The second identical request reuses the memoized Huffman tables:
        # hits grow, misses do not.
        assert after_t["huffman"]["hits"] > mid_t["huffman"]["hits"]
        assert after_t["huffman"]["misses"] == mid_t["huffman"]["misses"]

    def test_repeated_tile_reads_hit_blob_cache(self, serve, http, seeded_archive):
        import pytest

        from repro.service.archive import _blob_cache, clear_blob_cache

        if not _blob_cache.enabled:
            pytest.skip("parsed-frame cache disabled via REPRO_BLOB_CACHE_BYTES=0")
        clear_blob_cache()

        async def scenario(server):
            r1 = await http(server, "GET", "/archives/corpus/fields/tiled?tile=0")
            assert r1.status == 200
            mid = (await http(server, "GET", "/stats")).json()
            # A *different* tile of the same entry: the decoded-tile LRU
            # misses, but the parsed-frame cache must hit.
            r2 = await http(server, "GET", "/archives/corpus/fields/tiled?tile=1")
            assert r2.status == 200
            after = (await http(server, "GET", "/stats")).json()
            return mid, after

        mid, after = serve(scenario)
        assert after["archive_blob_cache"]["hits"] > mid["archive_blob_cache"]["hits"]
