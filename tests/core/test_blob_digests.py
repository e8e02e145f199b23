"""Byte pins of the interpolation codecs: ``to_bytes()`` and decompressed
output digests for a fixed set of fields and configurations.

The table was written from the engine before the predictor learned to write
its codes straight into the Eq. 3 sequence; any change to the code order,
the outlier order or the predictor arithmetic shows up here.  The inputs are
integer random walks (``default_rng`` draws and cumulative sums), so they
hold the same bytes on every platform.
"""

import hashlib

import numpy as np
import pytest

import repro.api as api
from repro.core.container import CompressedBlob


def _walk(shape, seed=7, spikes=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    x = rng.integers(-3, 4, size=shape).astype(np.float64)
    for axis in range(len(shape)):
        x = np.cumsum(x, axis=axis)
    if spikes:
        flat = x.reshape(-1)
        at = rng.choice(flat.size, spikes, replace=False)
        flat[at] += rng.integers(-5000, 5000, size=spikes)
    return x.astype(dtype)


FIELDS = {
    "1d": lambda: _walk((1000,)),
    "2d": lambda: _walk((37, 53)),
    "3d": lambda: _walk((17, 24, 31)),
    "3d-axis1": lambda: _walk((20, 1, 33)),
    "4d": lambda: _walk((5, 6, 7, 9)),
    "3d-outliers": lambda: _walk((19, 21, 23), spikes=25),
    "3d-f64": lambda: _walk((13, 18, 11), seed=3, spikes=9, dtype=np.float64),
}

#: (field, request keywords) -> (sha256 of to_bytes(), sha256 of the output)
DIGESTS = {
    "1d:codec=cusz-hi-cr": (
        "dd530ec3fb24024ff1b2a3a36c90b054e985f8b39525070a97327abab4a6c7e4",
        "1b6916eb5bcffd9dd612f1cae9ba2bf980f4e16d5614d2485699098bb32dbea5",
    ),
    "1d:codec=cusz-hi-tp": (
        "a12fbeda21a35c65344b8c03bd57c9bc57d1b55d30392a4e85d9977f680e42b8",
        "1b6916eb5bcffd9dd612f1cae9ba2bf980f4e16d5614d2485699098bb32dbea5",
    ),
    "1d:codec=cusz-i": (
        "5f8c79d31ba23aaf02be6b68a8aa51fffba5154e55e8b565ad5137fbc0374fe5",
        "5df7a700274d00cb6cdf4804b921d344622bde0ed1765b9cbf06ed628f9a581e",
    ),
    "1d:codec=cusz-ib": (
        "24ccc50d757db55545bd617934d7b6212ee909bbb0ccf4195e3677ea0b62dbcd",
        "5df7a700274d00cb6cdf4804b921d344622bde0ed1765b9cbf06ed628f9a581e",
    ),
    "2d:codec=cusz-hi-cr": (
        "5d592bcff1b819d8050c411d1b64bb9e50c82166e044e0687dc7dd1c15e7db1c",
        "a7190273f9c4c1dfb7eb1e4fb1ddf08828753ab2b0b32c87cdd87252414f6e7b",
    ),
    "2d:codec=cusz-hi-tp": (
        "ea1cd8fbd507f4f4bf9d3732a079654af4bd6d2e90bf41dc79db74daf3a08f13",
        "a7190273f9c4c1dfb7eb1e4fb1ddf08828753ab2b0b32c87cdd87252414f6e7b",
    ),
    "2d:codec=cusz-i": (
        "0f436707b9a811bf785d77b8bfdfc77ce44f16801c6a3a6e6c815f3994621e6c",
        "b126c06e5447901bc3cdbbdcf1af108f3751df7cee8cfba62c2c72737fdc04d9",
    ),
    "2d:codec=cusz-ib": (
        "e69fab450da6145ebf6dcb6e0834575b83288fa6c0ccfdfe778f7c4f94412fb4",
        "b126c06e5447901bc3cdbbdcf1af108f3751df7cee8cfba62c2c72737fdc04d9",
    ),
    "3d:codec=cusz-hi-cr": (
        "749116724da2a45c03df2cbac07e76bdebf3fbc27b40f6b75b1b360a7677873a",
        "7ec5f0f90e4fb5dd606aa9fc433c921f0d6372305e73182d191a0c693bb1cd71",
    ),
    "3d:codec=cusz-hi-tp": (
        "48a6ca77f94823a1c65a1da7bf690a19c5f9107ace9bb684696844d29bd868c0",
        "7ec5f0f90e4fb5dd606aa9fc433c921f0d6372305e73182d191a0c693bb1cd71",
    ),
    "3d:codec=cusz-i": (
        "fa18e5e494459e21133566009692600ca8aa8bebefe4e2918c9665ca2cdb181d",
        "e92020903d735dd7456a57cc1c47032464e5741464673978a7fac8dc79e7fefa",
    ),
    "3d:codec=cusz-ib": (
        "033803a0fcd0df8738424d84aab73401d0db6e574faaa0f4c07ed0c1539e7beb",
        "e92020903d735dd7456a57cc1c47032464e5741464673978a7fac8dc79e7fefa",
    ),
    "3d-axis1:codec=cusz-hi-cr": (
        "c554c9d31399facd674e2321efd75cec48a73a812a42ac6d90e3104d024bcae9",
        "7f08198c1c4b88ff12c3ea40adbe99f32e3990877c43ed5144a809da20c539a2",
    ),
    "3d-axis1:codec=cusz-hi-tp": (
        "c10e2aae44545a9ff3c185f0b201df2325988b78799dad3780eb533dfe93b6b0",
        "7f08198c1c4b88ff12c3ea40adbe99f32e3990877c43ed5144a809da20c539a2",
    ),
    "3d-axis1:codec=cusz-i": (
        "6fa8660b19b3e87735ab9f9c0f2e8bfb47c830de0e5ce465f2722d1397bf835a",
        "329165c5b99fcc7d297e5d79d312beba2a5bf921a51f5af37f50aa2c62d0a7ed",
    ),
    "3d-axis1:codec=cusz-ib": (
        "5045af2dd2b2d8261ba42911ce5b20b185bbead9ccfe4ae3020974cdc9209bf5",
        "329165c5b99fcc7d297e5d79d312beba2a5bf921a51f5af37f50aa2c62d0a7ed",
    ),
    "3d-outliers:codec=cusz-hi-cr": (
        "6cc502ec119552ba7e823c94afaae110c14668926c9535bf36836b3deff3b703",
        "e53c131ea345ed4f2446ffc489197a9b485fb27dfde4585b121a3ffc9d28207e",
    ),
    "3d-outliers:codec=cusz-hi-tp": (
        "2e9ae34d63a747a5e624fe2ad75fd5ec67f89a786f575015f74b72c5f9d15624",
        "e53c131ea345ed4f2446ffc489197a9b485fb27dfde4585b121a3ffc9d28207e",
    ),
    "3d-outliers:codec=cusz-i": (
        "d660170bcd77a3cc8ac3cfe65a8786fc404eb8be08e810cc6a77a93a0b29bbd1",
        "6f5abb2e476bdec8fe755a3ec3347b40cbd4711d35dcd351e7975f83ba595db7",
    ),
    "3d-outliers:codec=cusz-ib": (
        "7e2449897be849cd5d8e36219c781d2c10412260375e3379260a54f99fde661a",
        "6f5abb2e476bdec8fe755a3ec3347b40cbd4711d35dcd351e7975f83ba595db7",
    ),
    "3d-f64:codec=cusz-hi-cr": (
        "e89dab80c5bd73cb6ebce5fd0c899ec3177c04267253ad40fe475c0ac1d4ac32",
        "bc0557219395760b6794517dcc6da7e4fd15ce2c2601a63db7d0788ce08e9d2e",
    ),
    "3d-f64:codec=cusz-hi-tp": (
        "9349e677e8a8115b845beea952423ce343804e90be1fbc2243950edeb39eb334",
        "bc0557219395760b6794517dcc6da7e4fd15ce2c2601a63db7d0788ce08e9d2e",
    ),
    "3d-f64:codec=cusz-i": (
        "4f60eb7e0b7205eee188da50948364f0e5abe98fb30bc16105e239b6e94e9f28",
        "fc774234ece481850c3f2376e01b1f5c7234680d1ecf33cf3a184afe9c1d63a4",
    ),
    "3d-f64:codec=cusz-ib": (
        "b3057b0717cc83ae411ec34ab979eb8199f43f898fd7484e16cac5345ed32ded",
        "fc774234ece481850c3f2376e01b1f5c7234680d1ecf33cf3a184afe9c1d63a4",
    ),
    "4d:codec=cusz-hi-cr": (
        "005b766454e06b1da5f790755624c75a78e0d6190687ac647d0819becda427f3",
        "96570ade1f19a0af04e5061d3c35053e3cd7064bed8adaba1086c539e94afdb2",
    ),
    "4d:codec=cusz-hi-tp": (
        "31808c29250f9294030b140fc929abbf01492d47baf2a01fb7162597a807bb59",
        "96570ade1f19a0af04e5061d3c35053e3cd7064bed8adaba1086c539e94afdb2",
    ),
    "3d-f64:codec=cusz-hi-cr,eb=1e-05,eb_mode=abs": (
        "a0f2a9518da66b0177097a5b2b9b72d7e95ee10aebe20c322541bebdac3b9625",
        "38a78b0f97e24d3bb3526c51ff81b7851d56e8eadeee026c4c3fe9fdb4955148",
    ),
    "3d-outliers:codec=cusz-hi-cr,tiles=(8, 16, 16)": (
        "dab866e3b98e5a6ed03712ec7df25c8f5a56093c3ee2dba4ea44e22556a7a90f",
        "59edbe2074471b33428609fb361b208e92bf95b387664f320c0890763c30f709",
    ),
}

CASES = [
    *((name, {"codec": codec}) for name in FIELDS if name != "4d"
      for codec in ("cusz-hi-cr", "cusz-hi-tp", "cusz-i", "cusz-ib")),
    ("4d", {"codec": "cusz-hi-cr"}),
    ("4d", {"codec": "cusz-hi-tp"}),
    ("3d-f64", {"codec": "cusz-hi-cr", "eb": 1e-5, "eb_mode": "abs"}),
    ("3d-outliers", {"codec": "cusz-hi-cr", "tiles": (8, 16, 16)}),
]


def _key(name, kwargs):
    return f"{name}:" + ",".join(f"{k}={v}" for k, v in sorted(kwargs.items()))


def _digests(name, kwargs):
    request = {"eb": 1e-3, **kwargs}
    body = api.compress(FIELDS[name](), **request).to_bytes()
    out = api.decompress(body)
    return hashlib.sha256(body).hexdigest(), hashlib.sha256(out.tobytes()).hexdigest()


@pytest.mark.parametrize("name,kwargs", CASES, ids=[_key(*c) for c in CASES])
def test_blob_and_output_bytes_are_pinned(name, kwargs):
    assert _digests(name, kwargs) == DIGESTS[_key(name, kwargs)]


def test_pinned_fields_hold_outliers():
    """The table covers the outlier path, not only in-range codes."""
    counts = {}
    for name in ("3d-outliers", "3d-f64"):
        blob = CompressedBlob.from_bytes(api.compress(FIELDS[name](), codec="cusz-hi-cr", eb=1e-3).to_bytes())
        counts[name] = blob.get_array("outliers").size
    assert all(counts.values()), counts


@pytest.mark.parametrize("reorder", [True, False])
def test_zero_codes_in_anchor_slots_are_skipped(reorder):
    """Anchor slots of the code sequence are placeholders: a 0 there counts
    against the outliers segment, and its value is then dropped.  A blob
    with code 0 in every anchor slot, and a value for each in the outliers
    segment (in flat scan order with the real outliers), decodes exactly
    like the blob it came from."""
    from repro.encoders.pipelines import get_pipeline
    from repro.predictor.reorder import inverse_reorder, reorder as to_sequence

    x = FIELDS["3d-outliers"]()
    codec = "cusz-hi-cr" if reorder else "cusz-i"
    blob = CompressedBlob.from_bytes(api.compress(x, codec=codec, eb=1e-3).to_bytes())
    A = int(blob.meta["anchor_stride"])
    pipeline = get_pipeline(blob.meta["pipeline"])
    seq = np.frombuffer(pipeline.decode(blob.segments["codes"]), dtype=np.uint8)
    codes = inverse_reorder(seq, x.shape, A) if reorder else seq.reshape(x.shape).copy()
    outliers = blob.get_array("outliers")
    real = np.flatnonzero(codes.reshape(-1) == 0)
    assert real.size == outliers.size > 0

    anchor = tuple(slice(0, d, A) for d in x.shape)
    slots = np.arange(x.size).reshape(x.shape)[anchor].reshape(-1)
    codes[anchor] = 0
    where = np.concatenate([real, slots])
    values = np.concatenate([outliers, np.full(slots.size, 1e30, dtype=outliers.dtype)])
    hostile = CompressedBlob.from_bytes(blob.to_bytes())
    hostile.put_array("outliers", values[np.argsort(where)])
    out = to_sequence(codes, A) if reorder else codes.reshape(-1)
    hostile.segments["codes"] = pipeline.encode(out.tobytes())
    assert np.array_equal(api.decompress(hostile.to_bytes()), api.decompress(blob.to_bytes()))
