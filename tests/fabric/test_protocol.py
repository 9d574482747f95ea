"""Wire-protocol unit tests: envelopes, job specs, entrypoints."""

import json

import pytest

from repro.runtime.fabric import JobSpec, RpcError, stub_job
from repro.runtime.fabric.protocol import (
    PROTOCOL_VERSION,
    decode_request,
    encode_error,
    encode_request,
    encode_response,
)
from repro.runtime.fabric.tasks import ENTRYPOINTS, resolve


class TestEnvelopes:
    def test_request_round_trip(self):
        body = encode_request(
            "lease", {"max_tasks": 3}, node="n0", seq=7, deadline_ms=5000
        )
        env = decode_request(body)
        assert env["v"] == PROTOCOL_VERSION
        assert env["method"] == "lease"
        assert env["node"] == "n0"
        assert env["seq"] == 7
        assert env["deadline_ms"] == 5000
        assert env["params"] == {"max_tasks": 3}

    def test_every_request_carries_a_deadline_field(self):
        body = encode_request("register", {}, node="n0", seq=0,
                              deadline_ms=1500)
        assert decode_request(body)["deadline_ms"] == 1500

    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b"[1, 2]",
            json.dumps({"v": 99, "method": "lease", "node": "n",
                        "params": {}}).encode(),
            json.dumps({"v": 1, "method": "format_disk", "node": "n",
                        "params": {}}).encode(),
            json.dumps({"v": 1, "method": "lease", "node": "",
                        "params": {}}).encode(),
            json.dumps({"v": 1, "method": "lease", "node": "n",
                        "params": []}).encode(),
        ],
        ids=["not-json", "not-object", "version-skew", "unknown-method",
             "empty-node", "params-not-object"],
    )
    def test_malformed_requests_rejected(self, body):
        with pytest.raises(RpcError):
            decode_request(body)

    def test_response_shapes(self):
        ok = json.loads(encode_response({"x": 1}))
        assert ok == {"ok": True, "result": {"x": 1}}
        err = json.loads(encode_error("boom"))
        assert err == {"ok": False, "error": "boom"}


class TestJobSpec:
    def test_digest_is_stable_and_ctx_sensitive(self):
        a = JobSpec("stub", {"mul": 2})
        b = JobSpec("stub", {"mul": 2})
        c = JobSpec("stub", {"mul": 3})
        assert a.digest == b.digest
        assert a.digest != c.digest

    def test_dict_round_trip(self):
        job = stub_job(mul=5)
        clone = JobSpec.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone == job
        assert clone.digest == job.digest

    @pytest.mark.parametrize("data", [None, [], {}, {"kind": 3}])
    def test_malformed_spec_rejected(self, data):
        with pytest.raises(RpcError):
            JobSpec.from_dict(data)


class TestEntrypoints:
    def test_registered_kinds(self):
        assert {"stub", "injection"} == set(ENTRYPOINTS)

    def test_stub_build_and_encode(self):
        job = stub_job(mul=4)
        fn = resolve(job).build(job.ctx)
        assert fn(10) == 40
        # stub payloads are already JSON-safe: encode is the identity
        assert resolve(job).encode(10) == 10

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="unknown fabric task kind"):
            resolve(JobSpec("warp-drive", {}))
