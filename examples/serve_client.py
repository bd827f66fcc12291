"""PUT once, reference many: registry-backed jobs against the endpoint.

This example is fully self-contained: it boots the HTTP serving endpoint
in-process on an ephemeral port (exactly what ``python -m repro serve``
runs), then acts as a plain HTTP client against it —

1. ``PUT /relations`` the relation once; the server stores it by content
   hash in its crash-safe registry and returns a ``repro/relation-ref-v1``
   acknowledgement,
2. ``POST /jobs`` N times carrying only the 64-char ``relation_ref``
   instead of the inline rows (with client-side backoff on 429, honouring
   the ``Retry-After`` hint),
3. poll ``GET /jobs/<id>`` until each job is terminal and reconstruct the
   ``RunResult`` — byte-identical to an inline submission, stamped with a
   provenance block tying it back to the stored relation,

and finally prints how many payload bytes the by-reference jobs saved over
shipping the rows inline with every request.

Against a real deployment, drop the server-bootstrap block and point
``HOST``/``PORT`` at the running endpoint.
"""

import http.client
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.relational.relation import Relation  # noqa: E402
from repro.serve import HttpFrontend, Server, relation_to_payload  # noqa: E402
from repro.session import RunResult  # noqa: E402

N_JOBS = 5


def call(host, port, method, path, body=None):
    """One JSON request/response round-trip against the endpoint."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body)
        connection.request(method, path, payload, {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), json.loads(response.read())
    finally:
        connection.close()


def submit_with_backoff(host, port, request, max_tries=8):
    """POST /jobs, backing off on 429 as the Retry-After header asks.

    429 means the queue is full — a well-behaved client waits the hinted
    number of seconds (the server derives it from queue depth) instead of
    hammering the endpoint.  Scaled down here so the example stays snappy.
    """
    for attempt in range(1, max_tries + 1):
        status, headers, body = call(host, port, "POST", "/jobs", request)
        if status != 429:
            return status, body
        hint = int(headers.get("Retry-After", "1"))
        print(f"POST /jobs -> 429 queue full; retrying in {hint}s (attempt {attempt})")
        time.sleep(min(hint, 0.2))  # real clients: time.sleep(hint)
    raise SystemExit("queue stayed full; giving up")


def wait_for(host, port, job_id, timeout=30.0):
    """Poll GET /jobs/<id> until the job is terminal; returns the payload."""
    deadline = time.monotonic() + timeout
    while True:
        _, _, body = call(host, port, "GET", f"/jobs/{job_id}")
        if body["status"] in ("done", "failed", "cancelled", "deadline_exceeded"):
            return body
        if time.monotonic() > deadline:
            raise SystemExit(f"job {job_id} did not finish in time")
        time.sleep(0.05)


def main():
    # -- server bootstrap (replace with a running `python -m repro serve`) ----
    server = Server(workers=2, max_queue=16)
    frontend = HttpFrontend(server, port=0).start()
    host, port = frontend.address
    print(f"serving on http://{host}:{port}")

    try:
        # -- store the relation once ------------------------------------------
        rows = [(i % 40, (i % 40) * 2, i % 7, f"ward-{i % 5}") for i in range(400)]
        relation = Relation("patient", ("subject_id", "gender", "ward", "unit"), rows)
        relation_payload = relation_to_payload(relation)
        status, _, ack = call(host, port, "PUT", "/relations", relation_payload)
        print(f"PUT /relations -> {status} hash={ack['hash'][:12]}… created={ack['created']}")

        # -- submit N jobs carrying only the content hash ----------------------
        inline_bytes = ref_bytes = 0
        tickets = []
        for index in range(N_JOBS):
            request = {
                "schema": "repro/job-request-v1",
                "tenant": "clinic",
                "kind": "discover",
                "relation_ref": ack["hash"],
                "params": {"algorithm": "tane"},
                "deadline_ms": 20_000,
            }
            ref_bytes += len(json.dumps(request).encode("utf-8"))
            inline_request = dict(request)
            del inline_request["relation_ref"]
            inline_request["relation"] = relation_payload
            inline_bytes += len(json.dumps(inline_request).encode("utf-8"))
            status, ticket = submit_with_backoff(host, port, request)
            print(f"POST /jobs [{index + 1}/{N_JOBS}] -> {status} ticket={ticket['job_id']}")
            tickets.append(ticket)

        # -- fetch the RunResults ----------------------------------------------
        fingerprints = set()
        for ticket in tickets:
            body = wait_for(host, port, ticket["job_id"])
            if body["status"] != "done":
                raise SystemExit(f"job {ticket['job_id']} ended {body['status']}: {body['error']}")
            result = RunResult(body["result"])
            fingerprints.add(result.artifact_fingerprint())
            provenance = result.provenance
            print(
                f"  {ticket['job_id']}: fds={len(result)} "
                f"relation_hash={provenance['relation_hash'][:12]}… "
                f"executor={provenance['executor']}"
            )
        assert len(fingerprints) == 1, "by-reference runs must be byte-identical"

        # -- the payoff --------------------------------------------------------
        saved = inline_bytes - ref_bytes
        print(
            f"payload bytes: inline x{N_JOBS} = {inline_bytes:,} B, "
            f"by reference = {ref_bytes:,} B "
            f"(saved {saved:,} B, {100.0 * saved / inline_bytes:.1f}%)"
        )
    finally:
        frontend.stop()
        server.close()


if __name__ == "__main__":
    main()
