"""Malformed inline relations get a typed 400 on both verbs that accept them.

``POST /jobs`` (an inline ``relation``) and ``PUT /relations`` parse the
same relation payload.  Every malformed payload below must answer a JSON
400 that names the problem, and the keep-alive connection that carried it
must go on serving: ``GET /healthz`` answers 200 on it right after.  The
payloads are duplicate attribute names, cells that are JSON arrays or
objects, rows of the wrong width and ``rows`` that is not a list.

Tier-1 runs the explicit examples and a fixed seed.
"""

from __future__ import annotations

import http.client
import json

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.serve import HttpFrontend, Server

WAIT = 30.0

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.sampled_from(["", "x"]))
CONTAINERS = st.one_of(
    st.lists(SCALARS, max_size=2),
    st.dictionaries(st.sampled_from(["k", "v"]), SCALARS, max_size=2),
)


@st.composite
def malformed_relations(draw) -> dict:
    """An inline relation payload with exactly one kind of damage."""
    width = draw(st.integers(1, 3))
    attributes = [f"c{i}" for i in range(width)]
    rows = draw(st.lists(st.lists(SCALARS, min_size=width, max_size=width), max_size=4))
    kind = draw(st.sampled_from(["duplicate", "container", "width", "rows"]))
    if kind == "duplicate":
        attributes.append(draw(st.sampled_from(attributes)))
        rows = [row + [None] for row in rows]
    elif kind == "container":
        rows.append(draw(st.lists(SCALARS, min_size=width, max_size=width)))
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, width - 1))] = draw(CONTAINERS)
    elif kind == "width":
        rows.append(draw(st.lists(SCALARS, max_size=width + 2).filter(lambda r: len(r) != width)))
    else:
        rows = draw(st.one_of(SCALARS, st.dictionaries(st.just("r"), SCALARS, min_size=1)))
    return {"name": "r", "attributes": attributes, "rows": rows}


@pytest.fixture(scope="module")
def connection():
    server = Server(workers=1, executor="thread")
    frontend = HttpFrontend(server, port=0).start()
    conn = http.client.HTTPConnection(*frontend.address, timeout=WAIT)
    yield conn
    conn.close()
    frontend.stop()
    server.close()


def send(conn, method: str, path: str, body=None) -> tuple[int, dict]:
    payload = None if body is None else json.dumps(body)
    conn.request(method, path, payload, {"Content-Type": "application/json"})
    response = conn.getresponse()
    assert response.getheader("Content-Type") == "application/json"
    return response.status, json.loads(response.read())


def job_request(relation: dict) -> dict:
    return {
        "schema": "repro/job-request-v1",
        "tenant": "acme",
        "kind": "discover",
        "relation": relation,
        "params": {},
    }


@seed(20261019)
@settings(max_examples=25, deadline=None)
@given(relation=malformed_relations())
@example(relation={"name": "r", "attributes": ["a", "a"], "rows": [[1, 2]]})
@example(relation={"name": "r", "attributes": ["a", "b"], "rows": [[[1], 2]]})
@example(relation={"name": "r", "attributes": ["a", "b"], "rows": [[1, {"k": 2}]]})
@example(relation={"name": "r", "attributes": ["a", "b"], "rows": [[1, 2], [3]]})
@example(relation={"name": "r", "attributes": ["a"], "rows": {"r": 1}})
@example(relation={"name": "r", "attributes": ["a"], "rows": [7]})
def test_malformed_relations_get_a_400_and_keep_the_connection(connection, relation):
    for method, path, body in (
        ("POST", "/jobs", job_request(relation)),
        ("PUT", "/relations", relation),
    ):
        status, answer = send(connection, method, path, body)
        assert status == 400, (method, answer)
        assert answer["error"]
        status, health = send(connection, "GET", "/healthz")
        assert status == 200, health


def test_a_container_cell_is_named_by_its_column(connection):
    relation = {"name": "r", "attributes": ["a", "b"], "rows": [[1, 2], [3, [4]]]}
    for method, path, body in (
        ("POST", "/jobs", job_request(relation)),
        ("PUT", "/relations", relation),
    ):
        status, answer = send(connection, method, path, body)
        assert status == 400
        assert "'b'" in answer["error"] and "list" in answer["error"]
    # The same requests with scalar cells are accepted.
    relation["rows"][1][1] = 4
    assert send(connection, "POST", "/jobs", job_request(relation))[0] == 202
    assert send(connection, "PUT", "/relations", relation)[0] == 200
