"""Scenario fuzzer: malformed input ends in an exit code, never a traceback.

Valid scenarios of each map kind are mutated (wrong types, wrong shapes,
non-finite and extreme numbers, missing and unknown fields), written with
``json.dumps`` and run through ``ergocert verify``.  Every integer a
mutation can write comes from [-2, 6], so no example sizes unbounded work.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from ergocert.cli import main

IDENTITY_2 = [[1.0, 0.0], [0.0, 1.0]]
SWAP_2 = [[0.0, 1.0], [1.0, 0.0]]

STATE = {
    "schema_version": 1,
    "mode": "state",
    "algebra": [2],
    "state": [[[0.6, 0.0], [0.0, 0.4]]],
    "map": {"kind": "kraus", "ops": [SWAP_2], "weights": [0.5]},
    "input": {"kind": "embed", "element": [[[1.0, 0.3], [0.3, 1.0]]]},
    "lambda": 1.5,
    "n_max": 2,
    "horizon": 3,
    "tolerances": {"window": 2, "check_horizon": 4},
    "seed": 1,
}

TRACIAL = {
    "schema_version": 1,
    "mode": "tracial_weight",
    "algebra": [2],
    "map": {"kind": "kraus", "ops": [SWAP_2]},
    "input": {"kind": "blocks", "blocks": [[[0.5, 0.0], [0.0, 0.25]]]},
    "lambda": 1.0,
    "n_max": 0,
    "horizon": 3,
    "tolerances": {"window": 2},
}

MARKOV = {
    "schema_version": 1,
    "mode": "state",
    "map": {
        "kind": "markov_tensor",
        "kernel": [[0.7, 0.3], [0.3, 0.7]],
        "mu": [0.5, 0.5],
        "inner_algebra": [1],
        "inner_state": [[[1.0]]],
    },
    "input": {"kind": "random", "seed": 3, "trace": 1.5},
    "lambda": 0.8,
    "n_max": 1,
    "horizon": 2,
    "tolerances": {"window": 2},
}

COND_EXP = {
    "schema_version": 1,
    "mode": "state",
    "algebra": [2],
    "state": [[[0.5, 0.0], [0.0, 0.5]]],
    "map": {"kind": "cond_exp", "partition": [[[0], [1]]]},
    "input": {"kind": "embed", "element": [IDENTITY_2]},
    "lambda": 2.0,
    "n_max": 1,
    "horizon": 2,
    "tolerances": {"window": 2},
}

SUPEROPERATOR = {
    "schema_version": 1,
    "mode": "state",
    "algebra": [1, 1],
    "state": [[[0.5]], [[0.5]]],
    "map": {"kind": "explicit_superoperator", "matrix": [[0.0, 1.0], [1.0, 0.0]]},
    "input": {"kind": "random", "seed": 2, "trace": 1.0},
    "lambda": 1.0,
    "n_max": 1,
    "horizon": 2,
    "tolerances": {"window": 2},
}

BASES = [STATE, TRACIAL, MARKOV, COND_EXP, SUPEROPERATOR]

EXTREME = [
    float("nan"),
    float("inf"),
    float("-inf"),
    1e308,
    -1e308,
    1e-308,
    -1e-308,
    0.0,
    -1.0,
    # in range: these let a mutated scenario reach the solver
    0.3,
    2.0,
    1e-6,
    1e6,
]
numbers = st.one_of(st.sampled_from(EXTREME), st.integers(-2, 6))
leaves = st.one_of(numbers, st.booleans(), st.none(), st.text(max_size=3))
values = st.one_of(
    leaves,
    st.lists(leaves, max_size=3),
    st.dictionaries(st.text(max_size=3), leaves, max_size=2),
    # a square matrix of a wrong size, or a block list holding one
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(numbers, min_size=d, max_size=d), min_size=d, max_size=d
        )
    ).flatmap(lambda m: st.sampled_from([m, [m]])),
)


def _paths(node, prefix=()):
    """Every path to a dict entry or list item below the root."""

    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(_paths(child, prefix + (key,)))
    return out


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _mutate(doc, data) -> None:
    action = data.draw(st.sampled_from(["number", "number", "replace", "delete", "add"]))
    paths = _paths(doc)
    if action == "number":
        # a number stays a number, so the scenario often still validates
        paths = [
            p for p in paths if _is_number(_at(doc, p)) and p != ("schema_version",)
        ] or paths
    path = data.draw(st.sampled_from(paths))
    parent = _at(doc, path[:-1])
    key = path[-1]
    if action == "number":
        parent[key] = data.draw(numbers)
    elif action == "replace":
        parent[key] = data.draw(values)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent[data.draw(st.sampled_from(["extra", "size", "dims"]))] = data.draw(values)
    else:
        parent.append(data.draw(values))


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_fuzzed_scenarios_exit_with_a_code(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(doc, data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
        code = main(["verify", path, "--out", os.path.join(tmp, "report.json")])
    assert code in (0, 1, 2, 3)


def test_unmutated_bases_pass():
    with tempfile.TemporaryDirectory() as tmp:
        for i, doc in enumerate(BASES):
            path = os.path.join(tmp, f"scenario{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc))
            assert main(["verify", path, "--out", path + ".out"]) == 0, doc["map"]
