"""Planner contracts: pinned schedules per strategy, and properties on random graphs."""

import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsakit.dense_oracle import verify_schedule
from qsakit.pauli_core import PauliString
from qsakit.schedule_compiler import (
    PATH_SEARCH_BUDGET,
    STRATEGIES,
    ConnectivityGraph,
    StrategyInfeasibleError,
    compile_schedule,
    depth_bound,
    replay_symbolic,
    validate,
)


def _shuffled_path(n, seed):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return list(zip(order, order[1:]))


def _grid(rows, cols):
    edges = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
    return edges + [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)]


def _clique_with_leaves(k, hubs):
    """A k-clique with one pendant leaf on each clique vertex in ``hubs``."""
    edges = [(a, b) for a in range(k) for b in range(a + 1, k)]
    return edges + [(hub, k + i) for i, hub in enumerate(hubs)]


def _sparse(n, extra, seed):
    """Random spanning tree plus ``extra`` random chords."""
    rng = random.Random(seed)
    edges = {(rng.randrange(k), k) for k in range(1, n)}
    others = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    return sorted(edges | set(rng.sample(others, extra)))


#: name -> (n_sites, edges)
GOLDEN_GRAPHS = {
    "complete9": (9, [(a, b) for a in range(9) for b in range(a + 1, 9)]),
    "path10": (10, _shuffled_path(10, "golden/path")),
    "grid3x4": (12, _grid(3, 4)),
    "star6": (6, [(0, k) for k in range(1, 6)]),
    "clique6+3": (9, _clique_with_leaves(6, (0, 0, 0))),
    "clique5+2": (7, _clique_with_leaves(5, (0, 1))),
    "sparse10": (10, _sparse(10, 14, "golden/sparse/10")),
    "sparse11": (11, _sparse(11, 4, "golden/sparse/11")),
    "sparse14": (14, _sparse(14, 6, "golden/sparse/14")),
}

#: sha256 of ``to_json()`` per (graph, strategy); None where the strategy is
#: infeasible. Compiled on an all-site target with every letter used.
GOLDEN_DIGESTS = {
    ("complete9", "doubling"):
        "2e6fe53c1be28b46c52399afb3d40dbe73931fd636a1c7a7ad9db89a465f2a2d",
    ("complete9", "line_endpoints"):
        "5b5251f0082e3aa4ccd326a744612b68e2755897e1736baef24e7c997106acec",
    ("complete9", "single_endpoint"):
        "c9a31b585698e8d38eece8f19a50a834ab355e5114e6130865665e8c1a581002",
    ("complete9", "greedy"):
        "2e6fe53c1be28b46c52399afb3d40dbe73931fd636a1c7a7ad9db89a465f2a2d",
    ("complete9", "auto"):
        "2e6fe53c1be28b46c52399afb3d40dbe73931fd636a1c7a7ad9db89a465f2a2d",
    ("path10", "doubling"): None,
    ("path10", "line_endpoints"):
        "80dd8b256f86f168986101ff49e5b636cf22a53edd178e277025514c6242a109",
    ("path10", "single_endpoint"):
        "6b411b02f844855a8e1ebe4006b1e4379f7f38821dc3ddf44913c15cc01d2a7a",
    ("path10", "greedy"):
        "6b411b02f844855a8e1ebe4006b1e4379f7f38821dc3ddf44913c15cc01d2a7a",
    ("path10", "auto"):
        "80dd8b256f86f168986101ff49e5b636cf22a53edd178e277025514c6242a109",
    ("grid3x4", "doubling"):
        "9b2a399181d7a1014220c258380c175c159ac76710b9ad532ad46a644992de32",
    ("grid3x4", "line_endpoints"):
        "bbd50004b55f697ee8a44c4c6c989f27c5512cbfb72d979f9c6acc080116c7ac",
    ("grid3x4", "single_endpoint"):
        "dc47a046967fd86eb07a148bab2004c9dbc78fc1fd4372e9956fdab068500f41",
    ("grid3x4", "greedy"):
        "545dcb4426b3b584dd0f6331052d7a0cf6f4ccf60d9fef3b08356ac48db34795",
    ("grid3x4", "auto"):
        "9b2a399181d7a1014220c258380c175c159ac76710b9ad532ad46a644992de32",
    ("star6", "doubling"): None,
    ("star6", "line_endpoints"): None,
    ("star6", "single_endpoint"): None,
    ("star6", "greedy"):
        "7465dfd312e7cd50831f940a5dc8f6071f51fc00b28c309d0bef2f25baa14ae9",
    ("star6", "auto"):
        "7465dfd312e7cd50831f940a5dc8f6071f51fc00b28c309d0bef2f25baa14ae9",
    ("clique6+3", "doubling"): None,
    ("clique6+3", "line_endpoints"): None,
    ("clique6+3", "single_endpoint"): None,
    ("clique6+3", "greedy"):
        "97fcde216752077021aa9e5a10faee54bfa9783cc30fe1c07e80ad36b3e6dc08",
    ("clique6+3", "auto"):
        "97fcde216752077021aa9e5a10faee54bfa9783cc30fe1c07e80ad36b3e6dc08",
    ("clique5+2", "doubling"): None,
    ("clique5+2", "line_endpoints"):
        "80f0c05f805a4fec966e4cf65b8d066955109a9d661518a151f76cec0e176769",
    ("clique5+2", "single_endpoint"):
        "da7e2a966391b16c02f3b775ee09f61619f85e9df57d6943f4482ff22f52f23a",
    ("clique5+2", "greedy"):
        "1bc5853df4369d2c9957391a39d48ec173225dd47164c6c9f4f863f7f7b36ddd",
    ("clique5+2", "auto"):
        "80f0c05f805a4fec966e4cf65b8d066955109a9d661518a151f76cec0e176769",
    ("sparse10", "doubling"):
        "4edb833f680ca372d9b0d28bf2fe71d2a3352203b3f0c0d18872a7e791602a11",
    ("sparse10", "line_endpoints"):
        "be91702848d959cd3db1a83fbe6edac1fb2c6f0f5fad066bba677511d49821c2",
    ("sparse10", "single_endpoint"):
        "54217f296cffe59811bfffe6ddf7fa28ef06646fafc8923659cddfe919dc0a1f",
    ("sparse10", "greedy"):
        "4edb833f680ca372d9b0d28bf2fe71d2a3352203b3f0c0d18872a7e791602a11",
    ("sparse10", "auto"):
        "4edb833f680ca372d9b0d28bf2fe71d2a3352203b3f0c0d18872a7e791602a11",
    ("sparse11", "doubling"): None,
    ("sparse11", "line_endpoints"): None,
    ("sparse11", "single_endpoint"): None,
    ("sparse11", "greedy"):
        "7e5862ed266ecc521dcf62ef4eae5ad853ccfbeeb08725be41fe02e2c8147cbc",
    ("sparse11", "auto"):
        "7e5862ed266ecc521dcf62ef4eae5ad853ccfbeeb08725be41fe02e2c8147cbc",
    ("sparse14", "doubling"): None,
    ("sparse14", "line_endpoints"): None,
    ("sparse14", "single_endpoint"): None,
    ("sparse14", "greedy"):
        "fa9bca0c5788eeff13700f54996f6d03303d4d79dc6d81f9c947c2a2e0e6a9de",
    ("sparse14", "auto"):
        "fa9bca0c5788eeff13700f54996f6d03303d4d79dc6d81f9c947c2a2e0e6a9de",
}


def _golden_target(n):
    return PauliString(n, tuple("XYZ"[(s * s + 1) % 3] for s in range(n)))


def _digest(graph_name, strategy):
    n, edges = GOLDEN_GRAPHS[graph_name]
    graph = ConnectivityGraph.from_edges(n, edges)
    try:
        schedule = compile_schedule(_golden_target(n), graph, strategy=strategy, tg=0.37)
    except StrategyInfeasibleError:
        return None
    return hashlib.sha256(schedule.to_json().encode("utf-8")).hexdigest()


def test_compiled_schedules_match_pinned_digests():
    got = {
        (name, strategy): _digest(name, strategy)
        for name in GOLDEN_GRAPHS
        for strategy in STRATEGIES
    }
    assert got == GOLDEN_DIGESTS


def _hub_family(k, cliques=4):
    """``cliques`` k-cliques, each fully joined to the two hub sites 0 and 1.

    No guard rules a Hamiltonian path out (every degree is above k, no single
    site cuts the graph, it is not bipartite).  Removing both hubs leaves one
    piece per clique, and a path covers at most three, so four cliques have
    no path and three have one.
    """
    n = cliques * k + 2
    edges = []
    for c in range(cliques):
        members = range(2 + c * k, 2 + (c + 1) * k)
        edges += [(a, b) for a in members for b in members if a < b]
        edges += [(hub, m) for hub in (0, 1) for m in members]
    return ConnectivityGraph.from_edges(n, edges)


@pytest.mark.parametrize("k", range(2, 9))
def test_path_search_on_the_hub_family_is_bounded(k):
    graph = _hub_family(k)
    target = PauliString(graph.n_sites, ("X",) * graph.n_sites)
    start = time.perf_counter()
    with pytest.raises(StrategyInfeasibleError) as err:
        compile_schedule(target, graph, strategy="line_endpoints")
    assert time.perf_counter() - start < 1.0
    # k = 2 is decided within the budget; larger k runs it out
    assert (f"gave up after {PATH_SEARCH_BUDGET} nodes" in str(err.value)) == (k > 2)
    start = time.perf_counter()
    auto = compile_schedule(target, graph, strategy="auto")
    assert time.perf_counter() - start < 1.0
    assert auto == compile_schedule(target, graph, strategy="greedy")


def test_path_search_budget_covers_a_path_found_deep_in_the_search():
    # three 4-cliques on two hubs: the search extends 62,867 partial paths
    graph = _hub_family(4, cliques=3)
    target = PauliString(graph.n_sites, ("X",) * graph.n_sites)
    schedule = compile_schedule(target, graph, strategy="line_endpoints")
    assert schedule.depth == depth_bound(graph.n_sites, "line_endpoints")
    assert compile_schedule(target, graph, strategy="auto") == schedule


@st.composite
def connected_targets(draw):
    """A target on a connected support of a random graph.

    The support (2-9 sites, random labels) is joined by a random spanning
    tree plus random chords; the register may hold one or two further sites,
    coupled to the support or not, which the target leaves as identity.
    """
    n_support = draw(st.integers(2, 9))
    n_sites = n_support + draw(st.integers(0, 2))
    support = draw(st.permutations(range(n_sites)))[:n_support]
    edges = {
        (support[k], support[draw(st.integers(0, k - 1))]) for k in range(1, n_support)
    }
    pairs = [(a, b) for a in range(n_sites) for b in range(a + 1, n_sites)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n_sites)))
    letters = ["I"] * n_sites
    for site in support:
        letters[site] = draw(st.sampled_from("XYZ"))
    graph = ConnectivityGraph.from_edges(n_sites, edges)
    return PauliString(n_sites, tuple(letters)), graph


@settings(max_examples=150, deadline=None)
@given(connected_targets())
def test_strategies_on_random_connected_graphs(case):
    target, graph = case
    n_support = target.weight
    compiled = {}
    for strategy in STRATEGIES:
        try:
            schedule = compile_schedule(target, graph, strategy=strategy, tg=0.4)
        except StrategyInfeasibleError:
            continue
        assert validate(schedule, graph) == []
        assert replay_symbolic(schedule) == target
        if strategy in ("doubling", "line_endpoints", "single_endpoint"):
            assert schedule.depth == depth_bound(n_support, strategy)
        if target.n_sites <= 6:
            assert verify_schedule(schedule)["passed"]
        compiled[strategy] = schedule

    assert "greedy" in compiled
    assert ("single_endpoint" in compiled) == ("line_endpoints" in compiled)
    first = next(s for s in ("doubling", "line_endpoints", "greedy") if s in compiled)
    assert compiled["auto"] == compiled[first]
