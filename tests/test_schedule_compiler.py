"""Planner depths, symbolic replay, serialization and the validator."""

import functools
import json
import operator
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsakit import pauli_core, schedule_compiler
from qsakit.dense_oracle import verify_schedule
from qsakit.pauli_core import PauliString, index_field
from qsakit.propagator_engine import MAX_BRANCH, AttachmentSpec, PulseSpecError, SwapperSpec
from qsakit.schedule_compiler import (
    STRATEGIES,
    CompileError,
    ConnectivityGraph,
    DisconnectedSupportError,
    QsaSchedule,
    StrategyInfeasibleError,
    UnsupportedTargetError,
    compile_schedule,
    depth_bound,
    replay_symbolic,
    validate,
)

from conftest import random_string_letters

SEED = 20240813


def random_target(rng, n_sites, min_weight=2):
    return PauliString(n_sites, random_string_letters(rng, n_sites, min_weight))


def test_graph_constructors_and_membership():
    g = ConnectivityGraph.complete(4)
    assert len(g.edges) == 6 and g.has_edge(1, 3) and g.has_edge(3, 1)
    p = ConnectivityGraph.path(4)
    assert p.has_edge(1, 2) and not p.has_edge(0, 2)
    assert ConnectivityGraph.from_dict({"n_sites": 4, "edges": sorted(map(list, g.edges))}) == g
    assert ConnectivityGraph.from_edges(3, [(2, 1), (1, 2), (0, 2)]).edges == {(1, 2), (0, 2)}
    with pytest.raises(ValueError, match=r"^self-loop in edge list$"):
        ConnectivityGraph.from_edges(2, [(0, 1), (1, 1)])
    for edge in ((0, 5), (5, 0)):
        with pytest.raises(ValueError, match=r"^bad edge \(0, 5\) for 2 sites$"):
            ConnectivityGraph.from_edges(2, [edge])
    with pytest.raises(ValueError, match=r"^bad edge \(-1, 1\) for 2 sites$"):
        ConnectivityGraph.from_edges(2, [(1, -1)])
    with pytest.raises(TypeError, match="^edges: 'bool' object cannot be interpreted"):
        ConnectivityGraph.from_edges(2, [(True, 0)])


def test_a_graph_file_reads_each_edge_entry_once(monkeypatch):
    calls = []

    def counted(value, field):
        calls.append(field)
        return index_field(value, field)

    monkeypatch.setattr(pauli_core, "index_field", counted)
    monkeypatch.setattr(schedule_compiler, "index_field", counted)
    graph = ConnectivityGraph.from_dict({"n_sites": 4, "edges": [[0, 1], [1, 2], [3, 2]]})
    assert graph.edges == {(0, 1), (1, 2), (2, 3)}
    assert calls == ["n_sites"] + ["edges"] * 6


def test_depth_bound_table():
    assert [depth_bound(n, "doubling") for n in (2, 3, 4, 5, 8, 9, 16)] == [
        0, 1, 1, 2, 2, 3, 3,
    ]
    assert [depth_bound(n, "line_endpoints") for n in (2, 3, 4, 10)] == [
        0, 1, 1, 4,
    ]
    assert [depth_bound(n, "single_endpoint") for n in (2, 3, 5, 7)] == [
        0, 1, 3, 5,
    ]
    with pytest.raises(ValueError, match=r"^depth bounds are defined for supports of >= 2 sites$"):
        depth_bound(1, "doubling")
    with pytest.raises(ValueError, match="^no depth bound for strategy 'greedy'$"):
        depth_bound(4, "greedy")


def test_compiled_depths_match_bounds_on_complete_graphs():
    rng = np.random.default_rng(SEED)
    for n in range(2, 11):
        target = PauliString(n, tuple(rng.choice(["X", "Y", "Z"], size=n)))
        graph = ConnectivityGraph.complete(n)
        for strategy in ("doubling", "line_endpoints", "single_endpoint"):
            schedule = compile_schedule(target, graph, strategy=strategy)
            assert schedule.depth == depth_bound(n, strategy)
            assert validate(schedule, graph) == []


def test_replay_matches_target_randomized():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(120):
        n = int(rng.integers(2, 13))
        target = random_target(rng, n)
        schedule = compile_schedule(target, ConnectivityGraph.complete(n))
        assert replay_symbolic(schedule) == target
        assert validate(schedule, ConnectivityGraph.complete(n)) == []


def test_no_graph_compiles_as_the_complete_graph():
    # identity sites, sub-two-site and -1-phase targets included: those must
    # raise the same class whether or not a graph is given
    rng = np.random.default_rng(SEED + 9)
    for _ in range(150):
        n = int(rng.integers(2, 25))
        target = random_target(rng, n, min_weight=0)
        if rng.random() < 0.1:
            target = target.with_phase_exp(2)
        complete = ConnectivityGraph.complete(n)
        for strategy in STRATEGIES:
            outcomes = []
            for graph in (None, complete):
                try:
                    outcomes.append(compile_schedule(target, graph, strategy, 0.3))
                except CompileError as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1], (target.format(), strategy)


def test_plaquette_compiles_to_one_layer_no_swappers():
    schedule = compile_schedule(
        PauliString.parse("XZZX"),
        ConnectivityGraph.complete(4),
        strategy="line_endpoints",
    )
    assert schedule.depth == 1
    assert schedule.final_swappers == ()
    assert replay_symbolic(schedule) == PauliString.parse("XZZX")


def test_auto_picks_the_shallowest_feasible_plan():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(40):
        n = int(rng.integers(3, 10))
        target = random_target(rng, n)
        graph = ConnectivityGraph.complete(n)
        auto = compile_schedule(target, graph, strategy="auto")
        depths = []
        for strategy in ("doubling", "line_endpoints", "single_endpoint"):
            try:
                depths.append(
                    compile_schedule(target, graph, strategy=strategy).depth
                )
            except CompileError:
                pass
        assert auto.depth == min(depths)


def test_path_graph_strategies():
    target = PauliString.parse("ZZZZZ")
    path = ConnectivityGraph.path(5)
    schedule = compile_schedule(target, path, strategy="single_endpoint")
    assert schedule.depth == 3
    assert validate(schedule, path) == []
    # a centered seed still doubles on a path: 2 -> 4 -> 5 sites
    assert compile_schedule(target, path, strategy="doubling").depth == 2


def test_star_graph_has_no_endpoint_line():
    target = PauliString.parse("XXXX")
    star = ConnectivityGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(StrategyInfeasibleError):
        compile_schedule(target, star, strategy="line_endpoints")
    schedule = compile_schedule(target, star, strategy="greedy")
    assert validate(schedule, star) == []
    assert replay_symbolic(schedule) == target


def test_path_search_rejects_three_leaves_at_once():
    # a 10-clique with three pendant leaves has no Hamiltonian path; the
    # leaves give it away before the exponential search starts
    n = 13
    edges = [(a, b) for a in range(10) for b in range(a + 1, 10)]
    edges += [(0, 10), (1, 11), (2, 12)]
    graph = ConnectivityGraph.from_edges(n, edges)
    target = PauliString(n, ("X",) * n)
    start = time.perf_counter()
    for strategy in ("line_endpoints", "single_endpoint"):
        with pytest.raises(StrategyInfeasibleError):
            compile_schedule(target, graph, strategy=strategy)
    assert time.perf_counter() - start < 1.0
    auto = compile_schedule(target, graph, strategy="auto")
    assert auto == compile_schedule(target, graph, strategy="greedy")


def test_path_search_rejects_a_three_way_cut_vertex():
    # three 7-cliques sharing vertex 0: no vertex has degree <= 1, but
    # removing vertex 0 leaves three pieces, which no path can cover
    n = 19
    cliques = [[0, *range(1 + 6 * c, 7 + 6 * c)] for c in range(3)]
    edges = [(a, b) for clique in cliques for a in clique for b in clique if a < b]
    graph = ConnectivityGraph.from_edges(n, edges)
    target = PauliString(n, ("X",) * n)
    start = time.perf_counter()
    with pytest.raises(StrategyInfeasibleError):
        compile_schedule(target, graph, strategy="line_endpoints")
    auto = compile_schedule(target, graph, strategy="auto")
    assert time.perf_counter() - start < 1.0
    assert auto == compile_schedule(target, graph, strategy="greedy")


def test_path_search_rejects_unbalanced_bipartite_supports():
    # K_{k,k+2}: no leaves and no cut vertex, but a path alternates sides,
    # so sides of k and k + 2 vertices admit none
    start = time.perf_counter()
    for k in range(1, 13):
        n = 2 * k + 2
        edges = [(a, b) for a in range(k) for b in range(k, n)]
        graph = ConnectivityGraph.from_edges(n, edges)
        with pytest.raises(StrategyInfeasibleError):
            compile_schedule(PauliString(n, ("X",) * n), graph, strategy="line_endpoints")
    assert time.perf_counter() - start < 1.0


def test_infeasible_doubling_names_the_bound():
    target = PauliString.parse("XXXXX")
    star = ConnectivityGraph.from_edges(5, [(0, k) for k in range(1, 5)])
    with pytest.raises(StrategyInfeasibleError, match="no seed edge reaches depth 2"):
        compile_schedule(target, star, strategy="doubling")


def test_greedy_respects_sparse_graphs():
    rng = np.random.default_rng(SEED + 3)
    star_edges = [(0, k) for k in range(1, 6)]
    graph = ConnectivityGraph.from_edges(6, star_edges)
    target = PauliString(6, tuple(rng.choice(["X", "Y", "Z"], size=6)))
    schedule = compile_schedule(target, graph, strategy="greedy")
    assert validate(schedule, graph) == []
    assert replay_symbolic(schedule) == target


def test_unsupported_targets_rejected():
    graph = ConnectivityGraph.complete(4)
    with pytest.raises(UnsupportedTargetError):
        compile_schedule(PauliString.parse("IIII"), graph)
    with pytest.raises(UnsupportedTargetError):
        compile_schedule(PauliString.parse("XIII"), graph)
    with pytest.raises(UnsupportedTargetError):
        compile_schedule(PauliString.parse("-XZZX"), graph)
    with pytest.raises(ValueError, match="^unknown strategy 'bogus'; expected "):
        compile_schedule(PauliString.parse("XZZX"), graph, strategy="bogus")


def test_disconnected_support_rejected():
    graph = ConnectivityGraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedSupportError):
        compile_schedule(PauliString.parse("XXXX"), graph)


def test_two_site_target_needs_no_attachments():
    schedule = compile_schedule(
        PauliString.parse("XIZ"), ConnectivityGraph.complete(3), tg=0.7
    )
    assert schedule.depth == 0
    assert schedule.n_attachments == 0
    assert replay_symbolic(schedule) == schedule.target
    assert schedule.tg == 0.7


def test_json_round_trip():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        schedule = compile_schedule(
            random_target(rng, n),
            ConnectivityGraph.complete(n),
            tg=float(rng.normal()),
        )
        again = QsaSchedule.from_json(schedule.to_json())
        assert again == schedule
        assert validate(again) == []


def _assert_written_as_dumped(schedule):
    """``to_json`` is the ``indent=2`` dump of ``to_dict``, byte for byte."""
    assert schedule.to_json() == json.dumps(schedule.to_dict(), indent=2)


@settings(max_examples=60, deadline=None)
@given(
    letters=st.lists(st.sampled_from("IXYZ"), min_size=2, max_size=12).filter(
        lambda letters: len(letters) - letters.count("I") >= 2
    ),
    tg=st.floats(allow_nan=False, allow_infinity=False),
)
def test_to_json_writes_the_indent_2_dump(letters, tg):
    target = PauliString(len(letters), tuple(letters))
    for strategy in STRATEGIES:
        schedule = compile_schedule(target, strategy=strategy, tg=tg)
        _assert_written_as_dumped(schedule)
        assert QsaSchedule.from_json(schedule.to_json()) == schedule


def test_to_json_writes_hand_built_schedules_as_dumped():
    two_site = compile_schedule(PauliString.parse("XZ"), tg=0.7)
    assert two_site.layers == ()
    wide = compile_schedule(PauliString.parse("XYZXZ"), tg=0.7)
    extremes = AttachmentSpec(0, "Y", "Z", 2, "Y", -MAX_BRANCH, MAX_BRANCH)
    cases = [
        two_site,
        replace(wide, final_swappers=()),
        replace(wide, layers=((extremes,),) + wide.layers[1:]),
        replace(wide, final_swappers=(SwapperSpec(1, "X", "Y", MAX_BRANCH, -MAX_BRANCH),)),
    ]
    for schedule in cases:
        _assert_written_as_dumped(schedule)
        assert QsaSchedule.from_json(schedule.to_json()) == schedule
    for tg in (1e-05, 1e16, -0.0, 0.1 + 0.2):
        schedule = replace(wide, tg=tg)
        _assert_written_as_dumped(schedule)
        again = QsaSchedule.from_json(schedule.to_json())
        assert again == schedule and repr(again.tg) == repr(tg)
    for tg in (float("nan"), float("inf")):
        _assert_written_as_dumped(replace(wide, tg=tg))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_schedule_with_a_non_finite_seed_angle_is_refused(value):
    data = compile_schedule(PauliString.parse("XZZX")).to_dict()
    data["seed"]["tg"] = value
    with pytest.raises(ValueError) as info:
        QsaSchedule.from_dict(data)
    assert str(info.value) == f"seed.tg: must be a finite number, got {value!r}"


def test_validator_names_layer_violations():
    schedule = compile_schedule(
        PauliString.parse("XZZX"), ConnectivityGraph.complete(4)
    )
    data = schedule.to_dict()
    data["layers"][0][1]["attached_site"] = data["layers"][0][0]["attached_site"]
    broken = QsaSchedule.from_dict(data)
    # the shape rule, then the replay's first fault: the second attachment
    # writes onto the site the first one grew
    assert validate(broken) == [
        "layer 1: attachments share sites [2]",
        "layer 1: attached site 2 is not fresh",
    ]


def test_validator_checks_graph_edges():
    target = PauliString.parse("ZZZ")
    schedule = compile_schedule(target, ConnectivityGraph.complete(3))
    sparse = ConnectivityGraph.path(3)
    # the complete-graph plan may or may not fit the path; force a non-edge
    data = schedule.to_dict()
    seed_sites = [
        i for i, c in enumerate(data["target"]) if c != "I"
    ]
    assert len(seed_sites) == 3
    missing_edge_graph = ConnectivityGraph.from_edges(3, [(0, 1)])
    violations = validate(schedule, missing_edge_graph)
    assert any("not a graph edge" in v for v in violations)
    del sparse


def test_validator_catches_stale_connector_letter():
    schedule = compile_schedule(
        PauliString.parse("XZZX"), ConnectivityGraph.complete(4)
    )
    data = schedule.to_dict()
    spec = data["layers"][0][0]
    # the seed XX puts X on the connector, which a Y/Z attachment does not act on
    spec["alpha"], spec["beta"] = "Y", "Z"
    broken = QsaSchedule.from_dict(data)
    assert validate(broken) == ["layer 1: connector 0 carries 'X', spec expects Y/Z"]


def test_replay_names_width_and_site_faults():
    schedule = compile_schedule(PauliString.parse("XZZX"), ConnectivityGraph.complete(4))
    ((first, second),) = schedule.layers
    cases = [
        (replace(schedule, seed=PauliString.parse("XXI")),
         "register mismatch: string on 3, rotation on 4 sites"),
        (replace(schedule, layers=((first, replace(second, attached_site=5)),)),
         "site 5 out of range for 4 sites"),
        (replace(schedule, layers=((replace(first, connector_site=6), second),)),
         "site 6 out of range for 4 sites"),
        (replace(schedule, final_swappers=(SwapperSpec(7, "X", "Z"),)),
         "swapper site 7 out of range for 4 sites"),
    ]
    for broken, message in cases:
        with pytest.raises(ValueError) as error:
            replay_symbolic(broken)
        assert str(error.value) == message
    # validate reports the width fault alone, without the replay
    assert validate(cases[0][0]) == ["seed/target register width differs from n_sites"]



def _sparse_graph(rng, n):
    """A random spanning tree on ``n`` sites plus one random edge."""
    order = [int(s) for s in rng.permutation(n)]
    edges = [(order[k], order[int(rng.integers(k))]) for k in range(1, n)]
    edges.append(tuple(int(s) for s in rng.choice(n, 2, replace=False)))
    return ConnectivityGraph.from_edges(n, edges)


def _at(data, path):
    return functools.reduce(operator.getitem, path, data)


def _single_faults(data):
    """Copies of a schedule's dict form, each with one fault planted.

    A target or spec letter becomes another letter, a site or a branch
    integer moves by one, an attachment or a swapper is dropped, or the
    layers run in reverse order.
    """
    def planted(path, key, value):
        copy = json.loads(json.dumps(data))
        _at(copy, path)[key] = value
        return copy

    target = data["target"]
    for site, letter in enumerate(target):
        for other in "IXYZ".replace(letter, ""):
            yield planted((), "target", target[:site] + other + target[site + 1:])
    specs = [("layers", i, j) for i, layer in enumerate(data["layers"]) for j in range(len(layer))]
    specs += [("final_swappers", k) for k in range(len(data["final_swappers"]))]
    for path in specs:
        for key, value in _at(data, path).items():
            news = "XYZ".replace(value, "") if isinstance(value, str) else (value - 1, value + 1)
            for new in news:
                yield planted(path, key, new)
        # the spec's list, less the spec
        *outer, key, index = path
        kept = _at(data, path[:-1])
        yield planted(tuple(outer), key, kept[:index] + kept[index + 1:])
    if len(data["layers"]) > 1:
        yield planted((), "layers", data["layers"][::-1])


def test_validator_agrees_with_the_dense_oracle_on_single_faults():
    # validate(s) == [] exactly when the dense product is exp(-i tg target)
    rng = np.random.default_rng(SEED + 9)
    judged = 0
    for n in (3, 4, 5, 6, 7) * 2:
        target = random_target(rng, n)
        for graph in (None, _sparse_graph(rng, n)):
            for strategy in STRATEGIES:
                try:
                    schedule = compile_schedule(target, graph, strategy, tg=0.4)
                except (StrategyInfeasibleError, DisconnectedSupportError):
                    continue
                faults = list(_single_faults(schedule.to_dict()))
                for k in rng.choice(len(faults), min(6, len(faults)), replace=False):
                    try:
                        broken = QsaSchedule.from_dict(faults[k])
                    except PulseSpecError:  # a spec constructor refuses the fault
                        continue
                    try:
                        passed = verify_schedule(broken)["passed"]
                    except ValueError:  # a site outside the register
                        passed = False
                    assert (validate(broken) == []) == passed, faults[k]
                    judged += 1
    assert judged >= 350
