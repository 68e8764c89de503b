"""Seeded input batches for the three benchmark workloads.

Each workload is a fixed list of slots. A slot fixes the size and the shape
of one input, so every seed costs the program the same work; the seed only
draws what does not change that cost: Pauli letters, site labels, the random
edges of sparse graphs, twist and hole positions, string paths, angles and
amplitudes. Every input is one ``qsakit`` command line (an :class:`Op`) plus
the files it reads, written into a work directory. Each op records the facts
its independent check needs.

Compile targets are drawn with an exact number of letter swappers: the growth
plan depends only on the support and the graph, so a throw-away compile of an
all-X target shows which letter (X or Z) each site carries after growth, and
exactly ``round(2 N / 3)`` support sites are then given another letter. The
pulse count of every schedule is therefore the same on every seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

from checks import track_letters

WORKLOADS = ("compile-symbolic", "verify-dense", "lattice-anyon")


@dataclass
class Op:
    """One CLI invocation of the batch.

    Attributes:
        name: Unique label of the input within the batch.
        kind: Operation kind (subcommand, action and strategy); one untimed
            warm-up runs per kind.
        argv: Arguments for ``qsakit.cli.main``.
        expect_rc: The input's known exit code.
        facts: What the independent check needs to know about the input.
        out: Artifact the command writes (``compile --out``), if any.
    """

    name: str
    kind: str
    argv: list
    expect_rc: int
    facts: dict = field(default_factory=dict)
    out: str | None = None


@dataclass
class Batch:
    ops: list
    env: dict  # environment for the timed passes; None unsets a variable


# -- graphs and targets --------------------------------------------------------


def _complete_edges(sites):
    return [(a, b) for i, a in enumerate(sites) for b in sites[i + 1:]]


def _path_edges(order):
    return list(zip(order, order[1:]))


def _grid_edges(rows, cols):
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((i * cols + j, i * cols + j + 1))
            if i + 1 < rows:
                edges.append((i * cols + j, (i + 1) * cols + j))
    return edges


def _sparse_edges(rng, n, extra):
    """Random spanning tree plus exactly ``extra`` further random edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[k], order[rng.randrange(k)]))) for k in range(1, n)}
    others = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    edges.update(rng.sample(others, extra))
    return sorted(edges)


def _clique_pendant_edges(rng, n, k, leaves):
    """A k-clique with ``leaves`` pendant leaves on one clique vertex.

    With ``leaves >= depth_bound + 2`` no seed edge can reach doubling depth
    (one vertex attaches at most one leaf per layer), and with three or more
    leaves there is no Hamiltonian path, so ``auto`` exhausts both path
    searches before it falls back to greedy growth. Sites off the support
    form a chain joined to the clique.
    """
    sites = list(range(n))
    rng.shuffle(sites)
    clique, pendant, rest = sites[:k], sites[k:k + leaves], sites[k + leaves:]
    hub = clique[0]
    edges = _complete_edges(clique) + [(hub, leaf) for leaf in pendant]
    if rest:
        edges += _path_edges(rest) + [(rest[0], clique[-1])]
    return sorted(tuple(sorted(e)) for e in edges), sorted(clique + pendant)


def _doubling_depth(n):
    return math.ceil(math.log2(n)) - 1


def _expected_depth(strategy, n_support):
    if strategy == "doubling":
        return _doubling_depth(n_support)
    if strategy == "line_endpoints":
        return math.ceil(n_support / 2) - 1
    if strategy == "single_endpoint":
        return n_support - 2
    return None


def _draw_target(rng, n, support, edges, strategy):
    """A target on ``support`` whose schedule has exactly round(2N/3) swappers."""
    from qsakit import ConnectivityGraph, PauliString, compile_schedule

    graph = ConnectivityGraph.from_edges(n, edges)
    on_support = set(support)
    probe = "".join("X" if s in on_support else "I" for s in range(n))
    plan = compile_schedule(PauliString.parse(probe), graph, strategy=strategy)
    tracked, _, errors = track_letters(plan.to_dict())
    if errors:
        raise RuntimeError(f"growth plan breaks the letter rule: {errors}")
    n_swap = round(2 * len(support) / 3)
    swapped = set(rng.sample(sorted(support), n_swap))
    letters = ["I"] * n
    for site in support:
        have = tracked[site]
        letters[site] = rng.choice([x for x in "XYZ" if x != have]) if site in swapped else have
    return "".join(letters), graph


def _write_json(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


# -- compile-symbolic ------------------------------------------------------------

# (family, register sites, family parameter, strategy). Every register is above
# the default dense limit of 14 sites, so no compile reaches the dense oracle.
# Sparse and clique graphs are drawn from a fixed per-slot seed: greedy depth
# depends on the graph, and the schedule-size metrics must not move with the
# workload seed, which still draws every target.
COMPILE_SLOTS = {
    "full": [
        ("complete", 16, None, "doubling"),
        ("complete", 24, None, "doubling"),
        ("complete", 32, None, "doubling"),
        ("complete", 48, None, "doubling"),
        ("complete", 64, None, "doubling"),
        ("complete", 24, 20, "auto"),
        ("complete", 40, 36, "auto"),
        ("path", 32, None, "line_endpoints"),
        ("path", 96, None, "line_endpoints"),
        ("path", 48, None, "single_endpoint"),
        ("path", 128, None, "single_endpoint"),
        ("grid", 48, (6, 8), "line_endpoints"),
        ("grid", 128, (8, 16), "line_endpoints"),
        ("grid", 32, (4, 8), "single_endpoint"),
        ("grid", 96, (8, 12), "single_endpoint"),
        ("sparse", 16, 8, "greedy"),
        ("sparse", 24, 12, "greedy"),
        ("sparse", 32, 16, "greedy"),
        ("sparse", 48, 24, "greedy"),
        ("clique", 16, (6, 5), "auto"),
        ("clique", 20, (7, 5), "auto"),
        ("clique", 24, (7, 5), "auto"),
    ],
    "tiny": [
        ("complete", 16, None, "doubling"),
        ("complete", 20, 18, "auto"),
        ("path", 16, None, "line_endpoints"),
        ("grid", 16, (4, 4), "single_endpoint"),
        ("sparse", 16, 8, "greedy"),
        ("clique", 16, (6, 5), "auto"),
    ],
}


def _compile_batch(rng, workdir, size):
    ops = []
    for index, (family, n, param, strategy) in enumerate(COMPILE_SLOTS[size]):
        support = list(range(n))
        if family == "complete":
            if param is not None:
                support = sorted(rng.sample(range(n), param))
            edges = _complete_edges(list(range(n)))
        elif family == "path":
            order = list(range(n))
            rng.shuffle(order)
            edges = _path_edges(order)
        elif family == "grid":
            edges = _grid_edges(*param)
        elif family == "sparse":
            edges = _sparse_edges(random.Random(f"sparse/{index}"), n, param)
        else:
            edges, support = _clique_pendant_edges(random.Random(f"clique/{index}"), n, *param)
        target, _ = _draw_target(rng, n, support, edges, strategy)
        tg = round(rng.uniform(0.1, 1.4), 6)
        name = f"{index:02d}-{family}{n}-{strategy}"
        graph_path = _write_json(
            workdir, f"{name}.graph.json",
            {"n_sites": n, "edges": [list(e) for e in edges]},
        )
        out = os.path.join(workdir, f"{name}.out.json")
        depth = _expected_depth(strategy, len(support))
        if family == "complete" and strategy == "auto":
            depth = _doubling_depth(len(support))  # complete graphs admit doubling
        ops.append(Op(
            name=name,
            kind=f"compile/{strategy}",
            argv=["compile", "--target", target, "--graph", graph_path,
                  "--strategy", strategy, "--tg", repr(tg), "--out", out],
            expect_rc=0,
            facts={"target": target, "edges": edges, "strategy": strategy,
                   "tg": tg, "depth": depth, "support": support},
            out=out,
        ))
    return Batch(ops, {"QSA_MAX_DENSE_QUBITS": None})


# -- verify-dense --------------------------------------------------------------------

# (sites, graph family, strategy, role). Up to 10 sites the CLI compares full
# 4^n matrices; from 11 to 14 it compares seeded probe states.
VERIFY_SLOTS = {
    "full": [
        (6, "complete", "doubling", "verify"),
        (6, "path", "line_endpoints", "verify"),
        (7, "complete", "doubling", "verify"),
        (7, "path", "single_endpoint", "verify"),
        (8, "complete", "doubling", "verify"),
        (8, "path", "line_endpoints", "verify"),
        (9, "complete", "doubling", "verify"),
        (9, "path", "line_endpoints", "verify"),
        (10, "complete", "doubling", "verify"),
        (11, "path", "line_endpoints", "verify"),
        (12, "complete", "doubling", "verify"),
        (13, "path", "single_endpoint", "verify"),
        (14, "complete", "doubling", "verify"),
        (6, "complete", "doubling", "error-scaling"),
        (7, "path", "line_endpoints", "error-scaling"),
        (8, "complete", "doubling", "error-scaling"),
        (9, "path", "line_endpoints", "defect-target-letter"),
        (8, "complete", "doubling", "defect-connector-letter"),
    ],
    "tiny": [
        (6, "complete", "doubling", "verify"),
        (11, "path", "line_endpoints", "verify"),
        (6, "path", "line_endpoints", "error-scaling"),
        (7, "path", "line_endpoints", "defect-target-letter"),
        (6, "complete", "doubling", "defect-connector-letter"),
    ],
}


def plant_defect(data: dict, kind: str, rng: random.Random) -> dict:
    """Copy of a schedule dict with one planted defect.

    ``defect-target-letter`` changes the target letter of one support site,
    so replay no longer reaches the target. ``defect-connector-letter`` makes
    a first-layer attachment on a seed site (which carries X) expect Y/Z.
    Either way the schedule's known verdict is a failed check (exit 1).
    """
    data = json.loads(json.dumps(data))
    if kind == "defect-target-letter":
        letters = list(data["target"])
        site = rng.choice([s for s, x in enumerate(letters) if x != "I"])
        letters[site] = rng.choice([x for x in "XYZ" if x != letters[site]])
        data["target"] = "".join(letters)
    else:
        spec = data["layers"][0][0]
        spec["alpha"], spec["beta"] = "Y", "Z"
    return data


def _verify_batch(rng, workdir, size):
    from qsakit import PauliString, compile_schedule

    ops = []
    for index, (n, family, strategy, role) in enumerate(VERIFY_SLOTS[size]):
        if family == "complete":
            edges = _complete_edges(list(range(n)))
        else:
            order = list(range(n))
            rng.shuffle(order)
            edges = _path_edges(order)
        target, graph = _draw_target(rng, n, list(range(n)), edges, strategy)
        tg = round(rng.uniform(0.1, 1.4), 6)
        data = compile_schedule(PauliString.parse(target), graph, strategy, tg).to_dict()
        if role.startswith("defect"):
            data = plant_defect(data, role, rng)
        name = f"{index:02d}-{role}{n}-{strategy}"
        path = _write_json(workdir, f"{name}.schedule.json", data)
        facts = {"role": role, "schedule": data, "target": target, "tg": tg}
        if role == "error-scaling":
            argv = ["analyze", "error-scaling", "--schedule", path]
            kind = "analyze/error-scaling"
        else:
            argv = ["verify", "--schedule", path]
            kind = "verify/matrix" if n <= 10 else "verify/probes"
        ops.append(Op(name, kind, argv, 1 if role.startswith("defect") else 0, facts))
    return Batch(ops, {"QSA_MAX_DENSE_QUBITS": None})


# -- lattice-anyon -----------------------------------------------------------------


def _twists(rng, rows, cols, count):
    anchor_rows = sorted(rng.sample(range(rows - 1), count))
    return [{"row": r, "col": rng.randrange(cols - 2)} for r in anchor_rows]


def _holes(rng, rows, cols):
    """One smooth (face) and one rough (vertex) hole that share no edge."""
    while True:
        a, b = rng.randrange(rows - 1), rng.randrange(cols - 1)
        c, d = rng.randrange(1, rows), rng.randrange(cols)
        if not (c in (a, a + 1) and d in (b, b + 1)):
            return [{"plaquettes": [[a, b]], "kind": "smooth"},
                    {"plaquettes": [[c, d]], "kind": "rough"}]


def _king_walk(rng, rows, cols, length):
    """A self-avoiding walk of king moves, restarted until it reaches length."""
    while True:
        site = (rng.randrange(rows), rng.randrange(cols))
        sites = [site]
        while len(sites) < length:
            i, j = sites[-1]
            steps = [(i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                     if (di, dj) != (0, 0) and 0 <= i + di < rows
                     and 0 <= j + dj < cols and (i + di, j + dj) not in sites]
            if not steps:
                break
            sites.append(rng.choice(steps))
        if len(sites) == length:
            return {"sites": [list(s) for s in sites],
                    "letters": "".join(rng.choice("XYZ") for _ in sites)}


# Closed-form term counts hold for these lattices; the cnot lattice is the
# two-hole layout whose braid loop encloses the rough hole.
CNOT_LATTICE = {"rows": 3, "cols": 4, "model": "kitaev_holes",
                "holes": [{"plaquettes": [[1, 0]], "kind": "smooth"},
                          {"plaquettes": [[1, 2]], "kind": "rough"}]}

LATTICE_SIZES = {
    "full": {"wen": 22, "periodic": 16, "twisted": 18, "kitaev": 12, "syndrome": 18,
             "walk": 30},
    "tiny": {"wen": 6, "periodic": 4, "twisted": 6, "kitaev": 5, "syndrome": 6,
             "walk": 8},
}


def _lattice_batch(rng, workdir, size):
    dims = LATTICE_SIZES[size]
    ops = []

    def add(name, kind, argv, files, facts):
        paths = {key: _write_json(workdir, f"{len(ops):02d}-{name}.{key}.json", obj)
                 for key, obj in files.items()}
        argv = [paths.get(a[1:], a) if a.startswith("@") else a for a in argv]
        ops.append(Op(f"{len(ops):02d}-{name}", kind, argv, 0, facts))

    # the first op of each kind is its warm-up, so the lightest build leads
    builds = [
        ("kitaev-holes", {"rows": dims["kitaev"], "cols": dims["kitaev"],
                          "model": "kitaev_holes",
                          "holes": _holes(rng, dims["kitaev"], dims["kitaev"])}),
        ("wen-twisted", {"rows": dims["twisted"], "cols": dims["twisted"],
                         "twists": _twists(rng, dims["twisted"], dims["twisted"], 3)}),
        ("wen-periodic", {"rows": dims["periodic"], "cols": dims["periodic"],
                          "boundary": "periodic"}),
        ("wen-open", {"rows": dims["wen"], "cols": dims["wen"]}),
    ]
    for name, spec in builds:
        add(f"build-{name}", "toric/build", ["toric", "build", "--spec", "@spec"],
            {"spec": spec}, {"spec": spec})
    for boundary in ("open", "periodic"):
        spec = {"rows": 4, "cols": 4, "boundary": boundary}
        add(f"ground-{boundary}", "toric/ground", ["toric", "ground", "--spec", "@spec"],
            {"spec": spec}, {"spec": spec})
    tau = round(rng.uniform(0.1, 1.2), 6)
    spec = {"rows": 3, "cols": 3}
    add("digital-3x3", "toric/digital",
        ["toric", "digital", "--spec", "@spec", "--tau", repr(tau)],
        {"spec": spec}, {"spec": spec, "tau": tau})
    side = dims["syndrome"]
    spec = {"rows": side, "cols": side}
    walk = _king_walk(rng, side, side, dims["walk"])
    add("syndrome", "anyon/syndrome",
        ["anyon", "syndrome", "--spec", "@spec", "--path", "@path"],
        {"spec": spec, "path": walk}, {"spec": spec, "path": walk})
    spec = {"rows": 4, "cols": 4, "boundary": "periodic"}
    center = rng.choice([[i, j] for i in range(4) for j in range(4) if (i + j) % 2 == 0])
    add("braid", "anyon/braid", ["anyon", "braid", "--spec", "@spec", "--path", "@path"],
        {"spec": spec, "path": {"center": center}}, {"spec": spec, "center": center})
    amplitudes = [[round(rng.gauss(0, 1), 6), round(rng.gauss(0, 1), 6)] for _ in range(4)]
    add("memory", "anyon/memory", ["anyon", "memory", "--spec", "@spec", "--path", "@path"],
        {"spec": spec, "path": {"amplitudes": amplitudes}},
        {"spec": spec, "amplitudes": amplitudes})
    theta = round(rng.uniform(0.0, 2 * math.pi), 6)
    hole = rng.randrange(2)
    add("magic", "anyon/magic", ["anyon", "magic", "--spec", "@spec", "--path", "@path"],
        {"spec": CNOT_LATTICE, "path": {"theta": theta, "hole": hole}},
        {"spec": CNOT_LATTICE, "theta": theta})
    add("cnot", "anyon/cnot", ["anyon", "cnot", "--spec", "@spec"],
        {"spec": CNOT_LATTICE}, {"spec": CNOT_LATTICE})
    tau = round(rng.uniform(0.1, 1.2), 6)
    spec = {"rows": 3, "cols": 3}
    add("error-scaling-3x3", "analyze/error-scaling",
        ["analyze", "error-scaling", "--digital", "@spec", "--tau", repr(tau)],
        {"spec": spec}, {"spec": spec, "tau": tau})
    return Batch(ops, {"QSA_MAX_DENSE_QUBITS": "16"})


def make_batch(workload: str, seed: int, workdir: str, size: str = "full") -> Batch:
    """Write the inputs of one workload into ``workdir`` and describe them."""
    rng = random.Random(f"{workload}/{seed}")
    build = {
        "compile-symbolic": _compile_batch,
        "verify-dense": _verify_batch,
        "lattice-anyon": _lattice_batch,
    }[workload]
    return build(rng, workdir, size)
