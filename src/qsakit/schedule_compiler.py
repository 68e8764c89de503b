"""Compile N-body Pauli targets into layered attachment/swapper schedules.

A schedule grows a two-site seed string into the target's support with layers
of simultaneous attachments (pairwise site-disjoint within a layer, so they
commute), then fixes every site's letter with at most one swapper per site.
The growth bookkeeping is purely symbolic: each attachment toggles the
connector letter between the canonical pair (X/Z here) and writes X onto the
fresh site, so the final letters are a deterministic function of how often a
site served as connector.

Strategies:

* ``doubling`` -- every grown site tries to attach a fresh neighbor each
  layer (connectors ascending, each claiming its lowest unclaimed fresh
  neighbor); seed edges are tried in ascending order and the first one that
  reaches the target support in ``ceil(log2 N) - 1`` layers is taken, else
  the graph does not admit doubling.
* ``line_endpoints`` -- seed in the middle of a Hamiltonian path of the
  support, grow both endpoints outward: ``ceil(N/2) - 1`` layers.  The path
  search gives up after :data:`PATH_SEARCH_BUDGET` partial paths, which
  makes the strategy infeasible like a support with no path.
* ``single_endpoint`` -- seed at one end of the path, grow one site per
  layer: ``N - 2`` layers.
* ``greedy`` -- the doubling growth rule from the lowest-index seed edge,
  with whatever depth results (always succeeds on a connected support).
* ``auto`` -- ``doubling`` if the graph admits it, else ``line_endpoints``
  if the support has a Hamiltonian path, else ``greedy``.  (``single_endpoint``
  needs the same path and is never shallower, so ``auto`` never picks it.)
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii as _json_str

from .pauli_core import PauliString, WeightedPauliSum, float_field, index_field, pair_entries
from .propagator_engine import (
    AttachmentSpec,
    CollapseError,
    PulseSpecError,
    SwapperSpec,
    apply_swap,
    branch_conjugate,
)

STRATEGIES = ("doubling", "line_endpoints", "single_endpoint", "greedy", "auto")

#: Canonical letter pair used during growth: a connector toggles X <-> Z.
GROW_ALPHA = "Z"
GROW_BETA = "X"
ATTACHED_LETTER = "X"

#: Most partial paths the Hamiltonian-path search extends before it gives up
#: with :class:`StrategyInfeasibleError`.  The largest count on the test
#: suite's inputs is 4,556 (the golden ``sparse14`` graph) and 128 on the
#: benchmark's (seeds 1-3); three 4-cliques joined to two hubs need 62,867
#: to find their path.  Supports that pass every guard yet have no path, such
#: as four k-cliques joined to two hubs, would otherwise search for seconds
#: to hours.  About 1e6 nodes a second in pure Python: 0.1 s.
PATH_SEARCH_BUDGET = 100_000


class CompileError(ValueError):
    """Base class for compilation failures."""


class UnsupportedTargetError(CompileError):
    """Target cannot be scheduled (too small, or phase not +1)."""


class DisconnectedSupportError(CompileError):
    """Target support is not connected in the given graph."""


class StrategyInfeasibleError(CompileError):
    """The requested strategy is not admitted by the graph."""


class ReplayFaultError(RuntimeError):
    """A planned schedule did not replay to its target or broke a shape rule of
    :func:`validate`: a compiler fault, not bad input."""


class LetterFaultError(CollapseError):
    """A replayed pulse meets a letter its spec does not act on, or a grown attached site."""


@dataclass(frozen=True)
class ConnectivityGraph:
    """Undirected hardware graph on ``n_sites`` vertices.

    ``edges`` may be any iterable of vertex pairs in either order; it is
    stored as a frozenset of ``(a, b)`` with ``a < b``.  A self-loop or a
    vertex outside ``range(n_sites)`` raises ``ValueError``.
    """

    n_sites: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be positive, got {self.n_sites}")
        normalized = set()
        for a, b in self.edges:
            a, b = index_field(a, "edges"), index_field(b, "edges")
            if a == b:
                raise ValueError("self-loop in edge list")
            if a > b:
                a, b = b, a
            if a < 0 or b >= self.n_sites:
                raise ValueError(f"bad edge ({a}, {b}) for {self.n_sites} sites")
            normalized.add((a, b))
        object.__setattr__(self, "edges", frozenset(normalized))

    @classmethod
    def from_edges(cls, n_sites: int, edges) -> "ConnectivityGraph":
        return cls(n_sites, edges)

    @classmethod
    def complete(cls, n_sites: int) -> "ConnectivityGraph":
        return cls.from_edges(n_sites, itertools.combinations(range(n_sites), 2))

    @classmethod
    def path(cls, n_sites: int) -> "ConnectivityGraph":
        return cls.from_edges(n_sites, [(i, i + 1) for i in range(n_sites - 1)])

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    @classmethod
    def from_dict(cls, data: dict) -> "ConnectivityGraph":
        n_sites = index_field(data["n_sites"], "n_sites")
        # each edge is checked for two entries here, and its entries are read once, on construction
        return cls.from_edges(n_sites, (pair_entries(e, "edges") for e in data["edges"]))


@dataclass(frozen=True)
class QsaSchedule:
    """A compiled pulse schedule.

    Attributes:
        n_sites: Register width.
        seed: Two-site Pauli string whose propagator ``exp(-i tg seed)`` the
            schedule conjugates.
        tg: Seed rotation angle (the only tunable knob of the whole schedule).
        layers: Attachment layers, innermost first.
        final_swappers: Letter-fixing swappers (disjoint sites), conjugating
            the whole grown propagator as the outermost sandwich.
        target: The N-body string the schedule realizes.
    """

    n_sites: int
    seed: PauliString
    tg: float
    layers: tuple[tuple[AttachmentSpec, ...], ...]
    final_swappers: tuple[SwapperSpec, ...]
    target: PauliString

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def n_attachments(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def pulses(self) -> list[tuple[WeightedPauliSum, float]]:
        """The schedule as a pulse program ``(generator, angle)``, first applied first.

        Time order: inverse swappers, inverse attachment pulses (outermost
        layer first), the seed at :attr:`tg`, forward attachment pulses
        (innermost layer first), forward swappers.  Each attachment or
        swapper pulse is its spec's generator at the spec's inverse or
        forward branch angle.  A program at another seed angle is that of
        ``dataclasses.replace(schedule, tg=...)``.
        """
        n = self.n_sites
        swappers = list(self.final_swappers)
        inverse = swappers + [spec for layer in reversed(self.layers) for spec in layer]
        forward = [spec for layer in self.layers for spec in layer] + swappers
        return [
            *[(spec.generator(n), spec.inverse_angle) for spec in inverse],
            (WeightedPauliSum.from_string(self.seed), self.tg),
            *[(spec.generator(n), spec.forward_angle) for spec in forward],
        ]

    def to_dict(self) -> dict:
        return {
            "n_sites": self.n_sites,
            "seed": {"string": self.seed.format(), "tg": self.tg},
            "layers": [
                [spec.to_dict() for spec in layer] for layer in self.layers
            ],
            "final_swappers": [spec.to_dict() for spec in self.final_swappers],
            "target": self.target.format(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QsaSchedule":
        n_sites = index_field(data["n_sites"], "n_sites")
        seed = PauliString.parse(data["seed"]["string"], n_sites)
        tg = float_field(data["seed"]["tg"], "seed.tg")
        layers = tuple(
            tuple(AttachmentSpec.from_dict(d) for d in layer)
            for layer in data["layers"]
        )
        swappers = tuple(
            SwapperSpec.from_dict(d) for d in data.get("final_swappers", [])
        )
        target = PauliString.parse(data["target"], n_sites)
        return cls(n_sites, seed, tg, layers, swappers, target)

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2)``, written out directly.

        CPython's C encoder runs only without ``indent``, so this spells out
        the fixed layout: integers by ``repr``, strings and the float ``tg``
        through json's own C encoders.  Tests pin the text byte for byte
        against ``json.dumps``.
        """
        layers = [
            "    " + _json_list([_attachment_json(spec) for spec in layer], "    ")
            for layer in self.layers
        ]
        swappers = [_swapper_json(spec) for spec in self.final_swappers]
        return (
            "{\n"
            f'  "n_sites": {self.n_sites},\n'
            '  "seed": {\n'
            f'    "string": {_json_str(self.seed.format())},\n'
            f'    "tg": {json.dumps(self.tg)}\n'
            "  },\n"
            f'  "layers": {_json_list(layers, "  ")},\n'
            f'  "final_swappers": {_json_list(swappers, "  ")},\n'
            f'  "target": {_json_str(self.target.format())}\n'
            "}"
        )

    @classmethod
    def from_json(cls, text: str) -> "QsaSchedule":
        return cls.from_dict(json.loads(text))


def _json_list(items: list[str], indent: str) -> str:
    """Written, indented ``items`` as an ``indent=2`` JSON list closing at ``indent``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _attachment_json(spec: AttachmentSpec) -> str:
    """``spec.to_dict()`` in the ``indent=2`` layout, as an item of a layer."""
    return (
        "      {\n"
        f'        "connector_site": {spec.connector_site},\n'
        f'        "alpha": {_json_str(spec.alpha)},\n'
        f'        "beta": {_json_str(spec.beta)},\n'
        f'        "attached_site": {spec.attached_site},\n'
        f'        "attached_letter": {_json_str(spec.attached_letter)},\n'
        f'        "branch_m": {spec.branch_m},\n'
        f'        "branch_mp": {spec.branch_mp}\n'
        "      }"
    )


def _swapper_json(spec: SwapperSpec) -> str:
    """``spec.to_dict()`` in the ``indent=2`` layout, as an item of ``final_swappers``."""
    return (
        "    {\n"
        f'      "site": {spec.site},\n'
        f'      "alpha": {_json_str(spec.alpha)},\n'
        f'      "beta": {_json_str(spec.beta)},\n'
        f'      "branch_m": {spec.branch_m},\n'
        f'      "branch_mp": {spec.branch_mp}\n'
        "    }"
    )


def depth_bound(n_support: int, strategy: str) -> int:
    """Exact layer count of each strategy on an admitting graph."""
    if n_support < 2:
        raise ValueError("depth bounds are defined for supports of >= 2 sites")
    if strategy == "doubling":
        return (n_support - 1).bit_length() - 1
    if strategy == "line_endpoints":
        return (n_support + 1) // 2 - 1
    if strategy == "single_endpoint":
        return n_support - 2
    raise ValueError(f"no depth bound for strategy {strategy!r}")


# -- growth planning (site indices only) ------------------------------------


def _support_graph(support: tuple[int, ...], graph: ConnectivityGraph | None):
    """The ascending neighbour tuple of each (ascending) support site.

    ``None`` couples every pair of support sites.  A graph is scanned once
    for the edges inside the support, and a support it leaves disconnected
    raises :class:`DisconnectedSupportError`.
    """
    if graph is None:
        return {s: tuple(x for x in support if x != s) for s in support}
    adj: dict[int, list[int]] = {s: [] for s in support}
    for a, b in graph.edges:
        if a in adj and b in adj:
            adj[a].append(b)
            adj[b].append(a)
    reached = {support[0]}
    stack = [support[0]]
    while stack:
        for x in adj[stack.pop()]:
            if x not in reached:
                reached.add(x)
                stack.append(x)
    if len(reached) != len(support):
        raise DisconnectedSupportError(
            f"target support {support} is not connected in the graph"
        )
    return {s: tuple(sorted(xs)) for s, xs in adj.items()}


def _grow_from_seed(seed: tuple[int, int], support_set: set, adj):
    """Greedy maximal growth: layers of (connector, attached) site pairs.

    On a connected support some grown site always borders a fresh one, so
    every layer is non-empty and the growth always reaches the support.
    """
    grown = set(seed)
    layers: list[list[tuple[int, int]]] = []
    while grown != support_set:
        fresh = support_set - grown
        layer: list[tuple[int, int]] = []
        claimed: set[int] = set()
        for connector in sorted(grown):
            candidates = [
                x for x in adj[connector] if x in fresh and x not in claimed
            ]
            if candidates:
                attached = min(candidates)
                layer.append((connector, attached))
                claimed.add(attached)
        layers.append(layer)
        grown |= claimed
    return layers


def _plan_growth(support, adj, max_depth: int | None = None):
    """The first seed edge, ascending, whose growth needs at most ``max_depth`` layers.

    ``greedy`` takes the first seed edge (``max_depth=None``).  ``doubling``
    passes its depth bound, which is a lower bound on every seed's growth
    (a layer at most doubles the grown sites), so the first seed reaching it
    is also the shallowest.
    """
    support_set = set(support)
    # support and neighbour tuples ascend, so the seeds come in ascending order
    for seed in ((a, b) for a in support for b in adj[a] if a < b):
        layers = _grow_from_seed(seed, support_set, adj)
        if max_depth is None or len(layers) <= max_depth:
            return seed, layers
    raise StrategyInfeasibleError(
        f"graph does not admit doubling: no seed edge reaches depth {max_depth}"
    )


def _path_possible(support, adj) -> bool:
    """False when a linear-time necessary condition rules a Hamiltonian path out.

    On a connected support, one depth-first search (Tarjan's low-links)
    counts, for every vertex, the pieces its removal leaves: a child subtree
    whose low-link does not climb above the vertex is cut off, and a
    non-root vertex also keeps the piece holding its parent.  Removing one
    vertex splits a path into at most two pieces.  The same search
    two-colours the support: a path alternates sides, so a bipartite support
    whose sides differ by more than one has none.
    """
    root = support[0]
    order = {root: 0}  # discovery index
    low = {root: 0}
    side = {root: 0}
    pieces = dict.fromkeys(support, 1)  # the piece holding the parent
    pieces[root] = 0
    bipartite = True
    stack = [(root, iter(adj[root]))]
    while stack:
        v, neighbours = stack[-1]
        for w in neighbours:
            if w not in order:
                order[w] = low[w] = len(order)
                side[w] = 1 - side[v]
                stack.append((w, iter(adj[w])))
                break
            low[v] = min(low[v], order[w])
            bipartite = bipartite and side[w] != side[v]
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[v])
                if low[v] >= order[parent]:
                    pieces[parent] += 1
    if any(count > 2 for count in pieces.values()):
        return False
    ones = sum(side.values())
    return not bipartite or abs(len(support) - 2 * ones) <= 1


def _hamiltonian_path(support, adj):
    """A deterministic Hamiltonian path of the support, or None.

    The ascending-index order is preferred when it happens to be a path;
    otherwise a backtracking search (neighbors ascending, endpoints tried by
    ascending degree then index) finds one.  Necessary conditions rule a
    path out before the (exponential) search starts: a vertex of degree <= 1
    can only be an endpoint, so at most two such vertices exist; and
    :func:`_path_possible` checks cut vertices and bipartite balance.

    Raises:
        StrategyInfeasibleError: the search extended :data:`PATH_SEARCH_BUDGET`
            partial paths without deciding.
    """
    ordered = list(support)
    if all(ordered[i + 1] in adj[ordered[i]] for i in range(len(ordered) - 1)):
        return ordered
    if sum(1 for s in support if len(adj[s]) <= 1) > 2:
        return None
    if not _path_possible(support, adj):
        return None

    n = len(support)
    starts = sorted(support, key=lambda s: (len(adj[s]), s))
    budget = PATH_SEARCH_BUDGET

    def extend(path: list[int], used: set) -> list[int] | None:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise StrategyInfeasibleError(
                f"Hamiltonian-path search gave up after {PATH_SEARCH_BUDGET} nodes"
            )
        if len(path) == n:
            return path
        for nxt in adj[path[-1]]:
            if nxt not in used:
                used.add(nxt)
                path.append(nxt)
                found = extend(path, used)
                if found is not None:
                    return found
                path.pop()
                used.remove(nxt)
        return None

    for start in starts:
        found = extend([start], {start})
        if found is not None:
            return found
    return None


def _plan(strategy, support, adj):
    """(seed pair, layers of (connector, attached) pairs) for one strategy."""
    if strategy == "doubling":
        return _plan_growth(support, adj, depth_bound(len(support), "doubling"))
    if strategy == "greedy":
        return _plan_growth(support, adj)
    order = _hamiltonian_path(support, adj)
    if order is None:
        raise StrategyInfeasibleError("support has no Hamiltonian path in graph")
    if strategy == "single_endpoint":
        seed = (order[0], order[1])
        return seed, [[(order[i], order[i + 1])] for i in range(1, len(order) - 1)]
    # line_endpoints: seed in the middle, both ends grow outward each layer
    k = (len(order) - 2) // 2
    seed = (order[k], order[k + 1])
    layers = []
    for r in range(1, len(order) - k - 1):
        left = [(order[k - r + 1], order[k - r])] if r <= k else []
        layers.append(left + [(order[k + r], order[k + 1 + r])])
    return seed, layers


# -- compilation -------------------------------------------------------------


def compile_schedule(
    target: PauliString,
    graph: ConnectivityGraph | None = None,
    strategy: str = "auto",
    tg: float = 1.0,
) -> QsaSchedule:
    """Compile ``exp(-i tg target)`` into an attachment/swapper schedule.

    Args:
        target: N-body Pauli string with phase +1 and at least two
            non-identity letters.
        graph: Hardware connectivity; every attachment must run on an edge.
            ``None`` couples every pair of support sites.
        strategy: One of ``doubling``, ``line_endpoints``, ``single_endpoint``,
            ``greedy``, ``auto``.
        tg: Seed rotation angle stored in the schedule.

    Raises:
        UnsupportedTargetError: Single-site/identity target, width mismatch,
            or target phase differing from +1 (the replay identity only
            reproduces +1-phase strings).
        DisconnectedSupportError: Support not connected inside the graph.
        StrategyInfeasibleError: Explicit strategy not admitted by the graph.
        ReplayFaultError: The planned schedule did not replay to the target,
            grew a site its swappers cannot fix, or broke a shape rule of
            :func:`validate` (a fault of the compiler, not of its input).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected {STRATEGIES}")
    if graph is not None and target.n_sites != graph.n_sites:
        raise UnsupportedTargetError(
            f"target on {target.n_sites} sites, graph on {graph.n_sites}"
        )
    if target.phase_exp != 0:
        raise UnsupportedTargetError(
            f"target phase must be +1, got {target.format()!r}"
        )
    support = target.support
    if len(support) < 2:
        raise UnsupportedTargetError(
            f"target must act on at least two sites, got {target.format()!r}"
        )
    adj = _support_graph(support, graph)

    if strategy == "auto":
        for candidate in ("doubling", "line_endpoints"):
            try:
                plan = _plan(candidate, support, adj)
                break
            except StrategyInfeasibleError:
                continue
        else:
            plan = _plan("greedy", support, adj)
    else:
        plan = _plan(strategy, support, adj)
    schedule = _materialize(target, *plan, tg)
    violations = _shape_violations(schedule, graph)
    if violations:
        raise ReplayFaultError(f"internal schedule fault: {'; '.join(violations)}")
    return schedule


def _materialize(
    target: PauliString,
    seed_pair: tuple[int, int],
    layer_pairs,
    tg: float,
) -> QsaSchedule:
    """Turn a growth plan into specs, replay it, and emit swappers off the replay.

    The attachment layers are replayed once; every grown site whose replayed
    letter differs from the target's gets a swapper, and the swapped string
    must be the target.
    """
    n = target.n_sites
    layers = tuple(
        tuple(
            AttachmentSpec(
                connector_site=connector,
                alpha=GROW_ALPHA,
                beta=GROW_BETA,
                attached_site=attached,
                attached_letter=ATTACHED_LETTER,
            )
            for connector, attached in pairs
        )
        for pairs in layer_pairs
    )
    seed = PauliString.from_sites(n, {seed_pair[0]: "X", seed_pair[1]: "X"})
    schedule = QsaSchedule(n, seed, tg, layers, (), target)
    try:
        grown = replay_symbolic(schedule)
        swappers = tuple(
            SwapperSpec(site=site, alpha=grown.letter(site), beta=target.letter(site))
            for site in grown.support
            if grown.letter(site) != target.letter(site)
        )
        for spec in swappers:
            grown = apply_swap(grown, spec)
    except CollapseError as exc:
        raise ReplayFaultError(f"internal replay collapse: {exc}") from exc
    except PulseSpecError as exc:
        raise ReplayFaultError(f"internal swapper fault: {exc}") from exc
    if grown != target:
        raise ReplayFaultError(
            f"internal replay mismatch: grew {grown.format()}, "
            f"wanted {target.format()}"
        )
    return replace(schedule, final_swappers=swappers)


def replay_symbolic(schedule: QsaSchedule) -> PauliString:
    """Push the seed string through every pulse, exactly.

    Attachment layers act innermost-first, the swapper sandwich last.  Each
    pulse sits at a branch angle, so it maps a string to a string of sign
    ``+-1``, by the exact rule of
    :func:`~qsakit.propagator_engine.branch_conjugate`.  Each attachment must
    meet its connector carrying the spec's alpha or beta and a fresh attached
    site, and each swapper its site carrying alpha or beta
    (:class:`LetterFaultError` otherwise); after every attachment the string
    must have sign ``+1`` (``CollapseError`` otherwise).  A swapper's sign
    stays in the returned string's phase.
    """
    n = schedule.n_sites
    q = schedule.seed
    # each pulse runs before its letters are read, so a register or site
    # fault keeps the text of branch_conjugate or apply_swap
    for idx, layer in enumerate(schedule.layers, start=1):
        for spec in layer:
            grown = branch_conjugate(q, *spec.pair(n))
            carried = q.letter(spec.connector_site)
            if carried == "I":
                raise LetterFaultError(
                    f"layer {idx}: connector {spec.connector_site} not in grown support"
                )
            if carried not in (spec.alpha, spec.beta):
                raise LetterFaultError(
                    f"layer {idx}: connector {spec.connector_site} carries "
                    f"{carried!r}, spec expects {spec.alpha}/{spec.beta}"
                )
            if q.letter(spec.attached_site) != "I":
                raise LetterFaultError(
                    f"layer {idx}: attached site {spec.attached_site} is not fresh"
                )
            if grown.phase_exp:
                raise CollapseError(
                    f"attachment ({spec.connector_site}, {spec.attached_site}) "
                    f"gives {grown.format()}: coefficient -1, not +1"
                )
            q = grown
    for spec in schedule.final_swappers:
        swapped = apply_swap(q, spec)
        carried = q.letter(spec.site)
        if carried == "I":
            raise LetterFaultError(f"swapper on site {spec.site} outside grown support")
        if carried not in (spec.alpha, spec.beta):
            raise LetterFaultError(
                f"swapper on site {spec.site} expects {spec.alpha}/{spec.beta}, "
                f"string carries {carried!r}"
            )
        q = swapped
    return q


_WIDTH_FAULT = "seed/target register width differs from n_sites"


def _shape_violations(schedule: QsaSchedule, graph: ConnectivityGraph | None) -> list[str]:
    """The rules of :func:`validate` that read no letter: widths, phases, disjointness, edges."""
    n = schedule.n_sites
    if schedule.seed.n_sites != n or schedule.target.n_sites != n:
        return [_WIDTH_FAULT]
    violations: list[str] = []
    if schedule.seed.weight != 2:
        violations.append(f"seed must act on exactly 2 sites, acts on {schedule.seed.weight}")
    if schedule.seed.phase_exp != 0:
        violations.append("seed phase must be +1")
    if schedule.target.phase_exp != 0:
        violations.append("target phase must be +1")

    if graph is not None and schedule.seed.weight == 2:
        a, b = schedule.seed.support
        if not graph.has_edge(a, b):
            violations.append(f"seed pair ({a}, {b}) is not a graph edge")

    for idx, layer in enumerate(schedule.layers, start=1):
        engaged: set[int] = set()
        for spec in layer:
            pair = {spec.connector_site, spec.attached_site}
            if pair & engaged:
                violations.append(
                    f"layer {idx}: attachments share sites {sorted(pair & engaged)}"
                )
            engaged |= pair
            if graph is not None and not graph.has_edge(
                spec.connector_site, spec.attached_site
            ):
                violations.append(
                    f"layer {idx}: ({spec.connector_site}, {spec.attached_site}) "
                    f"is not a graph edge"
                )

    swap_sites = [spec.site for spec in schedule.final_swappers]
    if len(swap_sites) != len(set(swap_sites)):
        violations.append("final swapper layer touches a site twice")
    return violations


def validate(
    schedule: QsaSchedule, graph: ConnectivityGraph | None = None
) -> list[str]:
    """Shape rules plus the exact replay; returns a list of violations (empty = ok).

    The shape rules read no letter: register width, seed weight and phase,
    target phase, site-disjoint layers and swappers, and edges (when a graph
    is supplied).  Then :func:`replay_symbolic` runs once and its first fault
    is reported: a connector or swapper letter, a stale attached site, a
    collapse, a bad spec, or a register or site fault (``replay failed:
    ...``), or a grown string that is not the target (``replay mismatch``).
    Every fault the replay blames on the schedule is a ``ValueError``; any
    other exception is a fault of the program and is not caught.
    """
    violations = _shape_violations(schedule, graph)
    if _WIDTH_FAULT in violations:
        return violations  # the replay needs one register
    try:
        replayed = replay_symbolic(schedule)
    except LetterFaultError as exc:
        return violations + [str(exc)]
    except ValueError as exc:  # CollapseError, PulseSpecError, register or site
        return violations + [f"replay failed: {exc}"]
    if replayed != schedule.target:
        violations.append(
            f"replay mismatch: got {replayed.format()}, "
            f"target {schedule.target.format()}"
        )
    return violations
