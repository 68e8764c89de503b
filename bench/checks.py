"""Checks of qsakit outputs that do not trust the program's own verdicts.

Nothing here imports qsakit. Schedules are read as plain JSON, the paper's
letter rule is re-implemented from its statement, dense references are built
from 2x2 Pauli matrices with ``numpy.kron`` and ``scipy.linalg.expm``, and
lattice term counts come from closed forms. Every check returns a list of
error strings; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

SIGMA = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

# Growth letters of the paper's construction: the seed is X X, an attachment
# toggles its connector between X and Z and writes X onto the fresh site.
GROWTH_TOGGLE = {"X": "Z", "Z": "X"}


def _complex(value) -> complex:
    return complex(value[0], value[1]) if isinstance(value, list) else complex(value)


def _report_errors(report: dict, rc: int, expect_rc: int, check_names=()) -> list:
    errors = []
    if rc != expect_rc:
        errors.append(f"exit code {rc}, expected {expect_rc}")
    status = {0: "pass", 1: "fail"}.get(expect_rc)
    if report.get("status") != status:
        errors.append(f"status {report.get('status')!r}, expected {status!r}")
    passed = {c["name"]: c["passed"] for c in report.get("checks", [])}
    for name in check_names:
        if passed.get(name) is not True:
            errors.append(f"report check {name!r} missing or failed")
    return errors


# -- schedules -----------------------------------------------------------------


def track_letters(schedule: dict):
    """Replay the paper's letter rule over a schedule dict.

    Returns ``(grown, final, errors)``: the letter each site carries after the
    attachment layers, after the final swappers, and any rule violation.
    """
    errors = []
    seed = schedule["seed"]["string"]
    grown = {s: x for s, x in enumerate(seed) if x != "I"}
    if sorted(grown.values()) != ["X", "X"]:
        errors.append(f"seed {seed!r} is not X X")
    for depth, layer in enumerate(schedule["layers"], start=1):
        for spec in layer:
            c, a = spec["connector_site"], spec["attached_site"]
            if (spec["alpha"], spec["beta"], spec["attached_letter"]) != ("Z", "X", "X"):
                errors.append(f"layer {depth}: attachment {c}->{a} is not the X/Z growth pulse")
            if grown.get(c) not in GROWTH_TOGGLE:
                errors.append(f"layer {depth}: connector {c} carries {grown.get(c)!r}")
            else:
                grown[c] = GROWTH_TOGGLE[grown[c]]
            grown[a] = "X"
    final = dict(grown)
    for spec in schedule["final_swappers"]:
        site, pair = spec["site"], (spec["alpha"], spec["beta"])
        if final.get(site) not in pair:
            errors.append(f"swapper {pair} on site {site} meets {final.get(site)!r}")
        else:
            final[site] = pair[1] if final[site] == pair[0] else pair[0]
    return grown, final, errors


def schedule_size(schedule: dict) -> tuple[int, int]:
    """(pulse count, attachment depth) of a schedule dict."""
    attachments = sum(len(layer) for layer in schedule["layers"])
    return 2 * attachments + 1 + 2 * len(schedule["final_swappers"]), len(schedule["layers"])


def check_compile(facts: dict, rc: int, report: dict, schedule: dict) -> list:
    """A ``compile --out`` report and its schedule against the request."""
    errors = _report_errors(report, rc, 0, ("validator-clean", "artifact-round-trip"))
    metrics = report.get("metrics", {})
    if "dense_distance" in metrics or "dense_verification" not in metrics:
        errors.append("dense verification ran above the dense limit")
    target = facts["target"]
    if schedule.get("target") != target:
        errors.append(f"schedule target {schedule.get('target')!r} != requested {target!r}")
    if schedule.get("n_sites") != len(target) or schedule["seed"].get("tg") != facts["tg"]:
        errors.append("register width or seed angle differs from the request")
    edges = {tuple(sorted(e)) for e in facts["edges"]}
    seed_sites = tuple(s for s, x in enumerate(schedule["seed"]["string"]) if x != "I")
    if seed_sites not in edges:
        errors.append(f"seed sites {seed_sites} are not a graph edge")
    grown = set(seed_sites)
    n_attach = 0
    for depth, layer in enumerate(schedule["layers"], start=1):
        engaged = set()
        for spec in layer:
            c, a = spec["connector_site"], spec["attached_site"]
            n_attach += 1
            if (min(c, a), max(c, a)) not in edges:
                errors.append(f"layer {depth}: ({c}, {a}) is not a graph edge")
            if {c, a} & engaged:
                errors.append(f"layer {depth}: sites {c}, {a} used twice in the layer")
            engaged |= {c, a}
            if c not in grown:
                errors.append(f"layer {depth}: connector {c} not grown yet")
            if a in grown:
                errors.append(f"layer {depth}: attached site {a} is not fresh")
        grown |= {spec["attached_site"] for spec in layer}
    support = set(facts["support"])
    if grown != support:
        errors.append("grown sites differ from the target support")
    if n_attach != len(support) - 2:
        errors.append(f"{n_attach} attachments, expected |support| - 2 = {len(support) - 2}")
    depth = len(schedule["layers"])
    if facts["depth"] is not None and depth != facts["depth"]:
        errors.append(f"depth {depth} != {facts['depth']} for {facts['strategy']}")
    if not (math.ceil(math.log2(len(support))) - 1 <= depth <= len(support) - 2):
        errors.append(f"depth {depth} outside [doubling bound, N - 2]")
    if metrics.get("depth") != depth or metrics.get("target") != target:
        errors.append("report metrics disagree with the written schedule")
    _, final, rule_errors = track_letters(schedule)
    errors += rule_errors
    tracked = "".join(final.get(s, "I") for s in range(len(target)))
    if tracked != target:
        errors.append(f"letter tracking gives {tracked}, target {target}")
    return errors


def _site_matrix(n: int, letters: dict) -> np.ndarray:
    m = np.ones((1, 1), dtype=np.complex128)
    for site in range(n):
        m = np.kron(m, SIGMA[letters.get(site, "I")])
    return m


def _pulse_list(schedule: dict):
    """(generator matrix, angle) pairs in time order, built from the JSON."""
    n = schedule["n_sites"]
    r2 = 1 / math.sqrt(2)

    def attachment(spec):
        c, a = spec["connector_site"], spec["attached_site"]
        return r2 * (_site_matrix(n, {c: spec["alpha"]})
                     + _site_matrix(n, {c: spec["beta"], a: spec["attached_letter"]}))

    def swapper(spec):
        s = spec["site"]
        return r2 * (_site_matrix(n, {s: spec["alpha"]}) + _site_matrix(n, {s: spec["beta"]}))

    def inverse(spec):
        return math.pi / 2 + 2 * math.pi * spec.get("branch_mp", 0)

    def forward(spec):
        return 3 * math.pi / 2 + 2 * math.pi * spec.get("branch_m", -1)

    swappers = schedule["final_swappers"]
    layers = schedule["layers"]
    seed = {s: x for s, x in enumerate(schedule["seed"]["string"]) if x != "I"}
    pulses = [(swapper(s), inverse(s)) for s in swappers]
    pulses += [(attachment(s), inverse(s)) for layer in reversed(layers) for s in layer]
    pulses.append((_site_matrix(n, seed), schedule["seed"]["tg"]))
    pulses += [(attachment(s), forward(s)) for layer in layers for s in layer]
    pulses += [(swapper(s), forward(s)) for s in swappers]
    return pulses


def kron_schedule_distance(schedule: dict) -> float:
    """Spectral distance between the kron/expm pulse product and exp(-i tg P)."""
    n = schedule["n_sites"]
    product = np.eye(1 << n, dtype=np.complex128)
    for generator, angle in _pulse_list(schedule):
        product = scipy.linalg.expm(-1j * angle * generator) @ product
    target = {s: x for s, x in enumerate(schedule["target"]) if x != "I"}
    ideal = scipy.linalg.expm(-1j * schedule["seed"]["tg"] * _site_matrix(n, target))
    return float(np.linalg.norm(product - ideal, 2))


def check_verify(facts: dict, rc: int, report: dict) -> list:
    """A ``verify --schedule`` report: sound schedules pass, defects fail."""
    if facts["role"].startswith("defect"):
        return _report_errors(report, rc, 1)
    errors = _report_errors(report, rc, 0, ("validator-clean", "dense-identity"))
    metrics = report.get("metrics", {})
    n = facts["schedule"]["n_sites"]
    want = "spectral_distance" if n <= 10 else "max_state_l2"
    if not str(metrics.get("dense_metric", "")).startswith(want):
        errors.append(f"dense metric {metrics.get('dense_metric')!r}, expected {want}")
    distance = metrics.get("dense_distance")
    if not isinstance(distance, float) or not 0.0 <= distance <= 1e-10:
        errors.append(f"dense distance {distance!r} above 1e-10")
    if metrics.get("target") != facts["target"]:
        errors.append("report target differs from the schedule file")
    return errors


def check_slope(rc: int, report: dict) -> list:
    """An ``analyze error-scaling`` report: the refitted slope is first order."""
    errors = _report_errors(report, rc, 0, ("slope-first-order",))
    metrics = report.get("metrics", {})
    deltas, dists = metrics.get("deltas", []), metrics.get("distances", [])
    if len(deltas) < 2 or len(deltas) != len(dists) or min(dists, default=0) <= 0:
        return errors + ["error-scaling report lacks positive distances"]
    slope = float(np.polyfit(np.log(deltas), np.log(dists), 1)[0])
    if not 0.9 <= slope <= 1.1:
        errors.append(f"refitted slope {slope:.4f} outside [0.9, 1.1]")
    if abs(slope - metrics.get("slope", math.inf)) > 1e-6:
        errors.append(f"reported slope {metrics.get('slope')} != refit {slope}")
    return errors


# -- lattices -------------------------------------------------------------------


def _parities(lo: int, hi: int) -> tuple[int, int]:
    """(even, odd) integer counts in [lo, hi)."""
    even = (hi + 1) // 2 - (lo + 1) // 2
    return even, hi - lo - even


def expected_groups(spec: dict) -> dict:
    """Closed-form number of driven terms per digital group."""
    r, c = spec["rows"], spec["cols"]
    periodic = spec.get("boundary", "open") == "periodic"
    groups = {}
    if spec.get("model", "wen") == "wen":
        a, b = (r, c) if periodic else (r - 1, c - 1)
        pi, pj = _parities(0, a), _parities(0, b)
        for gi in (0, 1):
            for gj in (0, 1):
                groups[2 * gi + gj + 1] = pi[gi] * pj[gj]
        for tw in spec.get("twists", []):  # a twist row ends one term early
            groups[2 * (tw["row"] % 2) + (b - 1) % 2 + 1] -= 1
        for hole in spec.get("holes", []):
            for i, j in hole["plaquettes"]:
                groups[2 * (i % 2) + j % 2 + 1] -= 1
        return groups
    faces = ((0, r), (0, c)) if periodic else ((0, r - 1), (0, c - 1))
    stars = ((0, r), (0, c)) if periodic else ((1, r), (0, c))
    for base, (rows, cols) in ((1, faces), (3, stars)):
        ei, oi = _parities(*rows)
        ej, oj = _parities(*cols)
        groups[base] = ei * ej + oi * oj
        groups[base + 1] = ei * oj + oi * ej
    for hole in spec.get("holes", []):
        base = 1 if hole["kind"] == "smooth" else 3
        for i, j in hole["plaquettes"]:
            groups[base + (i + j) % 2] -= 1
    return groups


def check_build(spec: dict, rc: int, report: dict) -> list:
    errors = _report_errors(report, rc, 0, ("terms-pairwise-commute", "groups-support-disjoint"))
    groups = {str(g): k for g, k in expected_groups(spec).items() if k}
    metrics = report.get("metrics", {})
    if metrics.get("group_sizes") != groups:
        errors.append(f"group sizes {metrics.get('group_sizes')} != closed form {groups}")
    if metrics.get("n_terms") != sum(groups.values()):
        errors.append(f"{metrics.get('n_terms')} terms, closed form {sum(groups.values())}")
    return errors


def check_ground(spec: dict, rc: int, report: dict) -> list:
    open_boundary = spec.get("boundary", "open") == "open"
    names = ("plaquette-expectations-plus-one",)
    errors = _report_errors(report, rc, 0,
                            names + (("sweep-matches-projector",) if open_boundary else ()))
    metrics = report.get("metrics", {})
    if abs(metrics.get("min_expectation", 0.0) - 1.0) > 1e-10:
        errors.append(f"plaquette expectation {metrics.get('min_expectation')} != +1")
    if open_boundary and not metrics.get("sweep_fidelity", 0.0) >= 1 - 1e-10:
        errors.append(f"sweep fidelity {metrics.get('sweep_fidelity')} below 1 - 1e-10")
    if metrics.get("n_terms") != sum(expected_groups(spec).values()):
        errors.append("ground-state term count differs from the closed form")
    return errors


def wen_plaquettes(spec: dict):
    """((i, j), {(row, col): letter}) of every plain Wen plaquette."""
    r, c = spec["rows"], spec["cols"]
    periodic = spec.get("boundary", "open") == "periodic"
    a, b = (r, c) if periodic else (r - 1, c - 1)
    for i in range(a):
        for j in range(b):
            yield (i, j), {
                (i, j): "X", (i, (j + 1) % c): "Z",
                ((i + 1) % r, j): "Z", ((i + 1) % r, (j + 1) % c): "X",
            }


def wen_hamiltonian(spec: dict) -> np.ndarray:
    """H = -J * sum of plaquettes, from kron products (site (i, j) -> i*cols + j)."""
    n, cols = spec["rows"] * spec["cols"], spec["cols"]
    h = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for _, letters in wen_plaquettes(spec):
        h -= spec.get("J", 1.0) * _site_matrix(
            n, {i * cols + j: x for (i, j), x in letters.items()})
    return h


def check_digital(rc: int, report: dict) -> list:
    errors = _report_errors(report, rc, 0, ("digital-matches-exponential",))
    metrics = report.get("metrics", {})
    if metrics.get("n_stages") != 4 or not metrics.get("distance", 1.0) <= 1e-8:
        errors.append(f"digital report: {metrics.get('n_stages')} stages, "
                      f"distance {metrics.get('distance')}")
    return errors


def check_digital_unitary(spec: dict, tau: float, unitary: np.ndarray) -> list:
    """The program's digital unitary against scipy's exp(-i tau H)."""
    ideal = scipy.linalg.expm(-1j * tau * wen_hamiltonian(spec))
    dist = float(np.linalg.norm(unitary - ideal, 2))
    return [] if dist <= 1e-8 else [f"digital unitary is {dist:.3e} from expm(-i tau H)"]


def syndrome_by_letter_count(spec: dict, path: dict) -> list:
    """Plaquettes with an odd number of clashing letters, as [[i, j], kind]."""
    on_path = {tuple(s): x for s, x in zip(path["sites"], path["letters"]) if x != "I"}
    out = []
    for (i, j), letters in wen_plaquettes(spec):
        clashes = sum(1 for site, x in letters.items()
                      if site in on_path and on_path[site] != x)
        if clashes % 2:
            out.append([[i, j], "e" if (i + j) % 2 == 0 else "m"])
    return sorted(out)


def check_syndrome(spec: dict, path: dict, rc: int, report: dict) -> list:
    errors = _report_errors(report, rc, 0, ("prediction-matches-anticommutation",))
    got = sorted(report.get("metrics", {}).get("syndrome", {}).get("entries", []))
    want = syndrome_by_letter_count(spec, path)
    if got != want:
        errors.append(f"syndrome {got} != letter count {want}")
    return errors


def check_braid(center: list, rc: int, report: dict) -> list:
    errors = _report_errors(report, rc, 0, ("braiding-phase-minus-one",))
    metrics = report.get("metrics", {})
    if abs(metrics.get("braiding_phase", 0.0) + 1.0) > 1e-10:
        errors.append(f"braiding phase {metrics.get('braiding_phase')} != -1")
    if abs(metrics.get("expectation_ground", 0.0) - 1.0) > 1e-10:
        errors.append("ground-state loop expectation is not +1")
    if metrics.get("center") != center:
        errors.append("braid centre differs from the request")
    return errors


def check_memory(amplitudes: list, rc: int, report: dict) -> list:
    errors = _report_errors(report, rc, 0, ("basis-pairwise-orthogonal", "encoded-overlaps-match"))
    want = np.array([complex(a, b) for a, b in amplitudes])
    want /= np.linalg.norm(want)
    got = np.array([_complex(x) for x in report.get("metrics", {}).get("overlaps", [])])
    if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-8:
        errors.append("encoded overlaps differ from the normalised amplitudes")
    return errors


def check_magic(theta: float, rc: int, report: dict) -> list:
    errors = _report_errors(report, rc, 0, ("magic-state-fidelity",))
    metrics = report.get("metrics", {})
    if metrics.get("theta") != theta or not metrics.get("fidelity", 0.0) >= 1 - 1e-10:
        errors.append(f"magic fidelity {metrics.get('fidelity')} for theta {metrics.get('theta')}")
    zero = _complex(metrics.get("overlap_zero", 0.0))
    one = _complex(metrics.get("overlap_one", 0.0))
    r2 = 1 / math.sqrt(2)
    if abs(zero - r2) > 1e-8 or abs(one - r2 * complex(math.cos(theta), math.sin(theta))) > 1e-8:
        errors.append(f"magic overlaps {zero}, {one} differ from (1, e^(i theta)) / sqrt(2)")
    return errors


def check_cnot(rc: int, report: dict) -> list:
    rows = [f"truth-table-row-{c}{t}" for c in (0, 1) for t in (0, 1)]
    errors = _report_errors(report, rc, 0, rows)
    if not report.get("metrics", {}).get("max_distance", 1.0) <= 1e-8:
        errors.append(f"cnot distance {report.get('metrics', {}).get('max_distance')} above 1e-8")
    return errors
