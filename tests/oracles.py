"""Independent reference implementations used only to check the library.

Everything here recomputes results from first principles (dense
matrices, O(n^2) rank counting) and deliberately shares no code with
the package internals it verifies.
The planted-partition generator and the two reference scorers
(source-blind centrality, personalized PageRank) are the relatedness
instrument: data with known structure and the scores to beat.
"""

import math
import random


def weight_matrix(n: int, edges: list[tuple[int, int, float]]) -> list[list[float]]:
    """Dense symmetric adjacency matrix from (a, b, w) triples."""
    mat = [[0.0] * n for _ in range(n)]
    for a, b, w in edges:
        mat[a][b] = w
        mat[b][a] = w
    return mat


def step_oracle(
    n: int,
    edges: list[tuple[int, int, float]],
    held: dict[int, float],
    activated: set[int],
    delta: float,
    fire_threshold: float,
) -> tuple[dict[int, float], set[int]]:
    """One propagation step via full adjacency-matrix enumeration."""
    mat = weight_matrix(n, edges)
    new_held = {}
    fired = set()
    for z in range(n):
        arriving = 0.0
        for x in range(n):
            if x in activated:
                arriving += held[x] * mat[x][z] * (1.0 - delta)
        value = held[z] + arriving
        new_held[z] = value
        if value != held[z] and value >= fire_threshold:
            fired.add(z)
    return new_held, fired


def counting_ranks(values: list[float]) -> list[float]:
    """Average 1-based ranks by O(n^2) counting: rank = below + (ties+1)/2."""
    ranks = []
    for v in values:
        below = sum(1 for u in values if u < v)
        ties = sum(1 for u in values if u == v)
        ranks.append(below + (ties + 1) / 2.0)
    return ranks


def pearson(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


def round_oracle(
    n: int,
    edges: list[tuple[int, int, float]],
    held: dict[int, float],
    screen_threshold: float,
    delta: float,
) -> dict[int, float]:
    """Accept-utility of every participant of one round, summed in a fixed order.

    Participants are the nodes holding at least `screen_threshold`. The
    offer is step_oracle's step with the participants firing. The cost is the RMS of
    offered - held summed over nodes 0..n-1, and each participant's
    neighborhood change sums offered - held over its neighbors (every
    node it shares an edge with, whatever the weight) in ascending
    order; both sums start from 0.0 and run left to right. Keyed by
    participant in ascending order; an isolated participant gets 0.0.
    """
    participants = [k for k in range(n) if held[k] >= screen_threshold]
    offered, _ = step_oracle(n, edges, held, set(participants), delta, 0.0)
    total = 0.0
    for z in range(n):
        d = offered[z] - held[z]
        total += d * d
    rms = math.sqrt(total / n)

    utilities = {}
    for i in participants:
        nbrs = sorted({b for a, b, _ in edges if a == i} | {a for a, b, _ in edges if b == i})
        if not nbrs:
            utilities[i] = 0.0
            continue
        change = 0.0
        for x in nbrs:
            change += offered[x] - held[x]
        if change == 0.0:
            g = 0.0
        else:
            g = math.copysign(abs(change) ** (1.0 - delta), change) / len(nbrs)
        utilities[i] = g - rms
    return utilities


def cobweb_oracle(
    nodes: list[tuple[float, float]], params, budget: float, tol: float = 1e-6
) -> tuple[list[float], list[float], int, bool, list[tuple[int, int, float, float, float]]]:
    """Replay of the cobweb baseline from its stated recurrences.

    Reads only r, the two slopes and max_iters off `params`. Node k with
    target T has D(o) = 2T - demand_slope * o and S(e) = supply_slope * e.
    It starts with o = e = its initial value and has base
    b = T - r * (D(T) - S(T)); each cycle sets o <- b + r * (D(o) - S(e))
    and e <- old o, then grants min(max(o, 0), remaining). Converged when,
    in one cycle, every node moved less than tol and has
    |b + r * (D(o) - S(o)) - o| < tol. Returns (grants, values, cycles,
    converged, trace rows (cycle, node, o, excess, grant)).
    """
    r = params.r
    targets = [target for _, target in nodes]

    def demand(k, o):
        return 2 * targets[k] - params.demand_slope * o

    def supply(e):
        return params.supply_slope * e

    values = [float(initial) for initial, _ in nodes]
    expectations = list(values)
    bases = [t - r * (demand(k, t) - supply(t)) for k, t in enumerate(targets)]
    grants = [0.0] * len(nodes)
    trace = []
    for cycle in range(1, params.max_iters + 1):
        remaining = budget
        quiet = True
        for k, base in enumerate(bases):
            excess = demand(k, values[k]) - supply(expectations[k])
            new = base + r * excess
            residual = base + r * (demand(k, new) - supply(new)) - new
            if abs(new - values[k]) >= tol or abs(residual) >= tol:
                quiet = False
            expectations[k], values[k] = values[k], new
            grants[k] = min(max(new, 0.0), remaining)
            remaining -= grants[k]
            trace.append((cycle, k, new, excess, grants[k]))
        if quiet:
            return grants, values, cycle, True, trace
    return grants, values, params.max_iters, False, trace


def planted_partition(
    blocks: int, size: int, p_in: float, p_out: float, seed: int
) -> tuple[int, list[tuple[int, int, float]]]:
    """A seeded stochastic block model: (n, (a, b, w) edges with a < b).

    Node v sits in block v // size. Consecutive nodes of a block are
    always linked, so each block is connected; every other pair is
    linked with probability p_in inside a block and p_out across
    blocks. Weights are uniform in (0, 1].
    """
    rng = random.Random(seed)
    n = blocks * size
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            same = a // size == b // size
            if (same and b == a + 1) or rng.random() < (p_in if same else p_out):
                edges.append((a, b, 1.0 - rng.random()))
    return n, edges


def centrality_scores(n: int, edges: list[tuple[int, int, float]], delta: float) -> list[float]:
    """Node scores that ignore any source: the Perron vector of
    I + (1 - delta) W by power iteration, scaled to a maximum of 1.

    Stops when no entry moves by more than 1e-12, or after 10000
    iterations.
    """
    keep = 1.0 - delta
    nbrs = [[] for _ in range(n)]
    for a, b, w in edges:
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
    v = [1.0] * n
    for _ in range(10000):
        new = [v[z] + keep * sum(w * v[x] for x, w in nbrs[z]) for z in range(n)]
        top = max(new)
        new = [x / top for x in new]
        moved = max(abs(x - y) for x, y in zip(new, v))
        v = new
        if moved <= 1e-12:
            break
    return v


def personalized_pagerank(
    n: int, edges: list[tuple[int, int, float]], source: int, alpha: float
) -> list[float]:
    """Personalized PageRank from one source by power iteration.

    p <- alpha * e_source + (1 - alpha) * p P, where P is the weighted
    random walk (row x of W divided by x's weighted degree). Stops when
    no entry moves by more than 1e-12, or after 10000 iterations.
    """
    degree = [0.0] * n
    for a, b, w in edges:
        degree[a] += w
        degree[b] += w
    walk = [[] for _ in range(n)]
    for a, b, w in edges:
        walk[a].append((b, w / degree[a]))
        walk[b].append((a, w / degree[b]))
    p = [1.0 if z == source else 0.0 for z in range(n)]
    for _ in range(10000):
        new = [0.0] * n
        new[source] = alpha
        for x, mass in enumerate(p):
            mass *= 1.0 - alpha
            for y, f in walk[x]:
                new[y] += mass * f
        moved = max(abs(x - y) for x, y in zip(new, p))
        p = new
        if moved <= 1e-12:
            break
    return p


def game_oracle(
    n: int,
    edges: list[tuple[int, int, float]],
    held: dict[int, float],
    activated: set[int],
    screen_threshold: float,
    delta: float,
    budget: float,
    epsilon: float,
    max_rounds: int,
) -> tuple[list[tuple[dict[int, float], set[int], dict[int, bool], dict[int, float], float]], bool]:
    """Every round of a game, chained from round_oracle.

    A participant accepts iff its accept-utility is strictly positive
    and then realizes it; a rejector realizes 0.0. Acceptors take the
    offer (step_oracle's step with every participant firing), the others
    keep their value, and the result is scaled by budget / total, the
    total summed over nodes 0..n-1 from 0.0, left to right (unscaled
    when the total is not positive; each value divided by the total,
    then times the budget, when budget / total overflows). A round
    without participants changes nothing and keeps the activated set. The round cost is the
    RMS of new - old, summed the same way. Play stops after the first
    round whose cost is below epsilon (converged) or after max_rounds.
    Returns (rounds, converged); a round is (held, activated,
    accepts by participant, realized utilities, cost).
    """
    held, activated = dict(held), set(activated)
    rounds = []
    for _ in range(max_rounds):
        utilities = round_oracle(n, edges, held, screen_threshold, delta)
        accepts = {k: u > 0.0 for k, u in utilities.items()}
        new = dict(held)
        if utilities:
            offered, _ = step_oracle(n, edges, held, set(utilities), delta, 0.0)
            for k in range(n):
                if accepts.get(k, False):
                    new[k] = offered[k]
            total = 0.0
            for k in range(n):
                total += new[k]
            if total > 0.0:
                scale = budget / total
                if math.isinf(scale):
                    new = {k: new[k] / total * budget for k in range(n)}
                else:
                    new = {k: new[k] * scale for k in range(n)}
            activated = {k for k, a in accepts.items() if a}
        squares = 0.0
        for k in range(n):
            d = new[k] - held[k]
            squares += d * d
        cost = math.sqrt(squares / n)
        realized = {k: u if accepts[k] else 0.0 for k, u in utilities.items()}
        rounds.append((new, set(activated), accepts, realized, cost))
        held = new
        if cost < epsilon:
            return rounds, True
    return rounds, False
