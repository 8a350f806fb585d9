"""O-RU to EDU partition optimization.

A genetic algorithm searches length-L genomes of EDU labels for the
partition whose cross-EDU tuples are geographically tightest, which spreads
each EDU's own O-RUs apart (interleaving). Its crossover and mutation keep
every EDU's group size, so each child is balanced by construction. The
comparison arm is a balanced geographic clustering, whose assignment step is
an exact balanced assignment in numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .scenario import require_integers

MAX_EXACT_TUPLES = 10_000_000
CLUSTER_RESTARTS = 8  # seeded restarts of the clustered baseline
CLUSTER_ITERATIONS = 30  # most Lloyd iterations per restart
GA_CROSSOVER_RATE = 0.8  # probability that a parent pair is cut and crossed
GA_MUTATION_RATE = 0.05  # per-gene probability of a swap mutation

# An assignment step's optimum counts as unique when every other balanced
# labelling costs more by this fraction of the largest cost; closer than that,
# rounding could pick among near-ties, so the port of scipy's solver decides.
_TIE_MARGIN = 1e-9


@dataclass(frozen=True)
class GaConfig:
    """GA hyperparameters, checked by :meth:`validate` when made."""

    population_size: int = 50
    generations: int = 200
    fitness_mode: str = "pairwise-surrogate"  # or "exact"

    def validate(self) -> None:
        require_integers(population_size=self.population_size, generations=self.generations)
        if self.population_size < 2 or self.population_size % 2:
            raise ValueError("population_size must be an even number >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.fitness_mode not in ("exact", "pairwise-surrogate"):
            raise ValueError(f"unknown fitness_mode {self.fitness_mode!r}")

    __post_init__ = validate


@dataclass
class Partition:
    """EDU label per O-RU plus its fitness score."""

    genome: np.ndarray  # (L,) ints in [0, M)
    num_edu: int
    fitness: float = math.nan

    def __post_init__(self):
        labels = np.asarray(self.genome)
        self.genome = labels.astype(int)
        if not np.array_equal(self.genome, labels):
            raise ValueError(f"partition labels must be integers: {labels.tolist()}")
        if not is_balanced(self.genome, self.num_edu):
            raise ValueError("partition must use every EDU with sizes within 1")


def is_balanced(genome: np.ndarray, num_edu: int) -> bool:
    """Group sizes cover every EDU and differ by at most one."""
    genome = np.asarray(genome, dtype=int)
    if genome.min(initial=0) < 0 or genome.max(initial=-1) >= num_edu:
        return False
    counts = np.bincount(genome, minlength=num_edu)
    return counts.min() >= 1 and counts.max() - counts.min() <= 1


def random_balanced_genome(L: int, M: int, rng: np.random.Generator) -> np.ndarray:
    return rng.permutation(np.arange(L) % M)


def _one_hot(genomes: np.ndarray, M: int) -> np.ndarray:
    """(..., L) EDU labels as (..., L, M) booleans."""
    return genomes[..., None] == np.arange(M)


def unit_labels(granularity: str, genome: np.ndarray, num_oru: int) -> np.ndarray:
    """The detection/precoding unit of each O-RU, as an (L,) int array.

    Units are the whole array ("joint": one unit), the EDUs of the partition
    ``genome`` ("edu") or the O-RUs themselves ("oru").
    """
    if granularity == "joint":
        return np.zeros(num_oru, dtype=int)
    if granularity == "edu":
        return np.asarray(genome, dtype=int)
    if granularity == "oru":
        return np.arange(num_oru)
    raise ValueError(f"unknown granularity {granularity!r}")


def exact_fitness_denominator(genome: np.ndarray, dist: np.ndarray, M: int) -> float:
    """Sum over all cross-EDU tuples of the root-sum-square of their pairwise
    distances (all M-choose-2 pairs per tuple)."""
    groups = [np.flatnonzero(genome == m) for m in range(M)]
    count = math.prod(len(g) for g in groups)
    if count > MAX_EXACT_TUPLES:
        raise ValueError(
            f"{count} tuples exceed the exact-fitness limit; use the "
            "pairwise-surrogate mode"
        )
    d2 = dist**2
    total = 0.0
    for combo in itertools.product(*groups):
        acc = 0.0
        for a, b in itertools.combinations(combo, 2):
            acc += d2[a, b]
        total += math.sqrt(acc)
    return total


def surrogate_denominators(genomes: np.ndarray, dist: np.ndarray, M: int) -> np.ndarray:
    """Sum of pairwise distances between O-RUs of different EDUs, per genome.

    For the one-hot (P, L, M) X of a (P, L) genome batch this is the total
    spread ½·Σ D minus the within-EDU spread ½·Σ diag(XᵀDX), summed as
    ½·Σ (1 − X)∘(DX) so that no subtraction cancels.
    """
    X = _one_hot(genomes, M).astype(float)
    return 0.5 * np.einsum("plm,plm->p", 1.0 - X, dist @ X)


def _scores(genomes: np.ndarray, dist: np.ndarray, M: int, mode: str) -> np.ndarray:
    """Fitness of each (P, L) genome row; a zero spread scores +inf."""
    if mode == "exact":
        denom = np.array([exact_fitness_denominator(g, dist, M) for g in genomes])
    elif mode == "pairwise-surrogate":
        denom = surrogate_denominators(genomes, dist, M)
    else:
        raise ValueError(f"unknown fitness mode {mode!r}")
    with np.errstate(divide="ignore"):
        return 1.0 / denom


def fitness(
    genome: np.ndarray,
    oru_distances: np.ndarray,
    num_edu: int,
    mode: str = "pairwise-surrogate",
) -> float:
    """Partition score: reciprocal of the cross-EDU spread (higher is better).

    A zero spread (co-located O-RUs) scores +inf.
    """
    genome = np.asarray(genome, dtype=int)
    if not is_balanced(genome, num_edu):
        raise ValueError("fitness requires a balanced partition")
    dist = np.asarray(oru_distances, dtype=float)
    return float(_scores(genome[None], dist, num_edu, mode)[0])


def _crossover(
    a: np.ndarray, b: np.ndarray, M: int, rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Single-point crossover of parent rows ``a`` and ``b`` (each (n, L)).

    Returns the 2n children: a's head with b's tail, then b's head with a's
    tail. Each child then gets its head parent's group sizes back without
    any random draw: the last surplus genes of each over-full EDU, which lie
    in the tail, take the labels of the under-full EDUs in index order.
    """
    n, L = a.shape
    cut = np.where(rng.random(n) < rate, rng.integers(1, L, size=n), L)
    in_head = np.arange(L) < cut[:, None]
    heads = np.concatenate([a, b])
    kids = np.concatenate([np.where(in_head, a, b), np.where(in_head, b, a)])
    # Labels offset by M per child, so one bincount counts every child's
    # groups and one stable sort lines up each group's genes in order.
    offset = M * np.arange(2 * n)[:, None]
    flat = (kids + offset).ravel()
    counts = np.bincount(flat, minlength=2 * n * M)
    excess = counts - np.bincount((heads + offset).ravel(), minlength=2 * n * M)
    # 1 for the last gene of its label, 2 for the one before it, ...
    order = np.argsort(flat, kind="stable")
    rank = np.empty_like(flat)
    rank[order] = np.cumsum(counts)[flat[order]] - np.arange(flat.size)
    move = (rank <= excess[flat]).reshape(kids.shape)
    # Row by row, the moved genes in order take the under-full EDUs' slots
    # in index order; each child has as many of one as of the other.
    slots = np.repeat(np.tile(np.arange(M), 2 * n), np.maximum(-excess, 0))
    kids[move] = slots
    return kids


def _mutate(genomes: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Swap mutation, in place: each hit gene swaps its label with a
    uniformly drawn position of the same genome, which keeps every group
    size."""
    hits = rng.random(genomes.shape) < rate
    rows, cols = np.nonzero(hits)
    partners = rng.integers(0, genomes.shape[1], size=rows.size)
    for p, i, j in zip(rows, cols, partners):
        genomes[p, i], genomes[p, j] = genomes[p, j], genomes[p, i]
    return genomes


@dataclass
class GaResult:
    partition: Partition
    history: np.ndarray  # (generations,) best fitness per generation


def ga_optimize(
    oru_distances: np.ndarray,
    num_edu: int,
    config: GaConfig,
    rng: np.random.Generator,
) -> GaResult:
    """Evolve a balanced O-RU partition maximizing the interleaving fitness.

    The population is a (P, L) array of genomes with the group sizes of
    :func:`random_balanced_genome`. Each generation draws P/2 parent pairs
    with probability proportional to fitness, makes two children per pair by
    single-point crossover that restores the head parent's group sizes,
    applies swap mutation, and scores all P children in one call. Both
    operators keep group sizes, so every child is balanced without checks.
    Survivor selection merges parents and children and keeps the best, so
    the best-so-far fitness never decreases.
    """
    dist = np.asarray(oru_distances, dtype=float)
    L = dist.shape[0]
    M = num_edu
    if L < M:
        raise ValueError("cannot split fewer O-RUs than EDUs")

    def score(genomes: np.ndarray) -> np.ndarray:
        return _scores(genomes, dist, M, config.fitness_mode)

    if M == 1:
        genome = np.zeros(L, dtype=int)
        part = Partition(genome, 1, fitness=float(score(genome[None])[0]))
        return GaResult(part, np.array([part.fitness]))

    n_p = config.population_size
    pop = np.stack([random_balanced_genome(L, M, rng) for _ in range(n_p)])
    scores = score(pop)
    history = np.empty(config.generations)

    for gen in range(config.generations):
        # Fitness is positive or +inf; any +inf genomes share all the weight.
        finite = np.isfinite(scores)
        weights = scores if finite.all() else (~finite).astype(float)
        pairs = rng.choice(n_p, size=(n_p // 2, 2), p=weights / weights.sum())
        children = _crossover(
            pop[pairs[:, 0]], pop[pairs[:, 1]], M, GA_CROSSOVER_RATE, rng
        )
        children = _mutate(children, GA_MUTATION_RATE, rng)

        merged = np.concatenate([pop, children])
        merged_scores = np.concatenate([scores, score(children)])
        order = np.argsort(-merged_scores, kind="stable")[:n_p]
        pop = merged[order]
        scores = merged_scores[order]
        history[gen] = scores[0]

    best = Partition(pop[0], M, fitness=float(scores[0]))
    return GaResult(best, history)


def clustered_baseline(
    oru_positions: np.ndarray,
    num_edu: int,
    rng: np.random.Generator,
) -> Partition:
    """Balanced geographic clustering of O-RUs into EDUs.

    Lloyd iterations whose assignment step gives each EDU exactly its
    capacity (ceil(L/M) for the first L % M EDUs, floor for the rest) at the
    least total O-RU-to-centroid distance; the best of ``CLUSTER_RESTARTS``
    restarts by within-group pairwise spread is returned, each started on M
    O-RUs that ``rng`` draws. The step
    (:func:`_balanced_assignment`) is exact, and among equally cheap
    assignments, which the O-RU grid makes common, it returns the one that
    scipy's ``linear_sum_assignment`` picks on the capacity-replicated
    centroid columns, so partitions match those of earlier releases.
    """
    pos = np.asarray(oru_positions, dtype=float)
    if pos.ndim != 2:
        raise ValueError("oru_positions must be (L, dim)")
    L = pos.shape[0]
    M = num_edu
    if L < M:
        raise ValueError("cannot split fewer O-RUs than EDUs")
    if M == 1:
        return Partition(np.zeros(L, dtype=int), 1)
    if M == L:
        return Partition(np.arange(L), M)

    base, extra = divmod(L, M)
    capacities = np.array([base + (1 if m < extra else 0) for m in range(M)])

    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)

    def within_spread(genome: np.ndarray) -> float:
        tot = 0.0
        for m in range(M):
            idx = np.flatnonzero(genome == m)
            tot += dist[np.ix_(idx, idx)].sum() / 2.0
        return tot

    best_genome, best_cost = None, math.inf
    for _ in range(CLUSTER_RESTARTS):
        centroids = pos[rng.choice(L, size=M, replace=False)]
        genome = np.zeros(L, dtype=int)
        for _ in range(CLUSTER_ITERATIONS):
            cost = np.linalg.norm(pos[:, None, :] - centroids[None, :, :], axis=-1)
            new_genome = _balanced_assignment(cost, capacities)
            if np.array_equal(new_genome, genome):
                break
            genome = new_genome
            for m in range(M):
                centroids[m] = pos[genome == m].mean(axis=0)
        c = within_spread(genome)
        if c < best_cost:
            best_genome, best_cost = genome, c
    return Partition(best_genome, M)


def _balanced_assignment(cost: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """EDU label per O-RU of a cheapest assignment giving EDU m exactly
    ``capacities[m]`` >= 1 O-RUs, for the (L, M) O-RU-to-EDU ``cost``, M >= 2.

    The labels equal those of scipy's ``linear_sum_assignment`` on the
    capacity-replicated (L, L) matrix ``cost[:, slot_group]``. An exact solve
    over the M EDUs (:func:`_unique_optimum`) serves when its certificate
    shows the optimum unique by ``_TIE_MARGIN``: then every exact solver
    returns it. Otherwise the port of scipy's algorithm breaks the ties.
    """
    cost = np.asarray(cost, dtype=float)
    capacities = np.asarray(capacities, dtype=int)
    labels = _unique_optimum(cost, capacities)
    return _crouse_labels(cost, capacities) if labels is None else labels


def _sweep_prices(cost: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """EDU prices from one Gauss-Seidel sweep of the assignment dual.

    Each EDU's price in turn is set halfway between the price at which its
    capacity-th O-RU and the next one would prefer it, so the nearest EDUs
    under the prices are close to balanced.
    """
    prices = np.zeros(cost.shape[1])
    for m, k in enumerate(capacities):
        others = cost - prices
        others[:, m] = np.inf
        threshold = np.partition(cost[:, m] - others.min(1), (k - 1, k))
        prices[m] = 0.5 * (threshold[k - 1] + threshold[k])
    return prices


def _min_plus_closure(W: np.ndarray) -> np.ndarray:
    """Least cost of a walk of at most M edges between every pair of nodes;
    with an infinite diagonal in ``W`` the diagonal is the least cycle cost."""
    D = W
    for _ in range((len(W) - 1).bit_length()):
        D = np.minimum(D, (D[:, :, None] + D[None, :, :]).min(1))
    return D


def _unique_optimum(cost: np.ndarray, capacities: np.ndarray) -> np.ndarray | None:
    """The cheapest balanced labelling if every other one costs more by
    ``_TIE_MARGIN`` of the largest cost, else None.

    Successive shortest paths (Ahuja, Magnanti & Orlin, *Network Flows*,
    1993, ch. 9) from the nearest EDUs under :func:`_sweep_prices`, on the
    (M, M) move graph whose edge a -> b is the least cost change of moving
    one O-RU of EDU a to EDU b. At balance the certificate alone decides: any
    other balanced labelling differs by cycles of moves, each costing at least
    the least cycle cost."""
    M = cost.shape[1]
    margin = _TIE_MARGIN * np.abs(cost).max()
    labels = (cost - _sweep_prices(cost, capacities)).argmin(1)
    while True:
        order = np.argsort(labels, kind="stable")
        counts = np.bincount(labels, minlength=M)
        starts = np.cumsum(counts) - counts
        delta = cost[order] - cost[order, labels[order], None]
        W = np.full((M, M), np.inf)
        W[counts > 0] = np.minimum.reduceat(delta, starts[counts > 0])
        np.fill_diagonal(W, np.inf)
        excess = counts - capacities
        if not excess.any():
            return labels if _min_plus_closure(W).diagonal().min() > margin else None
        # Bellman-Ford from the over-full EDUs. A gain within the margin may be
        # rounding and could close a loop of predecessors, so it is no gain.
        dist = np.where(excess > 0, 0.0, np.inf)
        pred = np.full(M, -1)
        for _ in range(M):
            via = dist[:, None] + W
            best = via.min(0)
            better = best < dist - margin
            if not better.any():
                break
            dist[better] = best[better]
            pred[better] = via.argmin(0)[better]
        else:
            return None  # a cycle cheaper than -margin
        b = np.flatnonzero(excess < 0)[dist[excess < 0].argmin()]
        if dist[b] == np.inf:
            return None  # no path reaches an under-full EDU
        while (a := pred[b]) >= 0:  # one step along the path, from its end
            s = starts[a]
            labels[order[s + delta[s:s + counts[a], b].argmin()]] = b
            b = a


def _crouse_labels(cost: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """EDU labels of scipy's ``linear_sum_assignment(cost[:, slot_group])``.

    A port of scipy's shortest augmenting path solver (D. F. Crouse, "On
    implementing 2D rectangular assignment algorithms", IEEE TAES 2016) that
    repeats its floating-point steps and tie rules. Rows join in order, and
    each Dijkstra search scans the slots (columns) in scipy's ``remaining``
    order, which starts reversed and fills a scanned slot's place with the
    last one. It takes the slot of least path cost: of equals, the last
    unassigned one, else the first.

    The slots of one EDU are kept together, which makes a scan step cost
    O(M) instead of O(L). An unassigned slot has dual v = 0, so all free
    slots of EDU m share the path cost k_m, the least of
    (min_val + cost[i, m]) - u_i over the rows i scanned so far. An
    assigned slot j costs k_m - v_j, since rounding is monotone, so the
    cheapest assigned slot of an EDU is the one of largest v.
    """
    L, M = cost.shape
    slot_group = np.repeat(np.arange(M), capacities)
    group_of = slot_group.tolist()
    costs = cost.tolist()
    inf = math.inf
    u = [0.0] * L
    v = [0.0] * L
    col4row = [-1] * L
    row4col = [-1] * L
    free = [[] for _ in range(M)]  # unassigned slots per EDU
    for j, m in enumerate(group_of):
        free[m].append(j)
    taken = [[] for _ in range(M)]  # assigned slots per EDU, largest v first
    top_v = [-inf] * M  # v of each taken[m][0]
    reversed_slots = list(range(L - 1, -1, -1))

    for cur in range(L):
        remaining = reversed_slots[:]
        where = reversed_slots[:]  # where[j]: index of slot j in remaining
        left = L
        k = [inf] * M
        open_groups = [m for m in range(M) if free[m]]
        rows, row_min = [], []  # scanned rows and min_val when each was scanned
        reached = {}  # scanned slot -> its path cost
        min_val = 0.0
        i = cur
        while True:
            ui = u[i]
            rows.append(i)
            row_min.append(min_val)
            k = [a if a <= (b := (min_val + c) - ui) else b for a, c in zip(k, costs[i])]
            taken_cost = [a - b for a, b in zip(k, top_v)]
            lowest = min(taken_cost)
            free_lowest = min([k[m] for m in open_groups], default=inf)
            j = -1
            if free_lowest <= lowest:
                lowest = free_lowest
                for m in open_groups:
                    if k[m] == lowest:
                        for s in free[m]:
                            if j < 0 or where[s] > where[j]:
                                j = s
            else:
                for m in range(M):
                    if taken_cost[m] == lowest:
                        for s in taken[m]:
                            if k[m] - v[s] != lowest:
                                break
                            if j < 0 or where[s] < where[j]:
                                j = s
                m = group_of[j]
                taken[m].remove(j)
                top_v[m] = v[taken[m][0]] if taken[m] else -inf
            min_val = lowest
            reached[j] = lowest
            left -= 1
            last = remaining[left]
            remaining[where[j]] = last
            where[last] = where[j]
            if row4col[j] < 0:
                break
            i = row4col[j]

        # Each slot on the augmenting path came from the first scanned row
        # whose relaxation gave its final path cost.
        sink = j
        path = []
        while True:
            m = group_of[j]
            t = 0
            while ((row_min[t] + costs[rows[t]][m]) - u[rows[t]]) - v[j] != reached[j]:
                t += 1
            i = rows[t]
            path.append((i, j))
            if i == cur:
                break
            j = col4row[i]

        u[cur] += min_val
        for r in rows[1:]:
            u[r] += min_val - reached[col4row[r]]
        for s, c in reached.items():
            v[s] -= min_val - c
            taken[group_of[s]].append(s)
        for i, j in path:
            row4col[j] = i
            col4row[i] = j
        free[group_of[sink]].remove(sink)
        for m in {group_of[s] for s in reached}:
            taken[m].sort(key=v.__getitem__, reverse=True)
            top_v[m] = v[taken[m][0]]
    return slot_group[col4row]
