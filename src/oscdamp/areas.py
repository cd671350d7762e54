"""Automatic two-area partition of a case by electrical distance.

Machines are clustered around the pair of machine buses with the largest
shortest-path reactance between them; every machine joins the area of its
nearer seed (ties go to the first seed, keeping the partition
deterministic).  The boundary branches, whose endpoints land in different
areas, define the tie-line corridor used for inter-area flow measurements.
"""

from __future__ import annotations

import heapq

import numpy as np

from .case import PowerSystemCase
from .powerflow import PowerFlowSolution, branch_flow


def _electrical_distances(case: PowerSystemCase, source: int) -> dict[int, float]:
    """Dijkstra over branch |x|, parallel circuits combined in parallel."""
    weight: dict[tuple[int, int], float] = {}
    for br in case.in_service_branches():
        a, b = sorted((br.from_bus, br.to_bus))
        contrib = 1.0 / abs(br.x)
        weight[(a, b)] = weight.get((a, b), 0.0) + contrib
    adj: dict[int, list[tuple[int, float]]] = {b.id: [] for b in case.buses}
    for (a, b), inv in weight.items():
        adj[a].append((b, 1.0 / inv))
        adj[b].append((a, 1.0 / inv))
    dist = {b.id: np.inf for b in case.buses}
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for nxt, w in adj[node]:
            nd = d + w
            if nd < dist[nxt]:
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return dist


def two_areas(case: PowerSystemCase) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Each machine's area (0 or 1) in machine order, and the tie corridor:
    the in-service branches whose ends lie in different areas, oriented
    area0 -> area1.  Both come from one Dijkstra search per generator bus;
    one machine has one area and no corridor."""
    if len(case.machines) <= 1:
        return [0] * len(case.machines), []
    gen_buses = sorted({m.bus for m in case.machines})
    dists = {b: _electrical_distances(case, b) for b in gen_buses}
    seed_a, seed_b, worst = gen_buses[0], gen_buses[0], -1.0
    for i, ba in enumerate(gen_buses):
        for bb in gen_buses[i + 1:]:
            if dists[ba][bb] > worst:
                worst = dists[ba][bb]
                seed_a, seed_b = ba, bb
    areas = [0 if dists[seed_a][m.bus] <= dists[seed_b][m.bus] else 1
             for m in case.machines]
    # each bus joins the area of the nearer of the two areas' first machine
    # buses; equidistant buses join area 1 so the boundary sits at the
    # sending end of a symmetric corridor
    seeds: dict[int, int] = {}
    for m, area in zip(case.machines, areas):
        seeds.setdefault(area, m.bus)
    if len(seeds) < 2:
        return areas, []
    d0, d1 = dists[seeds[0]], dists[seeds[1]]
    bus_area = {b.id: (0 if d0[b.id] < d1[b.id] else 1) for b in case.buses}
    ties = []
    for br in case.in_service_branches():
        fa, ta = bus_area[br.from_bus], bus_area[br.to_bus]
        if fa == ta:
            continue
        if fa == 0:
            ties.append((br.from_bus, br.to_bus, br.circuit))
        else:
            ties.append((br.to_bus, br.from_bus, br.circuit))
    return areas, ties


def tie_flow_mw(case: PowerSystemCase, sol: PowerFlowSolution,
                ties: list[tuple[int, int, int]]) -> float:
    """Real power (MW) leaving area 0 over the corridor `ties`, as
    :func:`two_areas` gives it."""
    total = 0.0
    for f, t, c in ties:
        total += branch_flow(case, sol, f, t, c).real
    return total * case.base_mva
