"""Automatic two-area partition of a case by electrical distance.

Machines are clustered around the pair of machine buses with the largest
shortest-path reactance between them; every bus joins the area of its nearer
seed (ties go to the first seed, keeping the partition deterministic).  The
boundary branches, whose endpoints land in different areas, define the
tie-line corridor used for inter-area flow measurements.
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


def _partition(case: PowerSystemCase) -> tuple[list[int], dict[int, dict[int, float]]]:
    """Each machine's area (0 or 1) in machine order, and the electrical
    distances from each generator bus (none for one machine or fewer)."""
    if len(case.machines) <= 1:
        return [0] * len(case.machines), {}
    gen_buses = sorted({m.bus for m in case.machines})
    dists = {b: _electrical_distances(case, b) for b in gen_buses}
    seed_a, seed_b, worst = gen_buses[0], gen_buses[0], -1.0
    for i, ba in enumerate(gen_buses):
        for bb in gen_buses[i + 1:]:
            if dists[ba][bb] > worst:
                worst = dists[ba][bb]
                seed_a, seed_b = ba, bb
    return [0 if dists[seed_a][m.bus] <= dists[seed_b][m.bus] else 1
            for m in case.machines], dists


def machine_areas(case: PowerSystemCase) -> list[int]:
    """Each machine's area (0 or 1) in machine order; one machine has one area."""
    return _partition(case)[0]


def bus_areas(case: PowerSystemCase) -> dict[int, int]:
    """Each bus's area: that of the nearer of the two areas' first machine
    buses, whose distances the machine partition already has."""
    areas, dists = _partition(case)
    seeds: dict[int, int] = {}
    for m, area in zip(case.machines, areas):
        seeds.setdefault(area, m.bus)
    if len(seeds) < 2:
        return {b.id: 0 for b in case.buses}
    d0, d1 = dists[seeds[0]], dists[seeds[1]]
    # equidistant buses join area 1 so the boundary sits at the sending end
    # of a symmetric corridor
    return {b.id: (0 if d0[b.id] < d1[b.id] else 1) for b in case.buses}


def tie_branches(case: PowerSystemCase) -> list[tuple[int, int, int]]:
    """In-service branches crossing the area boundary, oriented area0 -> area1."""
    areas = bus_areas(case)
    out = []
    for br in case.in_service_branches():
        fa, ta = areas[br.from_bus], areas[br.to_bus]
        if fa == ta:
            continue
        if fa == 0:
            out.append((br.from_bus, br.to_bus, br.circuit))
        else:
            out.append((br.to_bus, br.from_bus, br.circuit))
    return out


def tie_flow_mw(case: PowerSystemCase, sol: PowerFlowSolution,
                ties: list[tuple[int, int, int]] | None = None) -> float:
    """Real power (MW) leaving area 0 over the boundary branches: `ties`, a
    corridor the caller already has, or else ``tie_branches(case)``."""
    total = 0.0
    for f, t, c in tie_branches(case) if ties is None else ties:
        total += branch_flow(case, sol, f, t, c).real
    return total * case.base_mva
