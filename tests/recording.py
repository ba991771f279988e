"""Recorded runs for the tests: the every-round walk, with its traffic and
link logs.

``walk_recorded`` walks every round, dead rounds included: one ``_Sim.run``
call up to the last death, then one single-round call for each round after
it. So it is also the reference that the engine's filled dead tail is
compared against; it builds its table through the engine's ``_Sim.table``.
It logs through wrappers on one ``_Sim`` instance, set before the first
``run`` call binds the hooks; the engine itself records nothing.
"""
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from wbansim.engine import (_ROW, _SCHEMES, EQUILIBRIUM, SINK_ID, RunAudit, RunResult,
                            summarize_run)


class Recording(NamedTuple):
    result: RunResult
    traffic: list[tuple[int, int, int, bool]]  # (round, node, events, due)
    links: list[tuple[int, int, int, bool]]    # (round, tx, rx, tx alive at send)
    actions: np.ndarray  # (rounds, 5): each round's action counts c1..c5


def walk_recorded(cfg) -> Recording:
    """Run ``cfg``, every round walked, logging each round's events-stream
    counts and due flags, and every on-body send before its charge. Every
    forward's target must be alive when it is handed the packet."""
    sim = _SCHEMES[cfg.protocol](cfg)
    traffic: list[tuple[int, int, int, bool]] = []
    links: list[tuple[int, int, int, bool]] = []
    transmit, event_counts, hand_over = sim._transmit, sim._event_counts, sim.hand_over
    rnd = 0  # the round being walked, set as it draws its event counts

    def logged_transmit(tx, rx_id, is_origin, cost=None):
        links.append((rnd, tx.id, rx_id, tx.alive))
        transmit(tx, rx_id, is_origin, cost)

    def logged_event_counts(m):
        nonlocal rnd
        rnd = len(sim.rows) // _ROW  # the rounds are walked in order from 0
        counts = event_counts(m)
        # The engine's own schedule grouping (each period's ids as one
        # frozenset), so a test comparing this log with
        # ``rnd % periods[kind] == 0`` checks it, and one comparing it with
        # the round's sensing count ``c1`` checks the walk's originators.
        due = {i for period, ids in sim.period_groups if rnd % period == 0 for i in ids}
        traffic.extend((rnd, i, counts[i], i in due) for i in range(m))
        return counts

    def checked_hand_over(holder, target, is_origin):
        assert target.alive, f"round {rnd}: node {holder.id} forwards to dead node {target.id}"
        return hand_over(holder, target, is_origin)

    sim._transmit = logged_transmit
    sim._event_counts = logged_event_counts
    sim.hand_over = checked_hand_over
    sim.run(range(cfg.rounds))
    # ``run`` stops after the last death; a single-round call walks a dead round.
    for dead in range(len(sim.rows) // _ROW, cfg.rounds):
        sim.run((dead,))
    table = sim.table()
    result = RunResult(table, summarize_run(table, cfg),
                       RunAudit(drained_total=sim.drained_total))
    # Each walked round's entry in ``sim.rows`` ends with its action counts.
    actions = np.frombuffer(sim.rows).reshape(-1, _ROW)[:, EQUILIBRIUM:].astype(np.int64)
    return Recording(result, traffic, links, actions)


def sends_per_round(links, rounds: int) -> list[int]:
    """The number of logged on-body sends in each round."""
    per_round = [0] * rounds
    for rnd, *_ in links:
        per_round[rnd] += 1
    return per_round


def forwarding_acyclic(links) -> bool:
    """True when every round's on-body forwarding graph (the logged sends,
    sends to the sink left out) has no cycle."""
    per_round = defaultdict(list)
    for rnd, tx, rx, _ in links:
        if rx != SINK_ID:
            per_round[rnd].append((tx, rx))
    return all(_is_acyclic(edges) for edges in per_round.values())


def _is_acyclic(edges) -> bool:
    graph = defaultdict(list)
    nodes = set()
    for a, b in edges:
        graph[a].append(b)
        nodes.update((a, b))
    state = {}

    def dfs(u):
        state[u] = 1
        for v in graph[u]:
            if state.get(v) == 1:
                return False
            if state.get(v) is None and not dfs(v):
                return False
        state[u] = 2
        return True

    return all(state.get(u) == 2 or dfs(u) for u in nodes)
