import math
import sys
from collections import deque
from dataclasses import astuple, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from recording import forwarding_acyclic, sends_per_round, walk_recorded
from test_config import valid_configs
from test_protocols import in_range_tables, usable_flags

from wbansim import engine
from wbansim.config import (PROTOCOLS, EnergyWeights, SimConfig, parse_config, render_config,
                            validate_config)
from wbansim.core import SINK_POSITION, SensorKind
from wbansim.channel import path_loss
from wbansim.engine import (_ROW, _SCHEMES, ALIVE, CRITICAL, EQUILIBRIUM, EVENT_BLOCK,
                            MEAN_RESIDUAL, PATH_LOSS, RECEIVED, ROUND, SENT, SINK_ID,
                            TOTAL_RESIDUAL, equilibrium_flags, equilibrium_series,
                            run_simulation, summarize_run, throughput)
from wbansim.events import SensingSchedule


def cfg(**over):
    return replace(SimConfig(), **over)


def metrics_row(r, alive, sent=0, received=0):
    return (r, alive, sent, received, 0, 1.0, 1.0 / 19, math.nan, 1)


def table(rows):
    return np.array(rows, dtype=np.float64).reshape(-1, EQUILIBRIUM + 1)


def same_table(a, b):
    return np.array_equal(a, b, equal_nan=True)


class TestThroughput:
    @pytest.mark.parametrize("received,sent,expected",
                             [(100, 100, 100.0), (80, 100, 80.0), (0, 100, 0.0)])
    def test_ratio(self, received, sent, expected):
        assert throughput(received, sent) == expected

    def test_zero_sent_undefined(self):
        with pytest.raises(ValueError):
            throughput(0, 0)

    def test_received_beyond_sent_rejected(self):
        with pytest.raises(ValueError):
            throughput(5, 4)


class TestSummarizeRun:
    def test_first_death_at_index_two(self):
        rows = [metrics_row(0, 19), metrics_row(1, 19), metrics_row(2, 18)]
        s = summarize_run(table(rows), cfg(rounds=3))
        assert s.stability_period == 2

    def test_no_deaths_gives_sentinels(self):
        rows = [metrics_row(r, 19, sent=1, received=1) for r in range(5)]
        s = summarize_run(table(rows), cfg(rounds=5))
        assert s.stability_period == 5
        assert s.network_lifetime == 5
        assert s.throughput_pct == 100.0

    def test_lifetime_when_network_empties(self):
        rows = [metrics_row(r, 19 if r < 9000 else 0) for r in range(10000)]
        s = summarize_run(table(rows), cfg())
        assert s.network_lifetime == 9000

    def test_rounds_zero_degenerate(self):
        s = summarize_run(table([]), cfg(rounds=0))
        assert s.stability_period == 0
        assert s.network_lifetime == 0
        assert s.throughput_pct is None
        assert s.residual_pct_at_end == 100.0


class TestRunSimulation:
    def test_dispatch_knows_every_configured_protocol(self):
        """Validation and the CLI read config.PROTOCOLS, dispatch reads
        _SCHEMES: a name in one only would fail mid-run with a KeyError."""
        assert tuple(_SCHEMES) == PROTOCOLS

    def test_quiescent_round_after_round_zero(self):
        c = cfg(rounds=2, events=replace(SimConfig().events, lam=0.0))
        res = run_simulation(c)
        row1 = res.metrics[1]
        # No sensing period of 1 exists, so round 1 is silent; AMHRP's first
        # beacon exchange is not due yet either.
        assert row1[SENT] == 0
        assert row1[RECEIVED] == 0
        assert math.isnan(row1[PATH_LOSS])
        assert row1[TOTAL_RESIDUAL] == res.metrics[0, TOTAL_RESIDUAL]

    def test_single_node_charge_trace(self):
        # One canonical node 0.35 m from the sink: the round-0 reading costs
        # exactly one self-computation plus one destined send.
        c = cfg(rounds=1, node_count=1, placement="canonical",
                events=replace(SimConfig().events, lam=0.0))
        res = run_simulation(c)
        row = res.metrics[0]
        assert row[SENT] == 1
        assert row[RECEIVED] == 1
        w = c.energy
        expected = c.initial_energy - (w.x_s + w.x_d)
        assert row[TOTAL_RESIDUAL] == pytest.approx(expected, abs=1e-15)

    def test_all_dead_is_absorbing(self):
        # x_t above the initial charge kills every node on its first action.
        c = cfg(rounds=3, initial_energy=0.1)
        res = run_simulation(c)
        assert res.metrics[0, ALIVE] == 0
        assert res.metrics[1, ALIVE] == 0
        assert res.metrics[1, SENT] == 0
        assert res.metrics[2, SENT] == 0

    def test_determinism_same_seed(self):
        c = cfg(rounds=400)
        a = run_simulation(c)
        b = run_simulation(c)
        assert same_table(a.metrics, b.metrics)
        assert a.summary == b.summary

    def test_seed_changes_outcome(self):
        a = run_simulation(cfg(rounds=300, seed=1))
        b = run_simulation(cfg(rounds=300, seed=2))
        assert not same_table(a.metrics, b.metrics)

    @pytest.mark.parametrize("protocol", ["amhrp", "mattempt", "simple"])
    def test_conservation(self, protocol):
        c = cfg(rounds=1500, protocol=protocol)
        res = run_simulation(c)
        spent = c.node_count * c.initial_energy - res.metrics[-1, TOTAL_RESIDUAL]
        assert spent == pytest.approx(res.audit.drained_total, abs=1e-9)

    @pytest.mark.parametrize("protocol", ["amhrp", "mattempt", "simple"])
    def test_monotone_alive_and_residual(self, protocol):
        res = run_simulation(cfg(rounds=1200, protocol=protocol, seed=5))
        for a, b in zip(res.metrics, res.metrics[1:]):
            assert b[ALIVE] <= a[ALIVE]
            assert b[TOTAL_RESIDUAL] <= a[TOTAL_RESIDUAL] + 1e-15

    def test_received_never_exceeds_sent_per_round(self):
        res = run_simulation(cfg(rounds=1000, protocol="simple", seed=3))
        for m in res.metrics:
            assert m[RECEIVED] <= m[SENT]

    def test_cross_protocol_event_streams_identical(self):
        base = cfg(rounds=300, seed=11)
        logs = {}
        for protocol in ("amhrp", "mattempt", "simple"):
            logs[protocol] = walk_recorded(replace(base, protocol=protocol)).traffic
        assert logs["amhrp"] == logs["mattempt"] == logs["simple"]

    def test_all_transmitters_were_alive(self):
        links = walk_recorded(cfg(rounds=2000, seed=4)).links
        assert links, "expected some transmissions"
        assert all(alive for _, _, _, alive in links)

    @pytest.mark.parametrize("protocol,over", [
        ("amhrp", {}),
        ("amhrp", {"events": replace(SimConfig().events, lam=2.0),
                   "channel": replace(SimConfig().channel, sigma_db=4.0)}),
        ("mattempt", {"mattempt": replace(SimConfig().mattempt, temp_threshold=37.2)})],
        ids=["amhrp", "amhrp_storm", "mattempt_hot"])
    def test_links_log_sees_every_send(self, protocol, over):
        """The no-dead-sender and acyclic-forwarding checks read the links
        log, so every on-body send must reach it: each round's logged sends
        are its destined sends plus its forwards (c2 + c4). The M-ATTEMPT
        run's low threshold makes hotspot bounces; the AMHRP storm run has
        escalations (checked here) and a HOLD at a relay, after the walk has
        moved."""
        c = cfg(rounds=2000, seed=4, protocol=protocol, **over)
        _, _, links, actions = walk_recorded(c)
        counted = (actions[:, 1] + actions[:, 3]).tolist()
        assert sum(counted) > 0
        if over.get("events"):
            assert actions[:, 2].sum() > 0  # escalations
        assert sends_per_round(links, c.rounds) == counted

    def test_dead_network_rows_run_to_the_end(self):
        # x_t above the initial charge: every node dies in round 0, and the
        # run still has one row per round.
        c = cfg(rounds=50, initial_energy=0.1)
        res = run_simulation(c)
        assert len(res.metrics) == 50
        assert res.metrics[:, ROUND].tolist() == list(range(50))
        for m in res.metrics[1:]:
            assert m[[ALIVE, SENT, RECEIVED, CRITICAL, TOTAL_RESIDUAL,
                      MEAN_RESIDUAL]].tolist() == [0, 0, 0, 0, 0.0, 0.0]
            assert math.isnan(m[PATH_LOSS])
        assert res.summary.network_lifetime == 0

    def test_rounds_zero(self):
        res = run_simulation(cfg(rounds=0))
        assert res.metrics.shape == (0, EQUILIBRIUM + 1)
        assert res.summary.stability_period == 0

    def test_invalid_config_rejected(self):
        from wbansim.config import ConfigError
        with pytest.raises(ConfigError) as exc:
            run_simulation(cfg(rounds=-5))
        assert any("rounds" in v for v in exc.value.violations)
        # Validated before the protocol table is read: not a KeyError.
        with pytest.raises(ConfigError) as exc:
            run_simulation(cfg(protocol="foo"))
        assert any("sim.protocol" in v for v in exc.value.violations)

    def test_equilibrium_flag_present_each_round(self):
        res = run_simulation(cfg(rounds=120))
        assert set(res.metrics[:, EQUILIBRIUM].tolist()) <= {0.0, 1.0}
        # default alpha_star = 0 and a0 = 0.5 keep the diagnostic green here
        assert all(res.metrics[:, EQUILIBRIUM] == 1)


class TestEngineSpecializations:
    """The engine caches derived state on its hot path; these pin the cached
    behavior to the public contracts and the run's outputs to fingerprints."""

    @staticmethod
    def _dying_config(protocol, **over):
        # A thin energy budget and a high event rate: every node dies within
        # 300 rounds, at different rounds.
        base = SimConfig()
        return replace(base, protocol=protocol, seed=3, rounds=300,
                       initial_energy=0.482,
                       events=replace(base.events, lam=1.0), **over)

    # sha256 of the metrics CSV, the traffic and link logs and drained_total
    # on the dying configs. These runs cross paths of the packet walk that
    # the golden configs reach rarely: deaths mid-round for every protocol,
    # SIMPLE parking, and (hot variant) three M-ATTEMPT hotspot bounces.
    AUDIT_FINGERPRINTS = {
        "amhrp": "2eeca0af1b7b46934671ceb60a5a9d56c2070b1b84509a41003669e64e2f9d85",
        "mattempt": "5860588f2d670c3b0220459eeadd1772e208feab8b8e72b3ea628b480f7176d8",
        "simple": "48152b7c91deb6d1d21882bb2c96b1090096f62fc15f8da9e36a2f988bed4930",
        "mattempt_hot": "569df058770822be4d44021ba1f538adece80c990a650695ad9d8a7c86aad980",
    }

    @pytest.mark.parametrize("case", sorted(AUDIT_FINGERPRINTS))
    def test_audit_fingerprint(self, case, tmp_path):
        import hashlib

        from wbansim.io import write_metrics_csv

        protocol, _, variant = case.partition("_")
        over = {}
        if variant == "hot":
            over["mattempt"] = replace(SimConfig().mattempt, temp_threshold=37.2)
        res, traffic, links, _ = walk_recorded(self._dying_config(protocol, **over))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(res.metrics, path)
        text = "\n".join([
            path.read_text(encoding="utf-8"),
            *(",".join(map(str, row)) for row in traffic),
            *(",".join(map(str, row)) for row in links),
            repr(res.audit.drained_total),
        ])
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == self.AUDIT_FINGERPRINTS[case]

    def test_a_relay_at_the_threshold_is_not_hot(self):
        """M-ATTEMPT's hotspot check is strict. Drawn temperatures almost
        never hit ``temp_threshold``; these dyadic ones do, and a check with
        ``>=`` bounces one more packet (5820 received)."""
        base = SimConfig()
        p = replace(base.mattempt, ambient=37.0, cooling=0.5, delta_tx=0.25, delta_rx=0.25,
                    temp_threshold=37.5)
        res = run_simulation(replace(base, protocol="mattempt", seed=1, rounds=2000,
                                     mattempt=p))
        assert res.summary.packets_received_total == 5821

    def test_hopcount_cache_matches_fresh_bfs(self, monkeypatch):
        from wbansim.protocols import mattempt_build_hopcounts

        base = SimConfig()
        c = self._dying_config(
            "mattempt", mattempt=replace(base.mattempt, temp_threshold=37.2))
        builds = []

        def counted_build(*args, **kwargs):
            builds.append(args)
            return mattempt_build_hopcounts(*args, **kwargs)

        monkeypatch.setattr(engine, "mattempt_build_hopcounts", counted_build)
        sim = _SCHEMES["mattempt"](c)
        begin_round = sim.begin_round

        def checked_begin_round(rnd):
            begin_round(rnd)
            fresh = mattempt_build_hopcounts(usable_flags(sim.nodes, c.mattempt),
                                             *in_range_tables(sim.nodes, c.tx_range))
            assert sim.state.hop_counts == fresh.hop_counts, f"round {rnd}"

        sim.begin_round = checked_begin_round
        threshold = c.mattempt.temp_threshold
        heated = cooled = 0
        prev = [True] * sim.n
        alive_log = []
        for rnd in range(c.rounds):
            sim.run((rnd,))
            alive = sum(nd.alive for nd in sim.nodes)
            assert sim.alive_count == alive, f"round {rnd}"
            alive_log.append(alive)
            cool = [nd.temperature <= threshold for nd in sim.nodes]
            for nd, was, now in zip(sim.nodes, prev, cool):
                if nd.alive:
                    heated += was and not now
                    cooled += now and not was
            prev = cool
        # The run exercised every way the usable set changes, and the cache
        # still skipped most rebuilds.
        assert heated and cooled
        assert sim.alive_count == 0
        assert sim.table()[:, ALIVE].tolist() == alive_log
        assert len(builds) < c.rounds // 4

    @pytest.mark.parametrize("threshold", [37.2, 38.0])
    @pytest.mark.parametrize("hello_period", [1, 2, 3, 4, 5])
    def test_hopcount_rebuilds_follow_the_usable_set(self, hello_period, threshold,
                                                     monkeypatch):
        """Between hello rounds the usable set moves by deaths and by
        crossings of a hot threshold: at 37.2 mostly by crossings, at 38.0
        also by deaths of nodes that no crossing made unusable. At every
        hello round the hop counts are a fresh BFS's, and they were rebuilt
        exactly once when a node died or an alive node crossed the threshold
        since the last rebuild (or at the first hello round), else not at
        all, even when a crossing and a crossing back left the set as it
        was."""
        from wbansim.protocols import mattempt_build_hopcounts

        base = SimConfig()
        c = self._dying_config("mattempt", mattempt=replace(
            base.mattempt, temp_threshold=threshold, hello_period=hello_period))
        builds = []

        def counted_build(*args, **kwargs):
            builds.append(args)
            return mattempt_build_hopcounts(*args, **kwargs)

        monkeypatch.setattr(engine, "mattempt_build_hopcounts", counted_build)
        sim = _SCHEMES["mattempt"](c)
        begin_round = sim.begin_round
        # Whether a crossing happened since the last rebuild, and the alive
        # count that rebuild saw; None before the first one.
        since = {"crossed": False, "alive": None}
        hello_rounds = []

        def checked_begin_round(rnd):
            before = len(builds)
            begin_round(rnd)
            if rnd % hello_period:
                assert len(builds) == before, f"round {rnd}"
                return
            hello_rounds.append(rnd)
            alive = sum(nd.alive for nd in sim.nodes)
            due = since["crossed"] or alive != since["alive"]
            assert len(builds) - before == due, f"round {rnd}"
            if due:
                since.update(crossed=False, alive=alive)
            fresh = mattempt_build_hopcounts(usable_flags(sim.nodes, c.mattempt),
                                             *in_range_tables(sim.nodes, c.tx_range))
            assert sim.state.hop_counts == fresh.hop_counts, f"round {rnd}"

        sim.begin_round = checked_begin_round
        cool = [nd.temperature <= threshold for nd in sim.nodes]
        for rnd in range(c.rounds):
            if sim.alive_count == 0:
                break
            sim.run((rnd,))
            now = [nd.temperature <= threshold for nd in sim.nodes]
            if any(nd.alive and old != new for nd, old, new in zip(sim.nodes, cool, now)):
                since["crossed"] = True
            cool = now
        assert sim.alive_count == 0
        assert 1 < len(builds) < len(hello_rounds)

    def test_amhrp_closer_lists_match_full_neighbor_lists(self):
        from wbansim.core import PacketKind
        from wbansim.protocols import RouteAction, amhrp_select_forwarder

        c = self._dying_config("amhrp")
        sim = _SCHEMES["amhrp"](c)
        forwarded = 0
        alive_log = []
        for rnd in range(c.rounds):
            sim.run((rnd,))
            assert sim.alive_count == sum(nd.alive for nd in sim.nodes)
            alive_log.append(sim.alive_count)
            for nd in sim.nodes:
                if not nd.alive:
                    continue
                full = [sim.nodes[j] for j in sim.adjacency[nd.id] if sim.nodes[j].alive]
                for kind in (PacketKind.NORMAL, PacketKind.CRITICAL):
                    cached = amhrp_select_forwarder(nd, sim.neighbors[nd.id],
                                                    sim.d_sink, kind)
                    assert cached == amhrp_select_forwarder(nd, full, sim.d_sink,
                                                            kind), f"round {rnd}"
                    forwarded += cached.action is RouteAction.SEND_TO_FORWARDER
        assert forwarded
        assert sim.alive_count == 0
        assert sim.table()[:, ALIVE].tolist() == alive_log


def run_keeping_sim(config, monkeypatch):
    """``run_simulation(config)``'s result, and the one ``_Sim`` whose one
    ``run`` call walked it."""
    run, sims = engine._Sim.run, []

    def kept_run(sim, rounds):
        sims.append(sim)
        run(sim, rounds)

    monkeypatch.setattr(engine._Sim, "run", kept_run)
    result = run_simulation(config)
    [sim] = sims
    return result, sim


def walked_rounds(sim):
    """The round numbers of ``sim``'s walked rows, in walk order."""
    return np.frombuffer(sim.rows).reshape(-1, _ROW)[:, ROUND].astype(int).tolist()


_ENUMS = {"PacketKind", "SensorKind", "RouteAction", "LinkClass"}


def enum_member_reads(source):
    """The ``Enum.MEMBER`` reads inside function bodies of ``source``, as
    (function name, line, expression). A default argument, a decorator or a
    module-level alias is outside every body, so it is not listed."""
    import ast

    reads = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in fn.body:
            for expr in ast.walk(stmt):
                if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
                        and expr.value.id in _ENUMS):
                    reads.append((fn.name, expr.lineno, f"{expr.value.id}.{expr.attr}"))
    return reads


_DEATH_STATE = {"alive", "residual_energy", "alive_count", "drained_total"}


def death_state_writes(source):
    """The writes to a node's ``alive`` or ``residual_energy``, or to
    ``alive_count`` or ``drained_total``, in the functions and methods of
    ``source``, as (function, line, attribute), a method named with its
    class. Those in ``_Sim.charge`` and in an ``__init__`` are not listed."""
    import ast

    tree = ast.parse(source)
    functions = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    functions += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
                  if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    return sorted(((name, node.lineno, node.attr) for name, fn in functions
                   if name != "_Sim.charge" and fn.name != "__init__"
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                   and node.attr in _DEATH_STATE), key=lambda write: write[1])


class TestHotLoopRules:
    """The engine's hot-loop rules (see its module docstring) that a static
    check or a call count can hold."""

    @pytest.mark.parametrize("module", ["engine", "protocols"])
    def test_only_the_death_rule_writes_death_state(self, module):
        import importlib
        from pathlib import Path

        path = Path(importlib.import_module(f"wbansim.{module}").__file__)
        assert death_state_writes(path.read_text(encoding="utf-8")) == []

    def test_the_death_state_check_sees_every_write(self):
        source = (
            "class _Sim:\n"
            "    def __init__(self):\n"
            "        self.alive_count = 0\n"
            "    def charge(self, node):\n"
            "        node.alive = False\n"
            "    def run(self, node):\n"
            "        self.drained_total += 1.0\n"
            "        if node:\n"
            "            node.residual_energy, x = 0.0, 1\n"
            "class _Other(_Sim):\n"
            "    def charge(self, node):\n"
            "        node.alive: bool = False\n"
            "def step(nodes):\n"
            "    def inner(nd):\n"
            "        nd.temperature = nd.alive_count = 1\n"
            "    return inner\n"
        )
        assert death_state_writes(source) == [
            ("_Sim.run", 7, "drained_total"),
            ("_Sim.run", 9, "residual_energy"),
            ("_Other.charge", 12, "alive"),
            ("step", 15, "alive_count"),
        ]

    @pytest.mark.parametrize("module", ["engine", "protocols"])
    def test_no_enum_member_read_in_a_function_body(self, module):
        import importlib
        from pathlib import Path

        path = Path(importlib.import_module(f"wbansim.{module}").__file__)
        assert enum_member_reads(path.read_text(encoding="utf-8")) == []

    def test_the_check_sees_reads_in_nested_bodies(self):
        source = (
            "X = PacketKind.CRITICAL\n"
            "def f(k=PacketKind.NORMAL):\n"
            "    return k is X\n"
            "class C:\n"
            "    def g(self, k):\n"
            "        if k:\n"
            "            return lambda: LinkClass.LOS\n"
            "        return [n for n in k if n is SensorKind.ECG]\n"
        )
        assert enum_member_reads(source) == [("g", 7, "LinkClass.LOS"),
                                             ("g", 8, "SensorKind.ECG")]

    def test_control_exchange_is_one_charge_call(self, monkeypatch):
        """A default SIMPLE run exchanges control packets every round: each
        walked round's exchange is one call of the every-alive form, not one
        call per alive node (a per-node exchange makes 90704 calls here)."""
        charge = engine._Sim.charge
        calls, every_alive = [0], [0]

        def counted_charge(sim, node, cost):
            calls[0] += 1
            every_alive[0] += node is None
            charge(sim, node, cost)

        monkeypatch.setattr(engine._Sim, "charge", counted_charge)
        _, sim = run_keeping_sim(cfg(protocol="simple", seed=1), monkeypatch)
        control_rounds = sum(rnd % sim.cfg.simple.control_period == 0
                             for rnd in walked_rounds(sim))
        assert control_rounds > 0
        assert every_alive[0] == control_rounds
        assert calls[0] <= 30000

    @pytest.mark.parametrize("case", ["simple_default", "amhrp_storm"])
    def test_routing_is_one_run_call_per_simulation(self, case, monkeypatch):
        """A run walks all its rounds, and routes all their packets, in one
        ``run`` call; no per-round or per-packet routing method is left."""
        c = (cfg(protocol="simple", seed=1) if case == "simple_default"
             else _tail_config("storm", "amhrp", 1))
        res, sim = run_keeping_sim(c, monkeypatch)
        assert res.summary.packets_sent_total > 0
        assert walked_rounds(sim)
        for name in ("run_round", "route_round", "_route_packet"):
            assert not hasattr(engine._Sim, name), name

    def test_a_walked_round_packs_its_row_in_column_order(self):
        """A one-round ``run`` leaves one ``_ROW``-wide entry in ``sim.rows``:
        the round's columns before the flag, path loss NaN until it is
        filled, then its action counts c1..c5. The round's counts are set to
        distinct values after its walk, so a wrong field count, order or byte
        order in the row pack fails here."""
        sim = _SCHEMES["amhrp"](cfg(events=replace(SimConfig().events, lam=2.0)))
        distinct = {"round_sent": 3, "round_received": 2, "round_critical": 1,
                    "c1": 31, "c2": 32, "c3": 33, "c4": 34, "c5": 35}

        def end_round(rnd):
            for name, value in distinct.items():
                setattr(sim, name, value)

        sim.end_round = end_round
        sim.run((11,))
        total = 0.0
        for nd in sim.nodes:
            total += nd.residual_energy
        row = np.frombuffer(sim.rows)
        assert len(row) == _ROW
        assert np.isnan(row[PATH_LOSS])
        assert np.array_equal(row, [11, 19, 3, 2, 1, total, total / 19, math.nan,
                                    31, 32, 33, 34, 35], equal_nan=True)

    def test_a_walk_past_the_hop_bound_raises(self, monkeypatch):
        """A walk that never ends trips the engine-bug guard: here a decide
        rule that always forwards to the other of two nodes, set as the
        engine's AMHRP rule, which ``run`` reads when it binds it."""
        from wbansim.protocols import to_forwarder

        c = cfg(protocol="amhrp", node_count=2, rounds=1, initial_energy=1e6)
        sim = _SCHEMES["amhrp"](c)
        monkeypatch.setattr(engine, "amhrp_select_forwarder",
                            lambda holder, neighbors, d_sink, kind: to_forwarder(1 - holder.id))
        with pytest.raises(RuntimeError, match=r"^routing did not terminate \(engine bug\)$"):
            sim.run((0,))


def _tail_config(case, protocol, seed):
    """A run whose network dies well before its last round (except AMHRP
    in the ``hot`` case, which keeps survivors)."""
    base = SimConfig()
    if case == "dying":
        # alpha_star at a0: the flag reads the sign of the series, so it
        # moves while live windows are in it and is False once they are out.
        return replace(base, protocol=protocol, seed=seed, rounds=1000,
                       initial_energy=0.482, events=replace(base.events, lam=1.0),
                       amhrp=replace(base.amhrp, alpha_star=0.482))
    if case == "storm":
        return replace(base, protocol=protocol, seed=seed, rounds=2000,
                       events=replace(base.events, lam=2.0),
                       channel=replace(base.channel, sigma_db=4.0))
    return replace(base, protocol=protocol, seed=seed, rounds=4500,
                   mattempt=replace(base.mattempt, temp_threshold=37.2))


class TestDeadTail:
    """Once every node is dead the engine writes the remaining rows in one
    pass; the recorded walk runs every round and is the reference."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("protocol", ["amhrp", "mattempt", "simple"])
    @pytest.mark.parametrize("case", ["dying", "storm", "hot"])
    def test_tail_equals_full_walk(self, case, protocol, seed):
        c = _tail_config(case, protocol, seed)
        tail = run_simulation(c)
        walked = walk_recorded(c).result
        assert len(tail.metrics) == c.rounds
        assert same_table(tail.metrics, walked.metrics)
        assert tail.summary == walked.summary
        assert tail.audit.drained_total == walked.audit.drained_total

    def test_dying_case_flag_moves_in_the_tail(self):
        # Guards the test above: its flags change after the last death, so a
        # tail that stopped rolling the windows would show.
        res = run_simulation(_tail_config("dying", "amhrp", 1))
        after = res.metrics[res.summary.network_lifetime + 1:, EQUILIBRIUM].tolist()
        assert 1.0 in after and after[-1] == 0.0

    @pytest.mark.parametrize("protocol", ["amhrp", "mattempt", "simple"])
    def test_rounds_after_the_last_death_are_not_walked(self, protocol, monkeypatch):
        c = _tail_config("dying", protocol, 1)
        res, sim = run_keeping_sim(c, monkeypatch)
        lifetime = res.summary.network_lifetime
        assert lifetime < c.rounds
        assert len(sim.rows) // _ROW == lifetime + 1
        assert walked_rounds(sim) == list(range(lifetime + 1))

    def test_flat_series_flag_equals_the_series(self):
        base = SimConfig()
        pushed = [(3, 2, 0, 4, 1)] * 10 + [(0, 0, 0, 0, 0)] * 15
        for alpha_star in (0.2, 0.5, 0.7):
            c = replace(base, rounds=60, initial_energy=0.5,
                        amhrp=replace(base.amhrp, alpha_star=alpha_star, eq_windows=2,
                                      eq_window_len=5))
            flags = equilibrium_flags(np.array(pushed), c)
            eq = EquilibriumTracker(c)
            L = eq.L
            checked = {"flat": 0, "live": 0}

            def check():
                terms = all_terms(eq)
                flat = not any(a or b for _n, a, b in terms)
                checked["flat" if flat else "live"] += 1
                for x in range(L + 1):
                    assert eq.flag(x) == series_flag(eq, terms, x), (alpha_star, x)
                return terms

            check()  # the initial tracker has no windows
            for r, counts in enumerate(pushed):
                eq.push_round(*counts)
                assert flags[r] == series_flag(eq, check(), r), (alpha_star, r)
            assert all_terms(eq) == ((1, 0.0, 0.0), (2, 0.0, 0.0))
            assert checked["flat"] and checked["live"]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.one_of(st.just((0, 0, 0, 0, 0)), st.tuples(*[st.integers(0, 6)] * 5)),
                    max_size=40),
           st.floats(-1.0, 2.0), st.integers(1, 5), st.integers(1, 6), st.integers(1, 60))
    # The flag cut's boundary (``quiet`` in ``equilibrium_flags``): k rounds a
    # multiple of the window length W, and one more or less; eq_windows below,
    # equal to and above the number of closed windows; alpha_star at a0 = 0.5
    # and the float below it. In the first example the series of the last
    # round holds one window, that round's own, so a cut one round early
    # flips its flag.
    @example([(0, 1, 0, 0, 0)] * 3, 0.5, 1, 1, 60)
    @example([(1, 1, 0, 1, 0)] * 6, math.nextafter(0.5, -math.inf), 2, 3, 6)
    @example([(0, 2, 0, 1, 1)] * 7, 0.5, 3, 3, 20)
    @example([(0, 0, 0, 0, 0)] * 4 + [(0, 1, 0, 0, 0)], math.nextafter(0.5, -math.inf), 1, 3, 5)
    def test_flag_equals_the_series(self, rounds_counts, alpha_star, eq_windows,
                                    eq_window_len, rounds):
        """Each round's flag from drawn count columns, which leaves out zero
        terms, is the full series over the windows closed by then (zero-total
        windows included); so is the tracker's flag at every x after every
        pushed round."""
        base = SimConfig()
        c = replace(base, rounds=rounds, initial_energy=0.5,
                    amhrp=replace(base.amhrp, alpha_star=alpha_star, eq_windows=eq_windows,
                                  eq_window_len=eq_window_len))
        flags = equilibrium_flags(np.array(rounds_counts, dtype=np.int64).reshape(-1, 5), c)
        assert flags.shape == (len(rounds_counts),)
        eq = EquilibriumTracker(c)
        for r, counts in enumerate([None] + rounds_counts, start=-1):
            if counts is not None:
                eq.push_round(*counts)
            terms = all_terms(eq)
            for x in range(eq.L + 3):
                assert eq.flag(x) == series_flag(eq, terms, x), x
            if counts is not None:
                assert flags[r] == series_flag(eq, terms, r), r

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 6)] * 5), max_size=40), st.integers(0, 30),
           st.integers(1, 7), st.integers(1, 5), st.integers(1, 6), st.floats(-1.0, 2.0))
    # As for the series test above, at the cut's boundary. In the first three
    # examples the last round before the cut still holds a live window, so a
    # cut one round early flips its flag; the last has no counted round and
    # no window that closes.
    @example([(0, 1, 0, 0, 0)] * 4, 10, 3, 1, 2, 0.5)
    @example([(0, 1, 0, 0, 0)] * 5, 4, 1, 1, 2, math.nextafter(0.5, -math.inf))
    @example([(2, 3, 0, 0, 0)] * 5, 20, 4, 2, 3, 0.55)
    @example([(1, 1, 1, 1, 1)] * 6, 6, 2, 4, 3, 0.5)
    @example([(0, 1, 0, 0, 0)] * 7, 5, 7, 5, 3, math.nextafter(0.5, -math.inf))
    @example([], 5, 1, 1, 6, 0.55)
    def test_chunks_and_uncounted_rounds_change_no_flag(self, rounds_counts, uncounted, chunk,
                                                        eq_windows, eq_window_len, alpha_star):
        """Flags taken ``chunk`` rounds at a time, with the last rounds given
        as uncounted rather than as zero counts, are the flags of one pass."""
        base = SimConfig()
        rows = len(rounds_counts) + uncounted
        c = replace(base, rounds=rows, initial_energy=0.5,
                    amhrp=replace(base.amhrp, alpha_star=alpha_star, eq_windows=eq_windows,
                                  eq_window_len=eq_window_len))
        counts = np.array(rounds_counts, dtype=np.int64).reshape(-1, 5)
        padded = np.vstack([counts, np.zeros((uncounted, 5), dtype=np.int64)])
        with mock.patch.object(engine, "_FLAG_CHUNK", chunk):
            chunked = equilibrium_flags(counts, c, rows)
        assert chunked.tolist() == equilibrium_flags(padded, c).tolist()

    @pytest.mark.parametrize("toward", [math.inf, -math.inf])
    def test_flags_hold_when_sin_and_cos_are_two_ulp_off(self, toward, monkeypatch):
        """np.sin and np.cos may round otherwise than math.sin and math.cos.
        alpha_star is set to one live round's exact sum (or the float just
        below it), where sines and cosines 2 ulp off move the sum across
        alpha_star; the flags still equal the tracker's."""
        c = _tail_config("dying", "amhrp", 1)
        sim = _SCHEMES["amhrp"](c)
        for rnd in range(c.rounds):
            sim.run((rnd,))
        # Each walked round's entry ends with its action counts c1..c5.
        counts = np.frombuffer(sim.rows).reshape(c.rounds, -1)[:, -5:].astype(np.int64)

        def off(f):
            return lambda v: np.nextafter(np.nextafter(f(v), toward), toward)

        eq = EquilibriumTracker(c)
        exact, moved = [], []
        for r, row in enumerate(counts.tolist()):
            eq.push_round(*row)
            exact.append(equilibrium_series(eq.a0, eq.terms, r, eq.L))
            base = math.pi * r / eq.L
            moved.append(eq.a0 + sum(a * off(math.sin)(n * base) + b * off(math.cos)(n * base)
                                     for n, a, b in eq.terms))
        r = next(r for r in range(c.rounds) if moved[r] != exact[r])
        alpha_star = exact[r] if toward > 0 else math.nextafter(exact[r], -math.inf)
        c = replace(c, amhrp=replace(c.amhrp, alpha_star=alpha_star))
        want = [x > alpha_star for x in exact]
        assert (moved[r] > alpha_star) != want[r]

        monkeypatch.setattr(np, "sin", off(np.sin))
        monkeypatch.setattr(np, "cos", off(np.cos))
        assert equilibrium_flags(counts, c).tolist() == want
        assert run_simulation(c).metrics[:, EQUILIBRIUM].tolist() == want

    def test_huge_window_count_reads_as_any_count_above_the_closes(self):
        # 200 rounds close 4 windows of 50, so any eq_windows >= 4 keeps them
        # all; 10**20 exceeds what a deque's length can hold.
        base = SimConfig()
        runs = [run_simulation(replace(base, rounds=200,
                                       amhrp=replace(base.amhrp, alpha_star=0.51,
                                                     eq_windows=windows, eq_window_len=50)))
                for windows in (4, 10**20)]
        assert same_table(runs[0].metrics, runs[1].metrics)
        assert runs[0].summary == runs[1].summary and runs[0].audit == runs[1].audit
        assert len(set(runs[0].metrics[:, EQUILIBRIUM].tolist())) == 2


    def test_huge_window_length_reads_as_one_longer_than_the_run(self):
        # A window longer than the run never closes; 2**63 is past int64.
        base = SimConfig()
        runs = [run_simulation(replace(base, rounds=300,
                                       amhrp=replace(base.amhrp, eq_window_len=length)))
                for length in (301, 2**63, 10**400)]
        # The flags, and with them every other column, read the same.
        assert all(same_table(run.metrics, runs[0].metrics) for run in runs[1:])


class EquilibriumTracker:
    """The reference for ``equilibrium_flags``: rolls the last l
    traffic-mix windows into the diagnostic series one round at a time.
    a_n is window n's forward share, b_n its destined-send share, and the
    round's flag is ``equilibrium_series(a0, terms, x, L) > alpha_star``."""

    def __init__(self, cfg: SimConfig):
        self.a0 = cfg.initial_energy
        self.L = max(1, cfg.rounds)
        self.alpha_star = cfg.amhrp.alpha_star
        self.window_len = cfg.amhrp.eq_window_len
        # A run closes at most rounds // eq_window_len windows, so capping
        # the length at the largest one deque takes reads the same.
        self.windows: deque[tuple[int, int, int]] = deque(
            maxlen=min(cfg.amhrp.eq_windows, sys.maxsize))
        self.cur_total = 0
        self.cur_forwards = 0
        self.cur_sends = 0
        self.rounds_in_window = 0
        self.terms: tuple[tuple[int, float, float], ...] = ()

    def push_round(self, n1: int, n2: int, n3: int, n4: int, n5: int) -> None:
        """Add one round's action counts c1..c5, as in the engine's rows."""
        self.cur_total += n1 + n2 + n3 + n4 + n5
        self.cur_forwards += n4
        self.cur_sends += n2
        self.rounds_in_window += 1
        if self.rounds_in_window >= self.window_len:
            self.windows.append((self.cur_forwards, self.cur_sends, self.cur_total))
            self.cur_total = self.cur_forwards = self.cur_sends = 0
            self.rounds_in_window = 0
            self.terms = tuple((n, f / t, s / t)
                               for n, (f, s, t) in enumerate(self.windows, start=1)
                               if t and (f or s))

    def flag(self, round_index: int) -> bool:
        L = self.L
        return equilibrium_series(self.a0, self.terms, min(round_index, L), L) > self.alpha_star


def all_terms(eq):
    """Every window's ``(n, a_n, b_n)``, the 0.0 coefficients included."""
    return tuple((n, f / t if t else 0.0, s / t if t else 0.0)
                 for n, (f, s, t) in enumerate(eq.windows, start=1))


def series_flag(eq, terms, x):
    return equilibrium_series(eq.a0, terms, min(x, eq.L), eq.L) > eq.alpha_star


# The relations' explicit examples: a default run, and a config whose
# channel, flag and scheme keys all differ from the default's.
_SEED_2 = replace(SimConfig(), seed=2)
_KEYS_SET = replace(
    SimConfig(), nlos_pairs=((0, 5), (3, 7)),
    channel=replace(SimConfig().channel, d0=0.2, exponent_los=3.0, sigma_db=4.0),
    amhrp=replace(SimConfig().amhrp, control_period=3, alpha_star=0.52, eq_windows=4,
                  eq_window_len=20),
    mattempt=replace(SimConfig().mattempt, hello_period=2, temp_threshold=37.0),
    simple=replace(SimConfig().simple, control_period=3))


class TestRunProperty:
    """Run invariants over the whole valid config space (short runs, a
    bounded event rate to keep each example small)."""

    @settings(max_examples=60, deadline=None)
    @given(valid_configs(), st.integers(0, 400), st.floats(0.0, 5.0))
    @example(replace(_SEED_2, schedule=SensingSchedule(dict.fromkeys(SensorKind, 1))), 200, 0.0)
    @example(replace(_SEED_2, schedule=SensingSchedule(dict.fromkeys(SensorKind, 10**4))),
             200, 5.0)
    def test_tail_conservation_and_delivery(self, c, rounds, lam):
        c = replace(c, rounds=rounds, events=replace(c.events, lam=lam))
        tail = run_simulation(c)
        walked, traffic, links, actions = walk_recorded(c)
        assert same_table(tail.metrics, walked.metrics)
        assert tail.summary == walked.summary
        # A rerun of the rendered and re-parsed config behaves the same.
        again = run_simulation(parse_config(render_config(c)))
        assert same_table(again.metrics, tail.metrics)
        assert again.summary == tail.summary
        assert again.audit.drained_total == tail.audit.drained_total
        assert len(tail.metrics) == rounds
        spent = c.node_count * c.initial_energy - tail.summary.final_total_residual
        assert spent == pytest.approx(tail.audit.drained_total, abs=1e-9)
        assert all(tail.metrics[:, RECEIVED] <= tail.metrics[:, SENT])
        assert tail.summary.packets_received_total <= tail.summary.packets_sent_total
        assert all(alive for _, _, _, alive in links)
        if c.protocol != "simple":  # SIMPLE's uplink is one send for c4 parked packets
            assert sends_per_round(links, rounds) == (actions[:, 1] + actions[:, 3]).tolist()
        # Each round's on-body forwarding graph is acyclic; M-ATTEMPT's
        # hotspot bounce sends a packet back on purpose, a 2-cycle.
        if c.protocol != "mattempt":
            assert forwarding_acyclic(links)
        # The walk picks its originators from the logged stream: a round
        # senses at most its logged events and due readings, and exactly
        # those when no node dies in it or before it.
        readings = np.zeros(rounds, dtype=np.int64)
        for rnd, _, k, due in traffic:
            readings[rnd] += k + due
        assert all(actions[:, 0] <= readings)
        full = walked.metrics[:, ALIVE] == c.node_count
        assert np.array_equal(actions[full, 0], readings[full])

    @settings(max_examples=30, deadline=None)
    @given(valid_configs(), st.integers(0, 150), st.integers(1, 150), st.floats(0.0, 5.0))
    def test_a_shorter_run_is_a_prefix_of_a_longer_one(self, c, rounds, more, lam):
        """No round reads the run's length, so a run of R rounds is the first
        R rows of a longer run. The flag is left out: its series spans
        L = rounds."""
        c = replace(c, rounds=rounds + more, events=replace(c.events, lam=lam))
        longer = run_simulation(c).metrics
        shorter = run_simulation(replace(c, rounds=rounds)).metrics
        assert np.array_equal(shorter[:, :EQUILIBRIUM], longer[:rounds, :EQUILIBRIUM],
                              equal_nan=True)

    @settings(max_examples=30, deadline=None)
    @given(valid_configs(), st.sampled_from(PROTOCOLS), st.integers(0, 200),
           st.floats(0.0, 5.0), st.booleans(), st.lists(st.integers(0, 200), max_size=6),
           st.integers(1, 20))
    def test_a_run_split_across_calls_is_one_call(self, c, protocol, rounds, lam, lasting,
                                                  cuts, chunk):
        """``run`` binds its hooks, tables and weights when it starts. Rounds
        split across several calls, each started while a node is alive,
        give the table bytes, summary and joules drained of one call, so
        nothing bound goes stale when a hook replaces state (M-ATTEMPT's
        ``heat_tx`` lists, the round's link dict) or when the link log,
        filled every ``chunk`` rounds, starts anew. Half the draws take the
        default energy budget, so the splits fall in live rounds too."""
        c = replace(c, protocol=protocol, rounds=rounds, events=replace(c.events, lam=lam))
        if lasting:
            c = replace(c, initial_energy=_SEED_2.initial_energy, energy=_SEED_2.energy)
        with mock.patch.object(engine, "_LOSS_CHUNK", chunk):
            whole = run_simulation(c)
            sim = _SCHEMES[protocol](c)
            bounds = sorted({0, rounds, *(min(cut, rounds) for cut in cuts)})
            for start, end in zip(bounds, bounds[1:]):
                if sim.alive_count == 0:
                    break
                sim.run(range(start, end))
            table = sim.table()
        assert table.tobytes() == whole.metrics.tobytes()
        assert summarize_run(table, c) == whole.summary
        assert repr(sim.drained_total) == repr(whole.audit.drained_total)

    @settings(max_examples=12, deadline=None)
    @given(valid_configs(), valid_configs(), st.integers(0, 200), st.floats(0.0, 5.0),
           st.booleans())
    @example(_SEED_2, _KEYS_SET, 200, 0.1, True)
    @example(replace(_SEED_2, protocol="mattempt"), _KEYS_SET, 200, 0.1, True)
    @example(replace(_SEED_2, protocol="simple"), _KEYS_SET, 200, 0.1, True)
    def test_each_key_moves_only_its_own_column(self, c, other, rounds, lam, lasting):
        """Keys set from another valid config: the ``[channel]`` keys and the
        NLOS pairs move only ``mean_path_loss_db``, the flag's keys
        (``amhrp.alpha_star``, ``eq_windows``, ``eq_window_len``) only
        ``equilibrium_ok``, and the other schemes' keys nothing. The summary
        and the joules drained never move. A drawn config's network often
        dies within a few rounds, so half the draws take the default energy
        budget, and the explicit examples move both columns in every
        protocol."""
        c = replace(c, rounds=rounds, events=replace(c.events, lam=lam))
        if lasting:
            c = replace(c, initial_energy=_SEED_2.initial_energy, energy=_SEED_2.energy)
        base = run_simulation(c)
        schemes = {"amhrp": replace(c.amhrp, control_period=other.amhrp.control_period),
                   "mattempt": other.mattempt, "simple": other.simple}
        del schemes[c.protocol]
        flag = {k: getattr(other.amhrp, k) for k in ("alpha_star", "eq_windows", "eq_window_len")}
        variants = {
            PATH_LOSS: replace(c, channel=other.channel, nlos_pairs=tuple(
                p for p in other.nlos_pairs if max(p) < c.node_count)),
            EQUILIBRIUM: replace(c, amhrp=replace(c.amhrp, **flag)),
            None: replace(c, **schemes),
        }
        for moved, variant in variants.items():
            run = run_simulation(variant)
            kept = [col for col in range(EQUILIBRIUM + 1) if col != moved]
            assert run.metrics[:, kept].tobytes() == base.metrics[:, kept].tobytes(), moved
            assert run.summary == base.summary
            assert run.audit == base.audit

    @settings(max_examples=30, deadline=None)
    @given(valid_configs(), st.integers(0, 150), st.floats(0.0, 5.0), st.sampled_from([-3, 2]))
    def test_power_of_two_energy_scaling_is_exact(self, c, rounds, lam, k):
        """Scaling ``initial_energy`` and every ``x_*`` weight by 2**k scales
        every residual and every joule drained by exactly 2**k, and leaves
        every death, routing choice and count as it was: binary scaling is
        exact barring overflow and subnormals (Goldberg, ACM CSUR 23(1),
        1991). The flag is left out: its series adds ``a0 = initial_energy``
        to unit-free traffic shares."""
        w = c.energy
        # A nonzero weight of at least 2**-900 keeps every residual, cost and
        # sum a multiple of 2**-952, so a normal float, after the scaling too.
        assume(all(v == 0.0 or v >= 2.0**-900 for v in astuple(w)))
        c = replace(c, rounds=rounds, events=replace(c.events, lam=lam))
        scale = 2.0**k
        scaled = replace(c, initial_energy=c.initial_energy * scale,
                         energy=EnergyWeights(*(v * scale for v in astuple(w))))
        base, run = run_simulation(c), run_simulation(scaled)
        energy = [TOTAL_RESIDUAL, MEAN_RESIDUAL]
        rest = [ROUND, ALIVE, SENT, RECEIVED, CRITICAL, PATH_LOSS]
        assert np.array_equal(run.metrics[:, energy], base.metrics[:, energy] * scale)
        assert np.array_equal(run.metrics[:, rest], base.metrics[:, rest], equal_nan=True)
        assert run.audit.drained_total == base.audit.drained_total * scale
        assert run.summary == replace(
            base.summary, final_total_residual=base.summary.final_total_residual * scale)


class _CountingRng:
    """A generator that counts the uniforms taken from it."""

    def __init__(self, rng):
        self.rng = rng
        self.used = 0

    def random(self, size=None):
        self.used += 1 if size is None else size
        return self.rng.random(size)


# Uniforms one reading takes from the events stream, written out here rather
# than read from ``events.reading_draws``, so the walk checks that contract.
_BP_READING_DRAWS = 2  # systolic, diastolic
_READING_DRAWS = 1     # every other kind


def _walk_events_stream(c):
    """The events stream drawn call by call: each round one count per node,
    then in id order the uniforms of every due reading and every event's
    reading. Returns the traffic log, the uniforms used and the most uniforms
    one round used."""
    import numpy as np

    from wbansim.core import build_topology
    from wbansim.events import invert_poisson, poisson_cdf_table

    topo_ss, events_ss, _ = np.random.SeedSequence(c.seed).spawn(3)
    nodes = build_topology(c, np.random.Generator(np.random.PCG64(topo_ss)))
    rng = _CountingRng(np.random.Generator(np.random.PCG64(events_ss)))
    cdf = poisson_cdf_table(c.events.lam)
    periods = c.schedule.resolve(c.events.rounds_per_day)
    log, widest = [], 0
    for rnd in range(c.rounds):
        before = rng.used
        counts = invert_poisson(cdf, rng.random(len(nodes))).tolist()
        for nd, k in zip(nodes, counts):
            due = rnd % periods[nd.kind] == 0
            log.append((rnd, nd.id, k, due))
            draws = (_BP_READING_DRAWS if nd.kind is SensorKind.BLOOD_PRESSURE
                     else _READING_DRAWS)
            for _ in range((due + k) * draws):
                rng.random()
        widest = max(widest, rng.used - before)
    return log, rng.used, widest


class TestEventStream:
    """The engine serves the events stream from blocks and skips the
    readings' uniforms; its traffic log must equal the call-by-call walk."""

    # (lambda, placement, node_count, rounds_per_day, rounds); node 1 of
    # either placement carries blood pressure, so every case mixes 2-draw
    # and 1-draw readings.
    CASES = [
        (0.0, "uniform", 19, 24, 700),
        (0.1, "canonical", 3, 1, 2000),
        (0.1, "uniform", 19, 24, 800),
        (2.0, "uniform", 19, 24, 300),
        (2.0, "canonical", 3, 1, 1200),
        (300.0, "canonical", 19, 1, 6),
        (300.0, "uniform", 3, 24, 20),
    ]

    @pytest.mark.parametrize("lam,placement,n,rpd,rounds", CASES)
    def test_traffic_log_matches_call_by_call_walk(self, lam, placement, n, rpd, rounds):
        from wbansim.core import ALL_KINDS

        assert SensorKind.BLOOD_PRESSURE in ALL_KINDS[:n]
        base = SimConfig()
        c = replace(base, rounds=rounds, seed=5, node_count=n, placement=placement,
                    events=replace(base.events, lam=lam, rounds_per_day=rpd))
        log, used, widest = _walk_events_stream(c)
        assert used > 3 * EVENT_BLOCK  # the run crosses several blocks
        if lam == 300.0 and n == 19:
            assert widest > EVENT_BLOCK  # one round skips past a whole block
        assert walk_recorded(c).traffic == log

    # Each step is (m, skip): read m counts, then push the cursor on by
    # skip, as a round's reading skip does.
    CURSOR_CASES = {
        "m ends at the block end": [(EVENT_BLOCK - 10, 0), (10, 0), (5, 0)],
        "m straddles the block end": [(EVENT_BLOCK - 10, 0), (11, 0), (EVENT_BLOCK - 5, 0),
                                      (25, 0)],
        "a skip pushes the cursor past the end": [(19, EVENT_BLOCK - 16), (4, 0),
                                                  (2, 2 * EVENT_BLOCK), (30, 0)],
        "a skip lands on the block end": [(19, EVENT_BLOCK - 19), (5, 0), (7, 0)],
        "a skip lands two blocks on": [(19, 2 * EVENT_BLOCK - 19), (5, 0), (7, 0)],
    }

    @pytest.mark.parametrize("case", CURSOR_CASES)
    def test_event_counts_read_one_long_stream(self, case):
        """``_event_counts`` serves the events stream as if it were one long
        ``Generator.random`` call inverted to counts, whatever the block
        boundaries."""
        from wbansim.events import invert_poisson, poisson_cdf_table

        c = cfg(events=replace(SimConfig().events, lam=2.0))
        sim = _SCHEMES["amhrp"](c)
        _, events_ss, _ = np.random.SeedSequence(c.seed).spawn(3)
        uniforms = np.random.Generator(np.random.PCG64(events_ss)).random(4 * EVENT_BLOCK)
        stream = invert_poisson(poisson_cdf_table(c.events.lam), uniforms).tolist()
        at = 0
        for m, skip in self.CURSOR_CASES[case]:
            assert sim._event_counts(m) == stream[at:at + m]
            at += m + skip
            sim._event_pos += skip
        assert len(set(stream[:at])) > 2  # the counts vary, so an offset shows


def path_loss_oracle(c, links):
    """Each round's mean path loss rebuilt from a links log: the round's
    distinct links in first-send order, each one's ``channel.path_loss``
    plus its value from one draw per round on the run's shadowing stream,
    added one by one from 0.0. A zero-length link takes its draw and is left
    out; a round with no link left reads NaN."""
    from wbansim.channel import LinkClass
    from wbansim.core import distance

    topo_ss, _, shadow_ss = np.random.SeedSequence(c.seed).spawn(3)
    # The engine's own name, so a test that moves the nodes moves them here.
    nodes = engine.build_topology(c, np.random.Generator(np.random.PCG64(topo_ss)))
    shadow = np.random.Generator(np.random.PCG64(shadow_ss))
    nlos = {frozenset(p) for p in c.nlos_pairs}
    per_round = [{} for _ in range(c.rounds)]
    for rnd, tx, rx, _ in links:
        per_round[rnd][(tx, rx)] = None
    sigma = c.channel.sigma_db
    means = []
    for pairs in per_round:
        draws = shadow.normal(0.0, sigma, size=len(pairs)) if sigma > 0 else [0.0] * len(pairs)
        total, used = 0.0, 0
        for (tx, rx), x in zip(pairs, draws):
            if rx == SINK_ID:
                d, link = distance(nodes[tx].position, SINK_POSITION), LinkClass.LOS
            else:
                d = distance(nodes[tx].position, nodes[rx].position)
                link = LinkClass.NLOS if frozenset((tx, rx)) in nlos else LinkClass.LOS
            if d > 0:
                total += path_loss(c.channel, d, link) + float(x)
                used += 1
        means.append(total / used if used else math.nan)
    return np.array(means, dtype=np.float64)


class TestPathLoss:
    """The path-loss column is computed from the link log, a block of
    rounds at a time; a round-by-round rebuild from the recorded sends is
    the reference."""

    @settings(max_examples=40, deadline=None)
    @given(valid_configs(), st.sampled_from(PROTOCOLS), st.integers(0, 300),
           st.floats(0.0, 5.0), st.floats(0.1, 8.0), st.integers(1, 50))
    def test_column_equals_the_round_by_round_rebuild(self, c, protocol, rounds, lam,
                                                      sigma, chunk):
        """Bit for bit, over any valid config (its NLOS pairs included),
        each protocol, and the link log filled every 1 to 50 rounds."""
        c = replace(c, protocol=protocol, rounds=rounds, events=replace(c.events, lam=lam),
                    channel=replace(c.channel, sigma_db=sigma))
        with mock.patch.object(engine, "_LOSS_CHUNK", chunk):
            got = run_simulation(c).metrics[:, PATH_LOSS]
            links = walk_recorded(c).links
        assert got.tobytes() == path_loss_oracle(c, links).tobytes()

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_zero_length_link_takes_its_draw(self, protocol, monkeypatch):
        """Node 2 sits on the sink and node 4 on node 3: their links have
        length 0. Node 2 always reaches the sink directly (and is SIMPLE's
        forwarder while it lives)."""
        build = engine.build_topology

        def collapsed(config, rng):
            nodes = build(config, rng)
            nodes[2].position = SINK_POSITION
            nodes[4].position = nodes[3].position
            return nodes

        monkeypatch.setattr(engine, "build_topology", collapsed)
        c = cfg(protocol=protocol, rounds=400, seed=2, placement="canonical",
                channel=replace(SimConfig().channel, sigma_db=3.0))
        links = walk_recorded(c).links
        assert any(tx == 2 and rx == SINK_ID for _, tx, rx, _ in links)
        got = run_simulation(c).metrics[:, PATH_LOSS]
        assert got.tobytes() == path_loss_oracle(c, links).tobytes()

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_one_path_loss_call_per_distinct_link_a_run_sends_on(self, protocol,
                                                                monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return path_loss(*args)

        monkeypatch.setattr(engine, "path_loss", counted)
        c = cfg(protocol=protocol, rounds=2 * engine._LOSS_CHUNK + 100, seed=3,
                nlos_pairs=((0, 1), (4, 5)))
        _SCHEMES[protocol](c)
        assert calls == []  # set-up computes no loss
        links = walk_recorded(c).links
        assert len(calls) == len({(tx, rx) for _, tx, rx, _ in links}) > 0

    def test_table_bytes_hold_under_a_compensated_sum(self, monkeypatch):
        """From Python 3.12 ``sum()`` of floats is compensated. With
        ``math.fsum`` standing in for it, every byte of the table stays."""
        c = cfg(rounds=3000, seed=1, channel=replace(SimConfig().channel, sigma_db=4.0))
        plain = run_simulation(c).metrics
        monkeypatch.setattr(engine, "sum", math.fsum, raising=False)
        assert run_simulation(c).metrics.tobytes() == plain.tobytes()


class TestValidateConfig:
    def test_default_is_valid(self):
        validate_config(SimConfig())

    def test_every_protocol_has_a_scheme(self):
        assert set(_SCHEMES) == set(PROTOCOLS)

    def test_all_violations_reported_together(self):
        from wbansim.config import ConfigError
        bad = cfg(rounds=-5, node_count=0, tx_range=-1.0)
        with pytest.raises(ConfigError) as exc:
            validate_config(bad)
        joined = "\n".join(exc.value.violations)
        assert "rounds" in joined and "node_count" in joined and "tx_range" in joined
