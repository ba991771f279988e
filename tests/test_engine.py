from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_config import valid_configs

from wbansim.config import SimConfig, parse_config, render_config, validate_config
from wbansim.core import BodyPoint, SensorKind, SensorNode
from wbansim.engine import (RoundMetrics, assign_tdma, run_simulation,
                            summarize_run, throughput)


def cfg(**over):
    return replace(SimConfig(), **over)


def metrics_row(r, alive, sent=0, received=0):
    return RoundMetrics(round=r, alive_count=alive, packets_sent=sent,
                        packets_received_at_sink=received, critical_received=0,
                        total_residual=1.0, mean_residual=1.0 / 19,
                        mean_path_loss=None, equilibrium_ok=True)


class TestAssignTdma:
    def test_nineteen_nodes_get_distinct_slots(self):
        nodes = [SensorNode(id=i, kind=SensorKind.ECG, position=BodyPoint(0, 0),
                            residual_energy=0.5) for i in range(19)]
        slots = assign_tdma(nodes)
        assert sorted(slots.values()) == list(range(19))

    def test_single_node(self):
        nodes = [SensorNode(id=0, kind=SensorKind.ECG, position=BodyPoint(0, 0),
                            residual_energy=0.5)]
        assert assign_tdma(nodes) == {0: 0}

    def test_slot_order_follows_id_order(self):
        nodes = [SensorNode(id=i, kind=SensorKind.ECG, position=BodyPoint(0, 0),
                            residual_energy=0.5) for i in (4, 1, 3)]
        slots = assign_tdma(nodes)
        assert slots == {1: 0, 3: 1, 4: 2}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            assign_tdma([])


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
        s = summarize_run(rows, cfg(rounds=3))
        assert s.stability_period == 2

    def test_no_deaths_gives_sentinels(self):
        rows = [metrics_row(r, 19, sent=1, received=1) for r in range(5)]
        s = summarize_run(rows, cfg(rounds=5))
        assert s.stability_period == 5
        assert s.network_lifetime == 5
        assert s.throughput_pct == 100.0

    def test_lifetime_when_network_empties(self):
        rows = [metrics_row(r, 19 if r < 9000 else 0) for r in range(10000)]
        s = summarize_run(rows, cfg())
        assert s.network_lifetime == 9000

    def test_rounds_zero_degenerate(self):
        s = summarize_run([], cfg(rounds=0))
        assert s.stability_period == 0
        assert s.network_lifetime == 0
        assert s.throughput_pct is None
        assert s.residual_pct_at_end == 100.0


class TestRunSimulation:
    def test_quiescent_round_after_round_zero(self):
        c = cfg(rounds=2, events=replace(SimConfig().events, lam=0.0))
        res = run_simulation(c)
        row1 = res.metrics[1]
        # No sensing period of 1 exists, so round 1 is silent; AMHRP's first
        # beacon exchange is not due yet either.
        assert row1.packets_sent == 0
        assert row1.packets_received_at_sink == 0
        assert row1.mean_path_loss is None
        assert row1.total_residual == res.metrics[0].total_residual

    def test_single_node_charge_trace(self):
        # One canonical node 0.35 m from the sink: the round-0 reading costs
        # exactly one self-computation plus one destined send.
        c = cfg(rounds=1, node_count=1, placement="canonical",
                events=replace(SimConfig().events, lam=0.0))
        res = run_simulation(c)
        row = res.metrics[0]
        assert row.packets_sent == 1
        assert row.packets_received_at_sink == 1
        w = c.energy
        expected = c.initial_energy - (w.x_s + w.x_d)
        assert row.total_residual == pytest.approx(expected, abs=1e-15)

    def test_all_dead_is_absorbing(self):
        # x_t above the initial charge kills every node on its first action.
        c = cfg(rounds=3, initial_energy=0.1)
        res = run_simulation(c)
        assert res.metrics[0].alive_count == 0
        assert res.metrics[1].alive_count == 0
        assert res.metrics[1].packets_sent == 0
        assert res.metrics[2].packets_sent == 0

    def test_determinism_same_seed(self):
        c = cfg(rounds=400)
        a = run_simulation(c)
        b = run_simulation(c)
        assert a.metrics == b.metrics
        assert a.summary == b.summary

    def test_seed_changes_outcome(self):
        a = run_simulation(cfg(rounds=300, seed=1))
        b = run_simulation(cfg(rounds=300, seed=2))
        assert a.metrics != b.metrics

    @pytest.mark.parametrize("protocol", ["amhrp", "mattempt", "simple"])
    def test_conservation(self, protocol):
        c = cfg(rounds=1500, protocol=protocol)
        res = run_simulation(c)
        spent = c.node_count * c.initial_energy - res.metrics[-1].total_residual
        assert spent == pytest.approx(res.audit.drained_total, abs=1e-9)

    @pytest.mark.parametrize("protocol", ["amhrp", "mattempt", "simple"])
    def test_monotone_alive_and_residual(self, protocol):
        res = run_simulation(cfg(rounds=1200, protocol=protocol, seed=5))
        for a, b in zip(res.metrics, res.metrics[1:]):
            assert b.alive_count <= a.alive_count
            assert b.total_residual <= a.total_residual + 1e-15

    def test_received_never_exceeds_sent_per_round(self):
        res = run_simulation(cfg(rounds=1000, protocol="simple", seed=3))
        for m in res.metrics:
            assert m.packets_received_at_sink <= m.packets_sent

    def test_cross_protocol_event_streams_identical(self):
        base = cfg(rounds=300, seed=11)
        logs = {}
        for protocol in ("amhrp", "mattempt", "simple"):
            res = run_simulation(replace(base, protocol=protocol), record_traffic=True)
            logs[protocol] = res.audit.traffic
        assert logs["amhrp"] == logs["mattempt"] == logs["simple"]

    def test_all_transmitters_were_alive(self):
        res = run_simulation(cfg(rounds=2000, seed=4), record_links=True)
        assert res.audit.links, "expected some transmissions"
        assert all(alive for _, _, _, alive in res.audit.links)

    def test_dead_network_rows_run_to_the_end(self):
        # x_t above the initial charge: every node dies in round 0, and the
        # run still has one row per round.
        c = cfg(rounds=50, initial_energy=0.1)
        res = run_simulation(c)
        assert len(res.metrics) == 50
        assert [m.round for m in res.metrics] == list(range(50))
        for m in res.metrics[1:]:
            assert (m.alive_count, m.packets_sent, m.packets_received_at_sink,
                    m.critical_received, m.total_residual, m.mean_residual,
                    m.mean_path_loss) == (0, 0, 0, 0, 0.0, 0.0, None)
        assert res.summary.network_lifetime == 0

    def test_rounds_zero(self):
        res = run_simulation(cfg(rounds=0))
        assert res.metrics == []
        assert res.summary.stability_period == 0

    def test_invalid_config_rejected(self):
        from wbansim.config import ConfigError
        with pytest.raises(ConfigError) as exc:
            run_simulation(cfg(rounds=-5))
        assert any("rounds" in v for v in exc.value.violations)

    def test_equilibrium_flag_present_each_round(self):
        res = run_simulation(cfg(rounds=120))
        assert all(isinstance(m.equilibrium_ok, bool) for m in res.metrics)
        # default alpha_star = 0 and a0 = 0.5 keep the diagnostic green here
        assert all(m.equilibrium_ok for m in res.metrics)


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
        res = run_simulation(self._dying_config(protocol, **over),
                             record_traffic=True, record_links=True)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(res.metrics, path)
        text = "\n".join([
            path.read_text(encoding="utf-8"),
            *(",".join(map(str, row)) for row in res.audit.traffic),
            *(",".join(map(str, row)) for row in res.audit.links),
            repr(res.audit.drained_total),
        ])
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == self.AUDIT_FINGERPRINTS[case]

    def test_hopcount_cache_matches_fresh_bfs(self, monkeypatch):
        import wbansim.engine as engine
        from wbansim.engine import _Sim
        from wbansim.protocols import mattempt_build_hopcounts

        base = SimConfig()
        c = self._dying_config(
            "mattempt", mattempt=replace(base.mattempt, temp_threshold=37.2))
        builds = []

        def counted_build(*args, **kwargs):
            builds.append(args)
            return mattempt_build_hopcounts(*args, **kwargs)

        monkeypatch.setattr(engine, "mattempt_build_hopcounts", counted_build)
        sim = _Sim(c, record_traffic=False, record_links=False)
        begin_round = sim.scheme.begin_round

        def checked_begin_round(rnd):
            begin_round(rnd)
            fresh = mattempt_build_hopcounts(sim.nodes, sim.sink, c.tx_range, c.mattempt)
            assert sim.scheme.state.hop_counts == fresh.hop_counts, f"round {rnd}"

        sim.scheme.begin_round = checked_begin_round
        threshold = c.mattempt.temp_threshold
        heated = cooled = 0
        prev = [True] * sim.n
        for rnd in range(c.rounds):
            row = sim.run_round(rnd)
            alive = sum(nd.alive for nd in sim.nodes)
            assert sim.alive_count == row.alive_count == alive, f"round {rnd}"
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
        assert len(builds) < c.rounds // 4

    def test_amhrp_closer_lists_match_full_neighbor_lists(self):
        from wbansim.core import PacketKind
        from wbansim.engine import _Sim
        from wbansim.protocols import RouteAction, amhrp_select_forwarder

        c = self._dying_config("amhrp")
        sim = _Sim(c, record_traffic=False, record_links=False)
        forwarded = 0
        for rnd in range(c.rounds):
            row = sim.run_round(rnd)
            assert sim.alive_count == row.alive_count == sum(nd.alive for nd in sim.nodes)
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
    pass; a run that records traffic walks every round and is the reference."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("protocol", ["amhrp", "mattempt", "simple"])
    @pytest.mark.parametrize("case", ["dying", "storm", "hot"])
    def test_tail_equals_full_walk(self, case, protocol, seed):
        c = _tail_config(case, protocol, seed)
        tail = run_simulation(c)
        walked = run_simulation(c, record_traffic=True)
        assert len(tail.metrics) == c.rounds
        assert tail.metrics == walked.metrics
        assert tail.summary == walked.summary
        assert tail.audit.drained_total == walked.audit.drained_total

    def test_dying_case_flag_moves_in_the_tail(self):
        # Guards the test above: its flags change after the last death, so a
        # tail that stopped rolling the windows would show.
        res = run_simulation(_tail_config("dying", "amhrp", 1))
        after = [m.equilibrium_ok for m in res.metrics[res.summary.network_lifetime + 1:]]
        assert True in after and after[-1] is False

    @pytest.mark.parametrize("protocol", ["amhrp", "mattempt", "simple"])
    def test_rounds_after_the_last_death_are_not_walked(self, protocol, monkeypatch):
        from wbansim.engine import _Sim

        calls = []
        run_round = _Sim.run_round

        def counted(self, rnd):
            calls.append(rnd)
            return run_round(self, rnd)

        monkeypatch.setattr(_Sim, "run_round", counted)
        c = _tail_config("dying", protocol, 1)
        res = run_simulation(c)
        lifetime = res.summary.network_lifetime
        assert lifetime < c.rounds
        assert calls == list(range(lifetime + 1))

    def test_flat_series_flag_equals_the_series(self):
        from wbansim.energy import ActionCounts
        from wbansim.engine import _EquilibriumTracker
        from wbansim.protocols import equilibrium_ok

        base = SimConfig()
        for alpha_star in (0.2, 0.5, 0.7):
            c = replace(base, rounds=60, initial_energy=0.5,
                        amhrp=replace(base.amhrp, alpha_star=alpha_star, eq_windows=2,
                                      eq_window_len=5))
            eq = _EquilibriumTracker(c)
            L = eq.profile.L
            checked = {"flat": 0, "live": 0}

            def check():
                flat = not any(eq.profile.coeffs_a + eq.profile.coeffs_b)
                checked["flat" if flat else "live"] += 1
                for x in range(L + 1):
                    assert eq.flag(x) == equilibrium_ok(eq.profile, x), (alpha_star, x)

            check()  # the initial profile has no windows
            for counts in [ActionCounts(3, 2, 0, 4, 1)] * 10 + [ActionCounts()] * 15:
                eq.push_round(counts)
                check()
            assert eq.profile.coeffs_a == eq.profile.coeffs_b == (0.0, 0.0)
            assert checked["flat"] and checked["live"]


class TestRunProperty:
    """Run invariants over the whole valid config space (short runs, a
    bounded event rate to keep each example small)."""

    @settings(max_examples=60, deadline=None)
    @given(valid_configs(), st.integers(0, 400), st.floats(0.0, 5.0))
    def test_tail_conservation_and_delivery(self, c, rounds, lam):
        c = replace(c, rounds=rounds, events=replace(c.events, lam=lam))
        tail = run_simulation(c)
        walked = run_simulation(c, record_traffic=True)
        assert tail.metrics == walked.metrics
        assert tail.summary == walked.summary
        # A rerun of the rendered and re-parsed config behaves the same.
        again = run_simulation(parse_config(render_config(c)))
        assert again.metrics == tail.metrics
        assert again.summary == tail.summary
        assert again.audit.drained_total == tail.audit.drained_total
        assert len(tail.metrics) == rounds
        spent = c.node_count * c.initial_energy - tail.summary.final_total_residual
        assert spent == pytest.approx(tail.audit.drained_total, abs=1e-9)
        for m in tail.metrics:
            assert m.packets_received_at_sink <= m.packets_sent
        assert tail.summary.packets_received_total <= tail.summary.packets_sent_total


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
    from wbansim.events import invert_poisson, is_scheduled, poisson_cdf_table

    topo_ss, events_ss, _ = np.random.SeedSequence(c.seed).spawn(3)
    nodes, _ = build_topology(c, np.random.Generator(np.random.PCG64(topo_ss)))
    rng = _CountingRng(np.random.Generator(np.random.PCG64(events_ss)))
    cdf = poisson_cdf_table(c.events.lam)
    log, widest = [], 0
    for rnd in range(c.rounds):
        before = rng.used
        counts = invert_poisson(cdf, rng.random(len(nodes))).tolist()
        for nd, k in zip(nodes, counts):
            due = is_scheduled(nd.kind, rnd, c.schedule)
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
        from wbansim.engine import EVENT_BLOCK
        from wbansim.events import SensingSchedule, default_schedule

        assert SensorKind.BLOOD_PRESSURE in ALL_KINDS[:n]
        base = SimConfig()
        c = replace(base, rounds=rounds, seed=5, node_count=n, placement=placement,
                    events=replace(base.events, lam=lam, rounds_per_day=rpd),
                    schedule=SensingSchedule(default_schedule(rpd)))
        log, used, widest = _walk_events_stream(c)
        assert used > 3 * EVENT_BLOCK  # the run crosses several blocks
        if lam == 300.0 and n == 19:
            assert widest > EVENT_BLOCK  # one round skips past a whole block
        assert run_simulation(c, record_traffic=True).audit.traffic == log


class TestValidateConfig:
    def test_default_is_valid(self):
        validate_config(SimConfig())

    def test_all_violations_reported_together(self):
        from wbansim.config import ConfigError
        bad = cfg(rounds=-5, node_count=0, tx_range=-1.0)
        with pytest.raises(ConfigError) as exc:
            validate_config(bad)
        joined = "\n".join(exc.value.violations)
        assert "rounds" in joined and "node_count" in joined and "tx_range" in joined
