"""Acceptance suite: runs every exit criterion at its stated tolerance and
prints one PASS line per criterion (run with -s or -v to see them).

The calibrated criteria use the shipped defaults (19 nodes, 10000 rounds,
0.5 J, 2.4 GHz), seeds 1 through 10, and compare protocol medians.
"""
import hashlib
import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest
from recording import forwarding_acyclic, walk_recorded

from wbansim.channel import ChannelParams, LinkClass, path_loss, reference_path_loss
from wbansim.cli import main as cli_main
from wbansim.config import ConfigError, EnergyWeights, SimConfig, parse_config, validate_config
from wbansim.core import SINK_POSITION, BodyPoint, SensorNode, SensorKind, distance
from wbansim.engine import ALIVE, PATH_LOSS, RECEIVED, SENT, TOTAL_RESIDUAL, run_simulation
from wbansim.events import invert_poisson, poisson_cdf_table, poisson_pmf
from wbansim.protocols import amhrp_select_forwarder

SEEDS = tuple(range(1, 11))
PROTOCOLS = ("amhrp", "mattempt", "simple")


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def recorded_sweep():
    """Default-config runs for every protocol and seed, and the link logs of
    the AMHRP runs (walked by the recording helper)."""
    runs, amhrp_links = {}, {}
    for protocol in PROTOCOLS:
        for seed in SEEDS:
            cfg = replace(SimConfig(), protocol=protocol, seed=seed)
            if protocol == "amhrp":
                rec = walk_recorded(cfg)
                runs[(protocol, seed)], amhrp_links[seed] = rec.result, rec.links
            else:
                runs[(protocol, seed)] = run_simulation(cfg)
    return runs, amhrp_links


@pytest.fixture(scope="session")
def sweep(recorded_sweep):
    return recorded_sweep[0]


def medians(runs, protocol, getter):
    return statistics.median(getter(runs[(protocol, s)]) for s in SEEDS)


# ---------------------------------------------------------------------------
# Exact property criteria
# ---------------------------------------------------------------------------

class TestDeterminismAndRuntime:
    def test_byte_identical_csvs_and_runtime(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli_main(["simulate", "--seed", "1", "--out", str(out)]) == 0
        bytes_a = (out_a / "metrics_amhrp_seed1.csv").read_bytes()
        bytes_b = (out_b / "metrics_amhrp_seed1.csv").read_bytes()
        identical = bytes_a == bytes_b

        t0 = time.perf_counter()
        run_simulation(SimConfig())
        elapsed = time.perf_counter() - t0
        report("determinism: identical (config, seed) -> byte-identical CSVs",
               identical)
        report("runtime: 19-node 10000-round run under 1 s", elapsed < 1.0,
               f"{elapsed:.3f}s")


class TestEnergyConservation:
    def test_conservation_every_run(self, sweep):
        worst = 0.0
        for (protocol, seed), res in sweep.items():
            cfg_total = 19 * 0.5
            final = res.metrics[-1, TOTAL_RESIDUAL]
            gap = abs((cfg_total - final) - res.audit.drained_total)
            worst = max(worst, gap)
        report("energy conservation within 1e-9 J on every run", worst <= 1e-9,
               f"worst gap {worst:.2e} J over {len(sweep)} runs")


class TestPoissonNormalization:
    def test_pmf_sums_and_empirical_mean(self):
        ok = True
        for lam in (0.5, 1.0, 5.0, 10.0):
            k_max = math.ceil(lam + 12 * math.sqrt(lam) + 50)
            total = sum(poisson_pmf(lam, k) for k in range(k_max + 1))
            ok &= (1.0 - 1e-9) <= total <= 1.0 + 1e-12
        report("poisson pmf sums to 1 within 1e-9 for lambda in {0.5,1,5,10}", ok)

        g = np.random.Generator(np.random.PCG64(np.random.SeedSequence(1234)))
        mean = np.mean(invert_poisson(poisson_cdf_table(4.0), g.random(10**5)))
        report("poisson empirical mean within 4 +/- 0.05 over 1e5 draws",
               abs(mean - 4.0) < 0.05, f"mean {mean:.4f}")


class TestPathLossClosedForm:
    def test_reference_decade_and_monotonicity(self):
        p = ChannelParams()
        pl0 = reference_path_loss(p)
        at_d0 = path_loss(p, p.d0, LinkClass.LOS)
        report("path loss at d0 equals PL0 within 1e-12 dB",
               abs(at_d0 - pl0) <= 1e-12)

        at_decade = path_loss(replace(p, exponent_los=2.0), 10 * p.d0, LinkClass.LOS)
        report("path loss at 10*d0 with n=2 equals PL0 + 20 dB within 1e-9",
               abs(at_decade - (pl0 + 20.0)) <= 1e-9)

        grid = np.linspace(p.d0, 2.0, 1000)
        vals = [path_loss(p, float(d), LinkClass.LOS) for d in grid]
        report("path loss strictly monotone over a 1000-point grid",
               all(b > a for a, b in zip(vals, vals[1:])))


class TestEnergyLinearity:
    def test_additivity_exact_and_constraint_handling(self):
        # Dyadic weights make every product and sum exactly representable,
        # so the engine's drained energy can be held to the weighted action
        # counts with no tolerance at all. The runs have no death (a death
        # writes off a residual, not an action's cost), a tight range so
        # that AMHRP forwards and escalates, and unboosted critical sends.
        w = EnergyWeights(x_s=2.0**-20, x_d=2.0**-17, x_f=2.0**-22, x_c=2.0**-19, x_t=0.0)
        base = replace(SimConfig(), energy=w, initial_energy=1024.0, tx_range=0.3,
                       rounds=500)
        base = replace(base, events=replace(base.events, lam=0.5),
                       mattempt=replace(base.mattempt, boost_multiplier=1.0))
        exact, amhrp_actions = True, True
        for protocol in PROTOCOLS:
            for seed in (1, 2, 3):
                cfg = replace(base, protocol=protocol, seed=seed)
                validate_config(cfg)
                rec = walk_recorded(cfg)
                per_round = rec.actions @ np.array([w.x_s, w.x_d, w.x_w, w.x_f, w.x_c])
                exact &= rec.result.audit.drained_total == math.fsum(per_round)
                if protocol == "amhrp":
                    amhrp_actions &= bool((rec.actions.sum(axis=0) > 0).all())
        report("cost-model linearity: drained energy equals the weighted action "
               "counts exactly (3 protocols x 3 seeds)", exact)
        report("every action kind is charged in the AMHRP runs", amhrp_actions)

        derived = parse_config("[energy]\nx_d = 1e-3\nx_s = 1e-4\nx_f = 1e-5\nx_c = 5e-4\n")
        auto_ok = derived.energy.x_w == pytest.approx(0.1)
        rejected = False
        try:
            parse_config("[energy]\nx_d = 1e-3\nx_w = 0.07\nx_s = 1e-4\n"
                         "x_f = 1e-5\nx_c = 5e-4\n")
        except ConfigError:
            rejected = True
        report("x_w = 100*x_d derived, and an x_w key rejected by parse_config",
               auto_ok and rejected)


class TestRoutingInvariants:
    def test_no_cycles_no_dead_senders_tdma_bijection(self, recorded_sweep):
        _, amhrp_links = recorded_sweep
        acyclic = True
        alive_senders = True
        for seed in SEEDS:
            links = amhrp_links[seed]
            alive_senders &= all(alive for _, _, _, alive in links)
            acyclic &= forwarding_acyclic(links)
        report("no cycle in any round's AMHRP forwarding graph", acyclic)
        report("no dead sender or relay in any transmission", alive_senders)

    def test_forwarder_argmax_scale_invariance(self):
        g = np.random.Generator(np.random.PCG64(17))
        invariant = True
        for _ in range(1000):
            coords = g.random((7, 2)) * [0.8, 1.8]
            src = SensorNode(id=0, kind=SensorKind.TOXIN,
                             position=BodyPoint(*coords[0]), residual_energy=0.5,
                             tx_range=0.6)
            neighbors = [SensorNode(id=i + 1, kind=SensorKind.TOXIN,
                                    position=BodyPoint(*xy),
                                    residual_energy=float(e) + 0.01, tx_range=0.6)
                         for i, (xy, e) in enumerate(zip(coords[1:], g.random(6)))]
            d_sink = {n.id: distance(n.position, SINK_POSITION) for n in [src, *neighbors]}
            before = amhrp_select_forwarder(src, neighbors, d_sink)
            scale = float(g.random()) * 9.9 + 0.1
            for m in neighbors:
                m.residual_energy *= scale
            after = amhrp_select_forwarder(src, neighbors, d_sink)
            invariant &= (before.action, before.target) == (after.action, after.target)
        report("AMHRP forwarder choice invariant under uniform residual scaling "
               "(1000 cases)", invariant)


class TestThroughputBounds:
    def test_bounds_on_all_runs(self, sweep):
        per_round_ok = True
        pct_ok = True
        for res in sweep.values():
            per_round_ok &= bool(all(res.metrics[:, RECEIVED] <= res.metrics[:, SENT]))
            pct = res.summary.throughput_pct
            pct_ok &= pct is not None and 0.0 <= pct <= 100.0
        report("received <= sent every round on every run", per_round_ok)
        report("throughput percentage within [0, 100] on all runs", pct_ok)


# ---------------------------------------------------------------------------
# Calibrated qualitative reproduction (medians over seeds 1-10)
# ---------------------------------------------------------------------------

class TestCalibratedReproduction:
    def test_stability_window(self, sweep):
        med = medians(sweep, "amhrp", lambda r: r.summary.stability_period)
        report("AMHRP first-node-death median within [3800, 5200]",
               3800 <= med <= 5200, f"median {med:.0f}")

    def test_stability_ratio_over_mattempt(self, sweep):
        a = medians(sweep, "amhrp", lambda r: r.summary.stability_period)
        m = medians(sweep, "mattempt", lambda r: r.summary.stability_period)
        report("AMHRP stability period >= 1.4x the M-ATTEMPT median",
               a >= 1.4 * m, f"ratio {a / m:.2f}")

    def test_lifetime_ratio_over_mattempt(self, sweep):
        a = medians(sweep, "amhrp", lambda r: r.summary.network_lifetime)
        m = medians(sweep, "mattempt", lambda r: r.summary.network_lifetime)
        report("AMHRP network lifetime >= 2.0x the M-ATTEMPT median",
               a >= 2.0 * m, f"ratio {a / m:.2f} (literal ratio reported, not gated)")

    def test_residual_energy_at_end(self, sweep):
        med = medians(sweep, "amhrp", lambda r: r.summary.residual_pct_at_end)
        report("AMHRP total residual at round 10000 >= 80% of initial",
               med >= 80.0, f"median {med:.1f}%")

    def test_orderings_at_round_10000(self, sweep):
        def alive_end(r):
            return r.metrics[-1, ALIVE]

        def received_total(r):
            return r.summary.packets_received_total

        def run_mean_loss(r):
            losses = [v for v in r.metrics[:, PATH_LOSS].tolist() if not math.isnan(v)]
            return sum(losses) / len(losses)

        a_alive = medians(sweep, "amhrp", alive_end)
        ok_alive = (a_alive >= medians(sweep, "mattempt", alive_end)
                    and a_alive >= medians(sweep, "simple", alive_end))
        report("alive(AMHRP) >= alive(M-ATTEMPT) and alive(SIMPLE) at round 10000",
               ok_alive, f"amhrp median {a_alive:.0f}")

        a_recv = medians(sweep, "amhrp", received_total)
        ok_recv = (a_recv >= medians(sweep, "mattempt", received_total)
                   and a_recv >= medians(sweep, "simple", received_total))
        report("cumulative received(AMHRP) >= both baselines", ok_recv,
               f"amhrp median {a_recv:.0f}")

        a_loss = medians(sweep, "amhrp", run_mean_loss)
        m_loss = medians(sweep, "mattempt", run_mean_loss)
        s_loss = medians(sweep, "simple", run_mean_loss)
        report("mean path loss(AMHRP) <= both baselines",
               a_loss <= m_loss and a_loss <= s_loss,
               f"amhrp {a_loss:.2f} dB vs mattempt {m_loss:.2f} / simple {s_loss:.2f}")


# sha256 of the plot series of the default 3 x 10 sweep (per-round medians
# over seeds 1-10), recorded before the plots path moved to numpy tables.
SWEEP_SERIES = {
    "lifetime.dat": "824d4f0c3d6e7faa2a18b0a3af523633735b5e42f628c9f83e95a5dc21888e96",
    "throughput.dat": "90f7479c84abf17a5e223c760cb2886bbf4dfa1e68dd8fea3b6ec66ce3495ece",
    "residual.dat": "ab8a733f091ce004ad61fa08379d4c7b1c1c88148aaee31bfaedfe3f147bd6a4",
    "pathloss.dat": "6ac546a4abda73eed4e401193ecb72f158d3994d6a10d9b106e97c5398a37b2e",
}


class TestSweepWallClock:
    def test_full_sweep_report_and_plots_under_60s(self, tmp_path):
        out = tmp_path / "runs"
        t0 = time.perf_counter()
        assert cli_main(["sweep", "--protocols", "amhrp,mattempt,simple",
                         "--seeds", "1..10", "--out", str(out)]) == 0
        assert cli_main(["compare", "--in", str(out)]) == 0
        assert cli_main(["plots", "--in", str(out)]) == 0
        elapsed = time.perf_counter() - t0
        report("3-protocol x 10-seed sweep + report + plots under 60 s",
               elapsed < 60.0, f"{elapsed:.1f}s")
        for name, digest in SWEEP_SERIES.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
