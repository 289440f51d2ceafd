"""Remote-attacker network model tests."""

import pytest

from repro.common.errors import ConfigError
from repro.system.network import (
    DATACENTER,
    LAN,
    LOCALHOST,
    WAN,
    NetworkModel,
    RemoteClient,
    remote_service,
)
from repro.workloads.datasets import ATTACKER_USER


class TestModel:
    def test_presets_ordered_by_noise(self):
        assert LOCALHOST.jitter_us <= LAN.jitter_us <= DATACENTER.jitter_us \
            <= WAN.jitter_us

    def test_invalid_model(self):
        with pytest.raises(ConfigError):
            NetworkModel(rtt_us=-1.0, jitter_us=0.0)


class TestRemoteClient:
    def test_localhost_transparent(self, surf_env):
        client = RemoteClient(surf_env.service, LOCALHOST)
        key = surf_env.keys[0]
        direct, direct_us = surf_env.service.get_timed(ATTACKER_USER, key)
        remote, remote_us = client.get_timed(ATTACKER_USER, key)
        assert remote.status == direct.status
        # zero RTT, zero jitter: only the server time shows
        assert remote_us > 0

    def test_rtt_added(self, surf_env):
        client = RemoteClient(surf_env.service, LAN)
        _, observed = client.get_timed(ATTACKER_USER, b"\x01" * 5)
        assert observed >= LAN.rtt_us

    def test_jitter_is_one_sided(self, surf_env):
        client = RemoteClient(surf_env.service, WAN)
        observations = [client.get_timed(ATTACKER_USER, b"\x02" * 5)[1]
                        for _ in range(50)]
        assert all(o >= WAN.rtt_us for o in observations)
        assert len(set(round(o, 3) for o in observations)) > 10  # noisy

    def test_responses_unchanged(self, surf_env):
        client = RemoteClient(surf_env.service, WAN)
        assert (client.get(ATTACKER_USER, surf_env.keys[0]).status
                == surf_env.service.get(ATTACKER_USER,
                                        surf_env.keys[0]).status)

    def test_client_noise_does_not_touch_server_clock(self, surf_env):
        # WAN jitter draws from the client's stream; the simulated server
        # time advances only by server work.
        client = RemoteClient(surf_env.service, WAN)
        before = surf_env.clock.now_us
        client.get_timed(ATTACKER_USER, b"\x03" * 5)
        server_elapsed = surf_env.clock.now_us - before
        assert server_elapsed < WAN.rtt_us  # RTT never hit the server clock


class TestAdapter:
    def test_adapter_surface(self, surf_env):
        adapted = remote_service(surf_env.service, LAN, seed=4)
        assert adapted.db is surf_env.db
        response, elapsed = adapted.get_timed(ATTACKER_USER, b"\x04" * 5)
        assert elapsed >= LAN.rtt_us
        assert adapted.get(ATTACKER_USER, b"\x04" * 5).status == response.status

    def test_timing_attack_survives_lan_noise(self, surf_env):
        # The paper's remote-attacker assumption: with LAN-grade jitter the
        # learning phase + 4-query averaging still separates the modes.
        from repro.core import learn_cutoff, TimingOracle
        from repro.common.rng import make_rng
        adapted = remote_service(surf_env.service, LAN, seed=5)
        learning = learn_cutoff(adapted, ATTACKER_USER, 5, num_samples=6000,
                                background=surf_env.background)
        oracle = TimingOracle(adapted, ATTACKER_USER,
                              cutoff_us=learning.cutoff_us,
                              background=surf_env.background)
        rng = make_rng(6, "lan-probe")
        probes = [rng.random_bytes(5) for _ in range(800)]
        verdicts = oracle.classify(probes)
        truth = [surf_env.db.filters_pass(p) for p in probes]
        agreement = sum(v == t for v, t in zip(verdicts, truth)) / len(probes)
        assert agreement > 0.97


class TestFullAttackThroughNetworkModel:
    """All three steps through ``remote_service`` (threat model, section 4).

    The regression: step 3's primed prober called
    ``RemoteClient.getter(user, plan)`` on a client whose ``getter`` took
    no plan, so the full attack died with a ``TypeError`` the moment it
    reached extension.
    """

    WIDTH = 4

    def _attack(self, oracle_kind, model):
        from repro.core import (
            AttackConfig,
            IdealizedOracle,
            PrefixSiphoningAttack,
            SurfAttackStrategy,
            TimingOracle,
            learn_cutoff,
        )
        from repro.filters import SuRFBuilder
        from repro.filters.surf import SuffixScheme, SurfVariant
        from repro.workloads import DatasetConfig, build_environment

        env = build_environment(DatasetConfig(
            num_keys=12_000, key_width=self.WIDTH, seed=21,
            filter_builder=SuRFBuilder("real", 8)))
        service = (env.service if model is None
                   else remote_service(env.service, model))
        if oracle_kind == "idealized":
            oracle = IdealizedOracle(service, ATTACKER_USER)
        else:
            learning = learn_cutoff(service, ATTACKER_USER, self.WIDTH,
                                    num_samples=1500, seed=3,
                                    background=env.background)
            oracle = TimingOracle(service, ATTACKER_USER,
                                  cutoff_us=learning.cutoff_us, rounds=3,
                                  background=env.background,
                                  wait_us=50_000.0)
        result = PrefixSiphoningAttack(
            oracle,
            SurfAttackStrategy(self.WIDTH,
                               SuffixScheme(SurfVariant.REAL, 8), seed=22),
            AttackConfig(key_width=self.WIDTH, num_candidates=12_000,
                         extend=True)).run()
        return env, result

    @pytest.mark.parametrize("oracle_kind,model", [
        ("idealized", LOCALHOST), ("idealized", LAN), ("timing", LOCALHOST)],
        ids=["idealized-localhost", "idealized-lan", "timing-localhost"])
    def test_remote_attack_equals_direct_attack(self, oracle_kind, model):
        # The probe plan is pure, idealized verdicts ignore timing, and a
        # zero-RTT zero-jitter model observes the server's own times.
        direct_env, direct = self._attack(oracle_kind, None)
        remote_env, remote = self._attack(oracle_kind, model)
        assert direct.num_extracted > 1
        assert ([e.key for e in remote.extracted]
                == [e.key for e in direct.extracted])
        assert remote.total_queries == direct.total_queries
        assert remote_env.clock.now_us == direct_env.clock.now_us

    def test_timing_attack_completes_under_lan_jitter(self):
        # Jitter may move a borderline classification, so no equality
        # with the direct run — but nothing extracted may be wrong.
        env, result = self._attack("timing", LAN)
        assert result.queries_by_stage.get("extend", 0) > 0
        assert all(e.key in env.key_set for e in result.extracted)
