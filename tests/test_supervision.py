"""Self-healing pool supervision: stall watchdog, poison-unit quarantine,
and retrying cluster reads.

The invariant under test everywhere here extends the pool's exactness
contract to degraded runs: whatever combination of injected faults fires
(a hung worker, a unit that fails every attempt, transient cluster-read
errors), a supervised match must (a) complete without ``PoolError``,
(b) report the degradation through typed channels (stop reason,
counters, flight-recorder events, quarantine residue files), and
(c) conserve the count — pool count plus replayed residue count equals
the fault-free single-process count *exactly*.
"""

from __future__ import annotations

import os
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.csce import CSCE
from repro.engine import STOP_QUARANTINED, STOP_REASONS
from repro.engine.checkpoint import load_quarantine_dir
from repro.engine.governor import RetryPolicy
from repro.errors import CheckpointError, ClusterReadError
from repro.graph.patterns import CATALOG
from repro.obs import Observation, build_run_report, validate_run_report
from repro.obs.inspect import MatchInspector, render_top
from repro.obs.report import robustness_problems
from repro.testing import faults

from conftest import make_random_graph


@pytest.fixture(scope="module")
def graph():
    return make_random_graph(150, 900, num_labels=0, seed=11)


@pytest.fixture(scope="module")
def engine(graph):
    return CSCE(graph)


@pytest.fixture(scope="module")
def reference(engine):
    """The fault-free single-process count every degraded run must fold
    back to."""
    return engine.match(
        CATALOG["path4"](), "homomorphic", count_only=True
    ).count


def hang_worker(worker_id, seconds=30.0):
    """A pool.worker_beat action hanging one specific worker. Gated on
    the worker id because respawned workers fork from the parent's
    injector (acted=0): an ungated rule would re-fire in the respawn."""

    def action(rule, site, ctx):
        if ctx.get("worker") == worker_id:
            time.sleep(seconds)

    return action


def poison_unit(unit_id):
    """A pool.worker_beat action failing one unit on every attempt."""

    def action(rule, site, ctx):
        if ctx.get("unit") == unit_id:
            raise RuntimeError(f"injected poison in unit {unit_id}")

    return action


# ---------------------------------------------------------------------------
# RetryPolicy: bounded, seeded, deadline-aware backoff
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_same_seed_same_backoff_sequence(self):
        a = RetryPolicy(max_attempts=5, seed=42)
        b = RetryPolicy(max_attempts=5, seed=42)
        assert [a.backoff(k) for k in range(1, 5)] == \
            [b.backoff(k) for k in range(1, 5)]

    def test_backoff_is_bounded_by_max_delay(self):
        policy = RetryPolicy(base_delay=0.01, max_delay=0.05, seed=0)
        assert all(0.0 <= policy.backoff(k) <= 0.05 for k in range(1, 20))

    def test_absorbs_transient_failures(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, seed=0)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ClusterReadError("transient")
            return "ok"

        assert policy.run(flaky, retry_on=(ClusterReadError,)) == "ok"
        assert calls["n"] == 3
        assert policy.retries == 2

    def test_attempt_budget_exhausted_reraises(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, seed=0)

        def always():
            raise ClusterReadError("persistent")

        with pytest.raises(ClusterReadError):
            policy.run(always, retry_on=(ClusterReadError,))
        assert policy.retries == 1

    def test_non_matching_error_escapes_immediately(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.0, seed=0)

        def wrong():
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            policy.run(wrong, retry_on=(ClusterReadError,))
        assert policy.retries == 0

    def test_expired_deadline_forbids_backoff(self):
        # A deadline already in the past: the first failure re-raises
        # instead of sleeping the run's remaining budget away.
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.01, seed=0,
            deadline=time.perf_counter(),
        )

        def always():
            raise ClusterReadError("transient")

        with pytest.raises(ClusterReadError):
            policy.run(always, retry_on=(ClusterReadError,))
        assert policy.retries == 0

    def test_with_deadline_copies_knobs(self):
        policy = RetryPolicy(
            max_attempts=7, base_delay=0.02, max_delay=0.5,
            jitter=0.25, seed=9,
        )
        bound = policy.with_deadline(123.0)
        assert bound.deadline == 123.0
        assert (bound.max_attempts, bound.base_delay, bound.max_delay,
                bound.jitter, bound.seed) == (7, 0.02, 0.5, 0.25, 9)
        # Fresh retry accounting and RNG: the original is untouched.
        assert bound.retries == 0 and bound is not policy

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


# ---------------------------------------------------------------------------
# Retrying cluster reads: transient faults absorbed, persistent escape
# ---------------------------------------------------------------------------
class TestRetryingClusterReads:
    def test_transient_read_faults_absorbed(self, graph, reference):
        # Fresh session so compile actually re-reads clusters.
        engine = CSCE(graph)
        obs = Observation(trace=True)
        injector = faults.FaultInjector(seed=9).on(
            "ccsr.read_cluster", faults.flaky_cluster_read(2)
        )
        with injector:
            result = engine.match(
                CATALOG["path4"](), "homomorphic", count_only=True, obs=obs
            )
        assert result.count == reference
        assert result.stop_reason is None
        assert obs.counters.snapshot()["ccsr.read_retries"] == 2

    def test_persistent_read_fault_escapes(self, graph):
        # More consecutive failures than the default attempt budget on a
        # single cluster: the retry policy re-raises instead of looping.
        engine = CSCE(graph)
        injector = faults.FaultInjector(seed=9).on(
            "ccsr.read_cluster", faults.flaky_cluster_read(10)
        )
        with injector, pytest.raises(ClusterReadError):
            engine.match(CATALOG["path4"](), "homomorphic", count_only=True)


# ---------------------------------------------------------------------------
# Stall watchdog: hung workers are killed, their units re-dispatched
# ---------------------------------------------------------------------------
class TestStallWatchdog:
    def test_hung_worker_killed_and_recovered_exact(self, engine, reference):
        obs = Observation(trace=True, heartbeat_interval=0.05)
        inspector = MatchInspector(None, obs).attach()
        injector = faults.FaultInjector(seed=7).on(
            "pool.worker_beat", hang_worker("w0"), times=1
        )
        with injector:
            result = engine.match(
                CATALOG["path4"](), "homomorphic", count_only=True,
                workers=2, stall_timeout=0.5, obs=obs,
            )
        inspector.finish(result)
        assert result.count == reference
        assert result.stop_reason is None
        names = [e["name"] for e in obs.recorder.as_dict()["events"]]
        assert names.count("worker_stall") == 1
        assert obs.counters.snapshot()["pool.stall_kills"] == 1
        health = inspector.handle("health")
        assert health["stall_timeout"] == 0.5
        assert health["stall_kills"] == 1
        assert health["quarantined_units"] == 0

    def test_clean_run_triggers_zero_kills(self, engine, reference):
        # The perf-smoke invariant: an armed watchdog over a healthy
        # heartbeating workload must never fire.
        obs = Observation(trace=True, heartbeat_interval=0.05)
        result = engine.match(
            CATALOG["path4"](), "homomorphic", count_only=True,
            workers=2, stall_timeout=5.0, obs=obs,
        )
        assert result.count == reference
        assert "pool.stall_kills" not in obs.counters.snapshot()
        names = [e["name"] for e in obs.recorder.as_dict()["events"]]
        assert "worker_stall" not in names

    def test_watchdog_disarmed_by_default(self, engine):
        obs = Observation(trace=False, heartbeat_interval=60.0)
        inspector = MatchInspector(None, obs).attach()
        result = engine.match(
            CATALOG["triangle"](), "homomorphic", count_only=True,
            workers=2, obs=obs,
        )
        inspector.finish(result)
        health = inspector.handle("health")
        assert health["stall_timeout"] is None
        assert health["stall_kills"] == 0


# ---------------------------------------------------------------------------
# Poison-unit quarantine: typed degradation instead of PoolError
# ---------------------------------------------------------------------------
class TestQuarantine:
    def quarantined_run(self, engine, tmp_path, obs=None):
        cp_dir = tmp_path / "residue"
        injector = faults.FaultInjector(seed=5).on(
            "pool.worker_beat", poison_unit(1)
        )
        with injector:
            result = engine.match(
                CATALOG["path4"](), "homomorphic", count_only=True,
                workers=2, pool_checkpoint_dir=str(cp_dir),
                max_unit_attempts=2, obs=obs,
            )
        return result, cp_dir

    def test_poison_unit_quarantined_and_match_completes(
        self, engine, reference, tmp_path
    ):
        obs = Observation(trace=True)
        result, cp_dir = self.quarantined_run(engine, tmp_path, obs=obs)
        assert result.stop_reason == STOP_QUARANTINED == "quarantined"
        assert result.quarantined_units == 1
        assert result.shards["quarantined_units"] == 1
        assert 0 < result.count < reference
        assert obs.counters.snapshot()["pool.quarantined_units"] == 1
        names = [e["name"] for e in obs.recorder.as_dict()["events"]]
        assert names.count("quarantine") == 1
        residue = load_quarantine_dir(cp_dir)
        assert len(residue) == 1
        path, payload = residue[0]
        assert os.path.basename(path) == "quarantine-0001.json"
        block = payload["quarantine"]
        assert block["unit"] == 1 and block["attempts"] == 2
        assert "poison" in block["error"]
        assert payload["progress"]["stop_reason"] == STOP_QUARANTINED

    def test_quarantine_without_checkpoint_dir_still_completes(
        self, engine, reference
    ):
        injector = faults.FaultInjector(seed=5).on(
            "pool.worker_beat", poison_unit(1)
        )
        with injector:
            result = engine.match(
                CATALOG["path4"](), "homomorphic", count_only=True,
                workers=2, max_unit_attempts=2,
            )
        assert result.stop_reason == STOP_QUARANTINED
        assert result.quarantined_units == 1
        assert result.count < reference

    def test_retry_quarantined_folds_exact(
        self, engine, reference, tmp_path
    ):
        result, cp_dir = self.quarantined_run(engine, tmp_path)
        replay = engine.retry_quarantined(str(cp_dir))
        assert replay.stop_reason is None
        assert result.count + replay.count == reference
        # A complete replay consumes its residue files.
        assert not list(cp_dir.glob("quarantine-*.json"))

    def test_retry_quarantined_keep_files(self, engine, reference, tmp_path):
        result, cp_dir = self.quarantined_run(engine, tmp_path)
        replay = engine.retry_quarantined(str(cp_dir), keep_files=True)
        assert result.count + replay.count == reference
        assert list(cp_dir.glob("quarantine-*.json"))

    def test_retry_quarantined_rejects_empty_dir(self, engine, tmp_path):
        with pytest.raises(CheckpointError):
            engine.retry_quarantined(str(tmp_path))

    def test_quarantined_run_report_validates(self, engine, tmp_path):
        obs = Observation(trace=True)
        result, _ = self.quarantined_run(engine, tmp_path, obs=obs)
        obs.finish(result)
        report = build_run_report(
            result, engine="CSCE", obs=obs,
            config={"workers": 2, "stall_timeout": None,
                    "max_respawns": None, "max_unit_attempts": 2},
        )
        validate_run_report(report)
        assert robustness_problems(report) == []
        assert report["stop_reason"] == "quarantined"
        assert report["shards"]["quarantined_units"] == 1
        assert report["config"]["max_unit_attempts"] == 2


# ---------------------------------------------------------------------------
# All three legs at once, and the seeded fold property
# ---------------------------------------------------------------------------
class TestCombinedChaos:
    def test_three_fault_legs_at_once(self, graph, reference, tmp_path):
        # One hung worker + one poison unit + transient cluster-read
        # faults, in the same run: no PoolError, typed degradation,
        # and (match + retry-quarantined) reproduces the exact count.
        engine = CSCE(graph)  # fresh session: cluster reads re-run
        cp_dir = tmp_path / "residue"
        obs = Observation(trace=True, heartbeat_interval=0.05)
        injector = (
            faults.FaultInjector(seed=3)
            .on("ccsr.read_cluster", faults.flaky_cluster_read(2))
            .on("pool.worker_beat", hang_worker("w0"), times=1)
            .on("pool.worker_beat", poison_unit(1))
        )
        with injector:
            result = engine.match(
                CATALOG["path4"](), "homomorphic", count_only=True,
                workers=2, stall_timeout=0.5, max_unit_attempts=2,
                pool_checkpoint_dir=str(cp_dir), obs=obs,
            )
        assert result.stop_reason == STOP_QUARANTINED
        assert result.quarantined_units >= 1
        counters = obs.counters.snapshot()
        assert counters["ccsr.read_retries"] == 2
        assert counters["pool.stall_kills"] >= 1
        assert counters["pool.quarantined_units"] == result.quarantined_units
        replay = engine.retry_quarantined(str(cp_dir))
        assert replay.stop_reason is None
        assert result.count + replay.count == reference

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.too_slow,
        ],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        workers=st.sampled_from([2, 4]),
        poisoned=st.integers(min_value=0, max_value=3),
    )
    def test_fold_property(
        self, graph, reference, tmp_path_factory, seed, workers, poisoned
    ):
        # For every (seed, workers, poisoned-unit): pool count plus
        # replayed residue count equals the fault-free count exactly.
        engine = CSCE(graph)
        cp_dir = tmp_path_factory.mktemp("fold") / "residue"
        obs = Observation(trace=False, heartbeat_interval=0.02)
        injector = (
            faults.FaultInjector(seed=seed)
            .on("ccsr.read_cluster", faults.flaky_cluster_read(1))
            .on("pool.worker_beat", hang_worker("w0"), times=1)
            .on("pool.worker_beat", poison_unit(poisoned))
        )
        with injector:
            result = engine.match(
                CATALOG["path4"](), "homomorphic", count_only=True,
                workers=workers, stall_timeout=0.5, max_unit_attempts=2,
                pool_checkpoint_dir=str(cp_dir), obs=obs,
            )
        assert result.stop_reason == STOP_QUARANTINED
        assert result.quarantined_units == 1
        replay = engine.retry_quarantined(str(cp_dir))
        assert replay.stop_reason is None
        assert result.count + replay.count == reference


# ---------------------------------------------------------------------------
# Registries and surfaces: stop reason, health command, top renderer
# ---------------------------------------------------------------------------
class TestSupervisionSurfaces:
    def test_quarantined_is_a_registered_stop_reason(self):
        assert STOP_QUARANTINED == "quarantined"
        assert STOP_QUARANTINED in STOP_REASONS

    def test_config_block_type_validation(self):
        bad = {
            "format": "x", "config": {
                "workers": 2, "stall_timeout": "fast",
                "max_unit_attempts": 3,
            },
        }
        problems = robustness_problems(bad)
        assert any("config.stall_timeout" in p for p in problems)
        good = {"format": "x", "config": {
            "workers": 2, "stall_timeout": 2.5,
            "max_respawns": None, "max_unit_attempts": 3,
        }}
        assert robustness_problems(good) == []

    def test_health_command_over_pool_monitor(self, engine):
        obs = Observation(trace=False, heartbeat_interval=0.05)
        inspector = MatchInspector(None, obs, worker="t").attach()
        result = engine.match(
            CATALOG["square"](), "homomorphic", count_only=True,
            workers=2, stall_timeout=10.0, obs=obs,
        )
        inspector.finish(result)
        payload = inspector.handle("health")
        assert payload["supervised"] is True
        assert payload["stall_timeout"] == 10.0
        assert payload["stall_kills"] == 0
        assert payload["quarantined_units"] == 0
        assert payload["respawns_left"] >= 0
        assert {row["worker"] for row in payload["workers"]} == {"w0", "w1"}
        for row in payload["workers"]:
            assert set(row) == {"worker", "state", "unit", "beat_age"}

    def test_render_top_shows_supervision_line(self):
        status = {
            "worker": "pool", "state": "running", "pid": 1, "clients": 1,
            "emitted": 10, "nodes": 20, "beats": 3, "elapsed_seconds": 1.0,
            "health": {"stall_timeout": 2.0, "stall_kills": 1,
                       "quarantined_units": 2, "respawns_left": 4},
            "workers": [
                {"worker": "w0", "pid": 11, "state": "busy", "unit": 3,
                 "units": 2, "emitted": 5, "nodes": 9, "beat_age": 0.07},
                {"worker": "w1", "pid": 12, "state": "idle", "unit": None,
                 "units": 1, "emitted": 5, "nodes": 11, "beat_age": None},
            ],
        }
        text = render_top(status)
        assert "supervision : watchdog 2s" in text
        assert "stall-kills 1" in text
        assert "quarantined 2" in text
        assert "respawns-left 4" in text
        header = [line for line in text.splitlines()
                  if line.startswith("worker")][0]
        assert header.rstrip().endswith("beat")
        assert "0.1s" in text  # w0's beat age, rendered to one decimal
