"""Differential: the cluster recurrence against the event-kernel oracle.

:class:`ClusterRunner` computes the Mogon tandem line as a max-plus
recurrence; :class:`~tests.cluster.event_oracle.EventClusterRunner`
simulates the same line with generator processes on :mod:`repro.sim`.
Over random node parameters, pipeline counts, walkthrough lengths and
image sizes, the two must agree bit for bit on everything except the
busy means, whose sums the kernel adds in completion-time order.

The city's render cost varies by about 10 % from frame to frame, too
little for some schedules to occur: the external renderer's two-deep
frame socket, for one, only matters when the feed alternates between
waiting on the connector and falling far behind it.  A second test
therefore scripts the render cost of every frame.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import CLUSTER_CONFIGURATIONS, ClusterConfig, ClusterRunner
from repro.host import UDPConfig
from repro.pipeline.costmodel import CostModel
from repro.pipeline.workload import WalkthroughWorkload

from .event_oracle import EventClusterRunner

#: relative bound on a busy mean (summation order only)
BUSY_REL = 1e-12


def assert_same(got, want):
    assert got.walkthrough_seconds == want.walkthrough_seconds
    assert got.cores_used == want.cores_used
    assert got.idle_quartiles == want.idle_quartiles
    # idle keys are first recorded in chain order; busy keys in the order
    # stages first finish, which the event kernel's timing decides
    assert list(got.idle_quartiles) == list(want.idle_quartiles)
    assert got.busy_means.keys() == want.busy_means.keys()
    for key, mean in want.busy_means.items():
        assert got.busy_means[key] == pytest.approx(mean, rel=BUSY_REL,
                                                    abs=0.0), key


def both(**kw):
    return ClusterRunner(**kw).run(), EventClusterRunner(**kw).run()


positive = st.floats(min_value=0.5, max_value=60.0)
nonneg_s = st.one_of(st.just(0.0), st.floats(min_value=1e-7, max_value=2e-3))

cluster_configs = st.builds(
    ClusterConfig,
    filter_speedup=positive,
    render_speedup=positive,
    shm_bandwidth=st.floats(min_value=1e6, max_value=1e10),
    network=st.builds(
        UDPConfig,
        mtu_payload=st.integers(min_value=64, max_value=9000),
        bandwidth=st.floats(min_value=1e5, max_value=1e10),
        per_datagram_overhead=nonneg_s,
        latency_s=nonneg_s),
    recv_per_datagram_s=nonneg_s,
    sync_overhead_s=nonneg_s,
)


@settings(max_examples=40, deadline=None)
@given(config=st.sampled_from(CLUSTER_CONFIGURATIONS),
       pipelines=st.integers(min_value=1, max_value=7),
       frames=st.integers(min_value=1, max_value=40),
       image_side=st.sampled_from((16, 24, 32)),
       cluster_config=cluster_configs)
def test_recurrence_matches_event_oracle(config, pipelines, frames,
                                         image_side, cluster_config):
    got, want = both(config=config, pipelines=pipelines, frames=frames,
                     image_side=image_side, cluster_config=cluster_config)
    assert_same(got, want)


@pytest.mark.parametrize("config", CLUSTER_CONFIGURATIONS)
@pytest.mark.parametrize("pipelines", (1, 4, 7))
def test_recurrence_matches_event_oracle_default_node(config, pipelines):
    """The stock Mogon parameters at the 40-frame test length."""
    got, want = both(config=config, pipelines=pipelines, frames=40)
    assert_same(got, want)


class ScriptedWorkload(WalkthroughWorkload):
    """A walkthrough's geometry whose render profile is just the frame
    and strip, so that :class:`ScriptedCost` can price it."""

    def profile(self, frame, strip_index=0, num_strips=1):
        return frame, strip_index


class ScriptedCost(CostModel):
    """Given render seconds per frame; strip ``i`` renders a share."""

    def __init__(self, render_s):
        self.render_s = render_s

    def render_seconds(self, profile, sort_first=False):
        frame, strip = profile
        return self.render_s[frame] / (strip + 1)


@settings(max_examples=60, deadline=None)
@given(config=st.sampled_from(CLUSTER_CONFIGURATIONS),
       pipelines=st.integers(min_value=1, max_value=4),
       render_s=st.lists(st.sampled_from((0.0, 1e-3, 0.02, 0.05, 0.4, 2.0)),
                         min_size=1, max_size=30),
       recv_per_datagram_s=st.sampled_from((0.0, 2e-5, 1e-4)))
# free frames fill the socket ahead of a slow connector, then a costly
# one drains it: the socket depth decides when the connector gets it
@example(config="external_renderer", pipelines=1,
         render_s=[0.0, 0.0, 0.0, 0.4], recv_per_datagram_s=1e-4)
def test_recurrence_matches_event_oracle_on_scripted_costs(
        config, pipelines, render_s, recv_per_datagram_s):
    kw = dict(config=config, pipelines=pipelines, frames=len(render_s),
              workload=ScriptedWorkload(frames=len(render_s), image_side=24),
              cost=ScriptedCost(render_s),
              cluster_config=ClusterConfig(
                  recv_per_datagram_s=recv_per_datagram_s))
    assert_same(*both(**kw))
