"""Tests for the domain time-series sampler."""

import pytest

from repro.experiments import InsDomain
from repro.experiments.metrics import DomainSampler
from repro.resolver import ResolutionRequest
from repro.resolver.ports import INR_PORT

from ..conftest import parse


class TestSampler:
    def test_samples_accumulate_over_time(self):
        domain = InsDomain(seed=900)
        inr = domain.add_inr(address="inr-a")
        sampler = DomainSampler(domain, interval=1.0).start()
        domain.run(5.5)
        series = sampler.series("inr-a")
        assert len(series) == 5
        times = [s.time for s in series]
        assert times == sorted(times)

    def test_utilization_reflects_load(self):
        domain = InsDomain(seed=901)
        inr = domain.add_inr(address="inr-a")
        domain.add_service("[service=m[id=1]]", resolver=inr)
        client = domain.add_client(resolver=inr)
        domain.settle()
        sampler = DomainSampler(domain, interval=1.0).start()
        domain.run(2.0)  # quiet baseline
        # 400 lookups/s at 1.5 ms each ~ 60% utilization
        query = parse("[service=m]")
        for i in range(800):
            domain.sim.schedule(
                2.0 + i / 400.0,
                lambda: client.send(
                    inr.address, INR_PORT,
                    ResolutionRequest(name=query, reply_to=client.address,
                                      reply_port=client.port),
                ),
            )
        domain.run(4.0)
        quiet = sampler.series("inr-a")[0].cpu_utilization
        peak = max(s.cpu_utilization for s in sampler.series("inr-a"))
        assert quiet < 0.05
        assert 0.3 < peak < 1.0

    def test_name_counts_sampled(self):
        domain = InsDomain(seed=902)
        inr = domain.add_inr(address="inr-a")
        sampler = DomainSampler(domain, interval=1.0).start()
        domain.run(2.0)
        domain.add_service("[service=m[id=1]]", resolver=inr)
        domain.run(2.5)
        series = sampler.series("inr-a")
        assert series[0].names == 0
        assert series[-1].names == 1

    def test_terminated_inrs_drop_out(self):
        domain = InsDomain(seed=903)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        sampler = DomainSampler(domain, interval=1.0).start()
        domain.run(2.0)
        b.terminate()
        domain.run(3.0)
        late = [s for s in sampler.samples if s.time > domain.now - 2.0]
        assert all(s.address != "inr-b" for s in late)

    def test_stop_halts_sampling(self):
        domain = InsDomain(seed=904)
        domain.add_inr()
        sampler = DomainSampler(domain, interval=1.0).start()
        domain.run(2.5)
        count = len(sampler.samples)
        sampler.stop()
        domain.run(5.0)
        assert len(sampler.samples) == count

    def test_invalid_interval_rejected(self):
        domain = InsDomain(seed=906)
        with pytest.raises(ValueError):
            DomainSampler(domain, interval=0.0)

    def test_double_start_rejected(self):
        domain = InsDomain(seed=907)
        sampler = DomainSampler(domain).start()
        with pytest.raises(RuntimeError):
            sampler.start()
