"""Discrete-event engine semantics."""

import pytest

from repro.errors import SimulationError
from repro.hw.engine import Engine


class TestTimeouts:
    def test_sequential_timeouts(self):
        engine = Engine()
        trace = []

        def process():
            yield engine.timeout(1.0)
            trace.append(engine.now)
            yield engine.timeout(2.0)
            trace.append(engine.now)

        engine.spawn(process())
        total = engine.run()
        assert trace == [1.0, 3.0]
        assert total == 3.0

    def test_parallel_processes_interleave(self):
        engine = Engine()
        trace = []

        def worker(name, delay):
            yield engine.timeout(delay)
            trace.append((name, engine.now))

        engine.spawn(worker("b", 2.0))
        engine.spawn(worker("a", 1.0))
        engine.run()
        assert trace == [("a", 1.0), ("b", 2.0)]

    def test_negative_timeout_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.timeout(-1.0)


class TestResources:
    def test_capacity_serializes(self):
        engine = Engine()
        resource = engine.resource(1, "device")
        finish = []

        def job(duration):
            yield resource.acquire()
            yield engine.timeout(duration)
            yield resource.release()
            finish.append(engine.now)

        engine.spawn(job(2.0))
        engine.spawn(job(3.0))
        engine.run()
        assert finish == [2.0, 5.0]

    def test_capacity_two_overlaps(self):
        engine = Engine()
        resource = engine.resource(2, "device")
        finish = []

        def job(duration):
            yield resource.acquire()
            yield engine.timeout(duration)
            yield resource.release()
            finish.append(engine.now)

        engine.spawn(job(2.0))
        engine.spawn(job(3.0))
        engine.run()
        assert finish == [2.0, 3.0]

    def test_release_idle_rejected(self):
        engine = Engine()
        resource = engine.resource(1)

        def bad():
            yield resource.release()

        engine.spawn(bad())
        with pytest.raises(SimulationError):
            engine.run()

    def test_deadlock_detected(self):
        engine = Engine()
        resource = engine.resource(1)

        def hog():
            yield resource.acquire()
            # never releases

        def waiter():
            yield resource.acquire()

        engine.spawn(hog())
        engine.spawn(waiter())
        with pytest.raises(SimulationError, match="deadlock"):
            engine.run()


class TestProcessJoin:
    def test_wait_on_other_process(self):
        engine = Engine()
        order = []

        def first():
            yield engine.timeout(2.0)
            order.append("first")

        def second(dep):
            yield dep
            order.append("second")

        dep = engine.spawn(first())
        engine.spawn(second(dep))
        engine.run()
        assert order == ["first", "second"]

    def test_join_finished_process(self):
        engine = Engine()
        done = []

        def quick():
            yield engine.timeout(0.5)

        def late(dep):
            yield engine.timeout(3.0)
            yield dep  # already finished
            done.append(engine.now)

        dep = engine.spawn(quick())
        engine.spawn(late(dep))
        engine.run()
        assert done == [3.0]

    def test_unsupported_command_rejected(self):
        engine = Engine()

        def bad():
            yield "nonsense"

        engine.spawn(bad())
        with pytest.raises(SimulationError, match="unsupported"):
            engine.run()
