"""Property-based tests for the history machinery."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import TrainingHistory


finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestHistoryProperties:
    @given(st.lists(st.tuples(st.integers(0, 1000),
                              st.floats(0, 1e6, allow_nan=False),
                              finite),
                    min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_monotone_records_always_accepted(self, raw):
        # Build jointly monotone step/time axes from the drawn values.
        steps = sorted(t[0] for t in raw)
        seconds = sorted(t[1] for t in raw)
        objectives = [t[2] for t in raw]
        h = TrainingHistory("prop")
        for step, sec, obj in zip(steps, seconds, objectives):
            h.record(step, sec, obj)
        assert len(h) == len(raw)
        assert h.best_objective == min(objectives)
        assert h.total_steps == steps[-1]

    @given(objectives=st.lists(finite, min_size=1, max_size=30),
           threshold=finite)
    @settings(max_examples=60, deadline=None)
    def test_first_reaching_is_earliest(self, objectives, threshold):
        h = TrainingHistory("prop")
        for i, obj in enumerate(objectives):
            h.record(i, float(i), obj)
        hit = h.first_reaching(threshold)
        if hit is None:
            assert all(o > threshold for o in objectives)
        else:
            assert objectives[hit.step] <= threshold
            assert all(o > threshold for o in objectives[:hit.step])
