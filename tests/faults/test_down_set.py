"""The per-interval down set answers exactly what the window scan did.

``FaultSchedule.server_down`` is a lookup in a memoized per-interval
set.  For any schedule it must agree with scanning the server's crash
windows — before, inside, between and past every window — and a
schedule pickled after its memo filled must keep answering the same.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.faults import FaultSchedule, ServerCrash, Window

HORIZON = 30


def window_scan(crashes, server_id, interval):
    return any(
        crash.server_id == server_id and crash.window.contains(interval)
        for crash in crashes
    )


@st.composite
def crash_lists(draw):
    crashes = []
    for server_id in draw(st.lists(st.integers(0, 9), unique=True, max_size=6)):
        # Disjoint windows per server (overlaps are rejected at build).
        cursor = draw(st.integers(0, 5))
        for _ in range(draw(st.integers(1, 3))):
            end = cursor + draw(st.integers(1, 6))
            crashes.append(ServerCrash(server_id, Window(cursor, end)))
            cursor = end + draw(st.integers(0, 4))
    return draw(st.permutations(crashes))


@settings(max_examples=60, deadline=None)
@given(crashes=crash_lists(), pickle_at=st.integers(0, HORIZON + 10))
def test_server_down_matches_window_scan(crashes, pickle_at):
    schedule = FaultSchedule(server_crashes=crashes)
    # Intervals run past every window (windows end by 5 + 3 * 10 < 40).
    intervals = range(HORIZON + 10)
    for interval in intervals:
        if interval == pickle_at:
            schedule = pickle.loads(pickle.dumps(schedule))
        down = schedule.servers_down(interval)
        for server_id in range(12):
            expected = window_scan(crashes, server_id, interval)
            assert schedule.server_down(server_id, interval) is expected
            assert (server_id in down) is expected
    # A second pass answers from the memo (and from the unpickled copy).
    copy = pickle.loads(pickle.dumps(schedule))
    for interval in intervals:
        for server_id in range(12):
            expected = window_scan(crashes, server_id, interval)
            assert schedule.server_down(server_id, interval) is expected
            assert copy.server_down(server_id, interval) is expected


def test_empty_schedule_has_nothing_down():
    schedule = FaultSchedule()
    assert schedule.servers_down(0) == frozenset()
    assert not schedule.server_down(3, 0)


def test_down_set_is_memoized_per_interval():
    schedule = FaultSchedule(
        server_crashes=[ServerCrash(1, Window(2, 4)), ServerCrash(5, Window(3, 6))]
    )
    assert schedule.servers_down(3) == {1, 5}
    assert schedule.servers_down(3) is schedule.servers_down(3)
    assert schedule.servers_down(5) == {5}
    assert schedule.servers_down(6) == frozenset()
