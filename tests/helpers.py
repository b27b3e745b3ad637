"""Plain helpers shared by the test modules."""

import heapq


def pop_event(cal):
    """Take the earliest (time, seq, kind, target) entry off ``cal``'s heap
    and move its clock there, as the run loop does; None once the heap is
    empty."""
    if not cal._heap:
        return None
    ev = heapq.heappop(cal._heap)
    cal.now = ev[0]
    return ev
