"""Shared test plumbing.

Keeps the tests directory importable for the oracle helpers, measures a
call's traced peak, and collects the acceptance-criteria summary lines so
they are printed after the run, visible even when every test passes.
"""
import tracemalloc

ACCEPTANCE_LINES: list[str] = []


def record(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def warm_traced_peak(call) -> int:
    """Bytes tracemalloc traces at the peak of a second call to `call`.

    numpy reports its buffers to tracemalloc; the first, untraced call fills
    any caches the call itself does not clear.
    """
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
