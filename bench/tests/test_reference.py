"""Reference seconds: a slower host must read the same, a slower program must not."""

import asyncio

import pytest

import client
import run
from calibrate import NOMINAL_S, reference, scale


def test_scale_is_nominal_over_the_mean_of_the_two_references():
    assert scale(NOMINAL_S, NOMINAL_S) == 1.0
    assert scale(2 * NOMINAL_S, 2 * NOMINAL_S) == 0.5
    assert scale(NOMINAL_S, 3 * NOMINAL_S) == 0.5
    assert reference() > 0.0


def _segment(slowdown, program=1.0):
    """Ten blocks of 10 ops on a host ``slowdown`` times slower than nominal."""
    by = scale(slowdown * NOMINAL_S, slowdown * NOMINAL_S)
    blocks = [(10, 0.5 * slowdown * program, 0.05 * slowdown * program, by)] * 10
    report = {"setup_s": 2.0 * slowdown, "setup_reference_s": slowdown * NOMINAL_S,
              "peak_rss_mb": 50.0}
    return report, blocks


def test_host_speed_cancels_and_program_speed_does_not():
    def outcome(*segments):
        return run.end_to_end([s[0] for s in segments], [s[1] for s in segments])

    quiet = outcome(_segment(1.0), _segment(1.0), _segment(1.0))
    noisy = outcome(_segment(2.0), _segment(1.3), _segment(1.0))
    assert noisy["metrics"] == pytest.approx(quiet["metrics"])
    assert quiet["metrics"] == pytest.approx(
        {"setup_s": 2.0, "ops_per_s": 20.0, "latency_p50_ms": 50.0, "peak_rss_mb": 50.0})
    # the wall clock of the noisy run is still there to read
    assert noisy["raw"]["ops_per_s"] == pytest.approx(10 / (0.5 * (2.0 + 1.3 + 1.0) / 3))
    slower = outcome(*[_segment(1.7, program=1.25)] * 3)
    assert slower["metrics"]["ops_per_s"] == pytest.approx(20.0 / 1.25)
    assert slower["metrics"]["latency_p50_ms"] == pytest.approx(50.0 * 1.25)


def test_closed_loop_pauses_between_blocks_and_keeps_them_off_the_clock():
    async def serve_one(reader, writer):
        while await reader.readline():
            while (await reader.readline()).strip():
                pass
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
            await writer.drain()
        writer.close()

    async def drive():
        server = await asyncio.start_server(serve_one, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        calls = []

        def between():
            calls.append(len(calls))
            return float(len(calls))

        try:
            return await client.closed_loop(
                "127.0.0.1", port, [client.get_wire("127.0.0.1", "/")], [0] * 10, 1,
                every=4, between=between,
            )
        finally:
            server.close()
            await server.wait_closed()

    result = asyncio.run(drive())
    assert result.ok == 10
    # before the first request, then after the 4th and the 8th answer
    assert [pause[0] for pause in result.pauses] == [0, 4, 8]
    blocks = result.blocks()
    assert [(before, after) for _w, _l, before, after in blocks] == [(1.0, 2.0), (2.0, 3.0)]
    for (wall, latency, _b, _a), first in zip(blocks, (0, 4)):
        assert wall >= sum(result.latencies[first:first + 4]) > 0.0
        assert min(result.latencies[first:first + 4]) <= latency
        assert latency <= max(result.latencies[first:first + 4])
