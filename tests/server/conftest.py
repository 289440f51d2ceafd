"""Serving-layer fixtures and the socket-test timeout guard.

``pytest-timeout`` is not available in this environment, so every test in
this directory is armed with a ``faulthandler`` watchdog instead: if a
socket test hangs past the deadline (a deadlocked gate, an undrained
shutdown), the watchdog dumps all thread stacks and kills the process —
a loud diagnosable failure instead of a silent CI hang.  The deadline is
configurable per test via the ``wire_deadline`` marker.
"""

from __future__ import annotations

import faulthandler

import pytest

from repro.filters import SuRFBuilder
from repro.server import AsyncLoopbackTransport
from repro.workloads import DatasetConfig, build_environment

#: Wall-clock seconds any one serving-layer test may take.
DEFAULT_DEADLINE_S = 120.0


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "wire_deadline(seconds): override the socket-test watchdog deadline",
    )


@pytest.fixture(autouse=True)
def _socket_watchdog(request):
    """Arm a hang watchdog around every serving-layer test."""
    marker = request.node.get_closest_marker("wire_deadline")
    deadline = marker.args[0] if marker else DEFAULT_DEADLINE_S
    faulthandler.dump_traceback_later(deadline, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="module")
def wire_env():
    """A small served store (module-scoped: clock state may advance)."""
    return build_environment(DatasetConfig(
        num_keys=1500, key_width=4, seed=3,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8),
    ))


@pytest.fixture()
def loopback(wire_env):
    """A fresh loopback-served stack per test."""
    transport = AsyncLoopbackTransport(wire_env.service,
                                       background=wire_env.background)
    yield transport
    transport.close()
