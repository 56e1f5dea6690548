"""Tests for the remote-invocation runtime behind PROXY views."""

import pytest

from repro.core.system import run_all_scripts
from repro.errors import ReproError
from repro.net import SimTransport, resolve_transport
from repro.psf.remote import ComponentServer, RemoteCallError, RemoteStub, expose
from repro.sim import SimKernel


class Calculator:
    def __init__(self):
        self.memory = 0.0

    def add(self, a, b):
        return a + b

    def store(self, value):
        self.memory = value

    def recall(self):
        return self.memory

    def explode(self):
        raise ValueError("kaboom")

    def _secret(self):  # never exposed
        return 42


def make_sim():
    kernel = SimKernel()
    transport = SimTransport(kernel, default_latency=1.0)
    server = expose(transport, "calc", Calculator(), ["add", "store", "recall", "explode"])
    stub = RemoteStub(transport, "client", "calc")
    return kernel, transport, server, stub


def test_basic_call_roundtrip():
    kernel, transport, server, stub = make_sim()

    def script():
        result = yield stub.call("add", 2, 3)
        return result

    [result] = run_all_scripts(transport, [script()])
    assert result == 5
    assert server.calls_served == 1


def test_attribute_sugar_and_kwargs():
    kernel, transport, server, stub = make_sim()

    def script():
        yield stub.store(value=7.5)
        got = yield stub.recall()
        return got

    [got] = run_all_scripts(transport, [script()])
    assert got == 7.5


def test_remote_exception_propagates_by_name():
    kernel, transport, server, stub = make_sim()

    def script():
        try:
            yield stub.explode()
        except RemoteCallError as exc:
            return exc.remote_type, exc.remote_message

    [(rtype, rmsg)] = run_all_scripts(transport, [script()])
    assert rtype == "ValueError" and rmsg == "kaboom"


def test_unexposed_method_rejected():
    kernel, transport, server, stub = make_sim()

    def script():
        try:
            yield stub.call("_secret")
        except RemoteCallError as exc:
            return exc.remote_type

    [rtype] = run_all_scripts(transport, [script()])
    assert rtype == "PermissionError"


def test_expose_validates_methods():
    kernel = SimKernel()
    transport = SimTransport(kernel)
    with pytest.raises(ReproError, match="no callable"):
        expose(transport, "x", Calculator(), ["ghost_method"])
    with pytest.raises(ReproError, match="at least one"):
        expose(transport, "y", Calculator(), [])


def test_whitelist_from_proxy_view_functions():
    """The access-control tie-in: a PROXY view's functions set is the
    server whitelist, so users can only call what the view grants."""
    from repro.psf import AccessPolicy, Credentials, select_view
    from repro.psf.component import ComponentType, Interface

    ctype = ComponentType.make(
        "Calc", implements=[Interface.make("Math")],
        functions={"add", "recall"}, variables={"memory"},
    )
    view = select_view(ctype, Credentials.make("guest"), AccessPolicy.default_open())
    kernel = SimKernel()
    transport = SimTransport(kernel, default_latency=1.0)
    expose(transport, "calc", Calculator(), view.functions)
    stub = RemoteStub(transport, "client", "calc")

    def script():
        ok = yield stub.add(1, 1)
        try:
            yield stub.store(9)  # not in the view's functions
        except RemoteCallError as exc:
            return ok, exc.remote_type

    [(ok, denied)] = run_all_scripts(transport, [script()])
    assert ok == 2 and denied == "PermissionError"


def test_remote_calls_over_tcp():
    transport = resolve_transport("tcp")
    try:
        expose(transport, "calc", Calculator(), ["add"])
        stub = RemoteStub(transport, "client", "calc")

        def script():
            r = yield stub.add(20, 22)
            return r

        [result] = run_all_scripts(transport, [script()])
        assert result == 42
    finally:
        transport.close()
