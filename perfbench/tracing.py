"""Statement tracing from outside the program.

:class:`Tracer` wraps the public entry points of each layer - by
patching the classes and the module-level names their callers use - for
the length of a traced run, and restores them afterwards.  Nothing in
``src/`` is instrumented.  Each wrapper records a span (name, layer,
start, end, parent, statement id) into memory; spans are grouped per
statement and can be written out when the run ends.

Client and server halves of one GIOP request are linked through the
request id: the client-side ``encode_message`` sees it, the following
``Transport.send`` registers it against its own span, and the
server-side ``decode_message`` (on whatever thread serves it) looks it
up and adopts that span as parent.  A layer's self time is its spans'
duration minus the part of it their children cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.core import query_processor as query_module
from repro.core.codatabase import CoDatabaseServant
from repro.core.discovery import CoDatabaseClient, DiscoveryEngine
from repro.core.registry import Registry
from repro.core.replication import ReplicatedCoDatabase
from repro.core.query_processor import QueryProcessor
from repro.oodb.database import ObjectDatabase
from repro.orb import orb as orb_module
from repro.orb.giop import (LocateRequestMessage, ReplyMessage,
                            LocateReplyMessage, RequestMessage)
from repro.orb.orb import Orb
from repro.sql.engine import Database
from repro.wrappers.base import InformationSourceInterface
from repro.wrappers.objectstore import ObjectDbWrapper
from repro.wrappers.relational import RelationalWrapper
from repro.wrappers.remote import IsiServant, RemoteIsi

#: The paper's four layers (Figure 3) plus the benchmark's own time.
LAYERS = ("query", "communication", "metadata", "data", "bench")

_CODB_READS = ("find_coalitions", "memberships", "service_links",
               "neighbor_databases", "known_coalitions", "subclasses_of",
               "instances_of", "describe_instance", "documents_of")
_SERVANT_OPS = _CODB_READS + ("owner", "epoch", "versioned")
_REGISTRY_WRITES = ("advertise", "remove_source", "create_coalition",
                    "dissolve_coalition", "join", "leave",
                    "add_service_link", "remove_service_link",
                    "attach_document")
_REPLICA_WRITES = ("advertise", "register_coalition", "record_membership",
                   "drop_membership", "add_member", "remove_member",
                   "forget_coalition", "add_service_link",
                   "remove_service_link", "attach_document")


@dataclass(slots=True)
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    stmt: Optional[int]
    #: Rows returned (SQL) or the side of a GIOP codec call.
    note: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's
    intervals, clipped to the span.  Children may run on other threads
    (server side of a TCP request) and may overlap one another."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called *name* with no ancestor of the same name."""
    by_id = {span.id: span for span in spans}
    found = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            found.append(span)
    return found


class Tracer:
    """Installs span-recording wrappers; one per traced run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []
        #: GIOP request id -> (statement id, client send span id).
        self._links: dict[int, tuple[int, int]] = {}
        self.spans: dict[int, list[Span]] = {}
        #: Spans recorded outside any statement (dropped, but counted).
        self.unattributed = 0

    # -- context ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _served(self) -> list:
        """Stack depths at which this thread adopted a client's span to
        serve a request (popped again when the reply is encoded)."""
        served = getattr(self._local, "served", None)
        if served is None:
            served = self._local.served = []
        return served

    def _record(self, span: Span) -> None:
        if span.stmt is None:
            self.unattributed += 1
            return
        bucket = self.spans.get(span.stmt)
        if bucket is None:
            bucket = self.spans.setdefault(span.stmt, [])
        bucket.append(span)

    @contextmanager
    def statement(self, stmt_id: int):
        """Root span of one statement, on the calling thread."""
        span_id = next(self._ids)
        stack = self._stack()
        stack.append((span_id, stmt_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record(Span(span_id, "bench.statement", "bench", start,
                              end, None, stmt_id))

    def take(self, stmt_id: int) -> list[Span]:
        """Remove and return the spans of one finished statement."""
        return self.spans.pop(stmt_id, [])

    # -- wrappers --------------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute,
                              owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def wrap(self, owner: Any, attribute: str, name: str, layer: str,
             note: Optional[Callable[[Any], Any]] = None) -> None:
        """Record a span around every call of ``owner.attribute``."""
        original = owner.__dict__[attribute]
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, stmt = stack[-1] if stack else (None, None)
            span_id = next(tracer._ids)
            stack.append((span_id, stmt))
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._record(Span(span_id, name, layer, start, end,
                                    parent, stmt,
                                    note(result) if note else None))

        traced.__wrapped__ = original
        self._patch(owner, attribute, traced)

    def _wrap_codec(self) -> None:
        """``encode_message`` / ``decode_message`` as bound in
        :mod:`repro.orb.orb`, linking the two sides of each request."""
        tracer = self
        encode = orb_module.__dict__["encode_message"]
        decode = orb_module.__dict__["decode_message"]

        def traced_encode(message, *args, **kwargs):
            stack = tracer._stack()
            parent, stmt = stack[-1] if stack else (None, None)
            start = time.perf_counter()
            data = encode(message, *args, **kwargs)
            end = time.perf_counter()
            client = isinstance(message, (RequestMessage,
                                          LocateRequestMessage))
            tracer._record(Span(next(tracer._ids), "giop.encode",
                                "communication", start, end, parent, stmt,
                                "client" if client else "server"))
            if client:
                tracer._local.request_id = message.request_id
            elif isinstance(message, (ReplyMessage, LocateReplyMessage)):
                served = tracer._served()
                if served and served[-1] == len(stack):
                    served.pop()
                    stack.pop()
            return data

        def traced_decode(data):
            stack = tracer._stack()
            parent, stmt = stack[-1] if stack else (None, None)
            start = time.perf_counter()
            message = decode(data)
            end = time.perf_counter()
            server = isinstance(message, (RequestMessage,
                                          LocateRequestMessage))
            if server:
                link = tracer._links.pop(message.request_id, None)
                if link is not None:
                    stmt, parent = link
            tracer._record(Span(next(tracer._ids), "giop.decode",
                                "communication", start, end, parent, stmt,
                                "server" if server else "client"))
            if server and getattr(message, "response_expected", True):
                # Servant spans on this thread hang under the client's
                # send span until the reply is encoded.
                stack.append((parent, stmt))
                tracer._served().append(len(stack))
            return message

        self._patch(orb_module, "encode_message", traced_encode)
        self._patch(orb_module, "decode_message", traced_decode)

    def _wrap_send(self, transport_class: type) -> None:
        tracer = self
        original = transport_class.__dict__["send"]

        def traced_send(transport, endpoint, data):
            stack = tracer._stack()
            parent, stmt = stack[-1] if stack else (None, None)
            span_id = next(tracer._ids)
            request_id = getattr(tracer._local, "request_id", None)
            tracer._local.request_id = None
            if request_id is not None and stmt is not None:
                tracer._links[request_id] = (stmt, span_id)
            stack.append((span_id, stmt))
            start = time.perf_counter()
            try:
                return original(transport, endpoint, data)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._links.pop(request_id, None)
                tracer._record(Span(span_id, "transport.send",
                                    "communication", start, end, parent,
                                    stmt))

        self._patch(transport_class, "send", traced_send)

    def install(self, transport_class: type) -> None:
        """Wrap every layer's entry points (*transport_class* is the
        class of the measured deployment's transport)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrap = self.wrap
        # query
        wrap(QueryProcessor, "execute", "query_processor.execute", "query")
        wrap(query_module, "parse", "webtassili.parse", "query")
        # communication
        self._wrap_codec()
        wrap(Orb, "invoke", "orb.invoke", "communication")
        wrap(Orb, "locate", "orb.locate", "communication")
        self._wrap_send(transport_class)
        # metadata
        wrap(DiscoveryEngine, "discover", "discovery.discover", "metadata")
        for operation in _CODB_READS:
            wrap(CoDatabaseClient, operation, "codatabase.client",
                 "metadata")
        for operation in _SERVANT_OPS:
            wrap(CoDatabaseServant, operation, "codatabase.servant",
                 "metadata")
        for operation in _REGISTRY_WRITES:
            wrap(Registry, operation, "registry.write", "metadata")
        for operation in _REPLICA_WRITES:
            wrap(ReplicatedCoDatabase, operation, "replication.write",
                 "metadata")
        # data
        for operation in ("describe", "execute_native", "invoke"):
            wrap(IsiServant, operation, "wrappers.servant", "data")
        for operation in ("execute_native", "invoke"):
            wrap(RemoteIsi, operation, "wrappers.client", "data")
        wrap(RelationalWrapper, "execute_native", "wrappers.native", "data")
        wrap(ObjectDbWrapper, "execute_native", "wrappers.native", "data")
        wrap(InformationSourceInterface, "invoke", "wrappers.invoke",
             "data")
        wrap(Database, "execute", "sql.execute", "data",
             note=lambda result: len(getattr(result, "rows", ()) or ()))
        wrap(ObjectDatabase, "query", "oodb.query", "data")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
