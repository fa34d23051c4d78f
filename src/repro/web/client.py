"""Client-side vs server-side transformation (paper §6).

§6: "we run the transformation process using a client-server technology,
i.e. the XSLT stylesheet is applied to the XML document in the server
and the HTML is returned to the client browser.  In the future, when the
browsers completely support XML and XSLT, the transformation will be
able to be performed in the browser."

This module implements both deployment modes over the same engine:

* :func:`server_side` — what the paper did: transform on the "server",
  return finished HTML;
* :func:`client_bundle` — what the paper anticipated: ship the raw XML
  (with an ``xml-stylesheet`` processing instruction) plus the
  stylesheet, and let the "browser" transform;
* :class:`BrowserSimulator` — the client: reads the bundle, follows the
  PI, runs the transformation locally;
* :class:`RepositoryClient` — a resilient HTTP client for the model-
  repository server (DESIGN.md §12): retries connection failures and
  503 overload sheds with jittered exponential backoff, honouring
  ``Retry-After``.  Deterministic when given a seeded RNG, which is how
  the chaos runner replays client behaviour from a seed.  Every
  *logical* request carries one ``X-Goldcase-Request-Id`` minted from
  that same RNG and reused across its retries, so server access-log
  lines group an entire retry storm under a single id (DESIGN.md §15).

A test asserts the two modes produce identical HTML — the property that
makes the §6 migration safe.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass
from random import Random
from urllib.parse import quote, urlencode

from ..mdm.model import GoldModel
from ..mdm.xml_io import model_to_document
from ..obs.ids import RequestIdGenerator
from ..xml.dom import ProcessingInstruction
from ..xml.parser import parse as parse_xml
from ..xml.serializer import serialize
from ..xslt import Transformer, compile_stylesheet
from .stylesheets import SINGLE_PAGE_XSL, stylesheet_resolver

__all__ = ["ClientBundle", "server_side", "client_bundle",
           "BrowserSimulator", "ClientResponse", "RepositoryClient",
           "RetriesExhausted", "RetryPolicy", "query_path"]


@dataclass
class ClientBundle:
    """What the server ships for client-side transformation."""

    #: The XML document text, carrying an xml-stylesheet PI.
    document_xml: str
    #: Stylesheet files keyed by href (the PI's target plus includes).
    stylesheets: dict[str, str]

    @property
    def stylesheet_href(self) -> str:
        """The href named in the document's xml-stylesheet PI."""
        document = parse_xml(self.document_xml)
        for child in document.children:
            if isinstance(child, ProcessingInstruction) and \
                    child.target == "xml-stylesheet":
                return _pseudo_attribute(child.data, "href")
        raise ValueError("bundle document has no xml-stylesheet PI")


def server_side(model: GoldModel,
                stylesheet: str = SINGLE_PAGE_XSL) -> str:
    """The paper's deployment: transform on the server, ship HTML."""
    sheet = compile_stylesheet(stylesheet, resolver=stylesheet_resolver)
    result = Transformer(sheet).transform(model_to_document(model))
    return result.serialize()


def client_bundle(model: GoldModel,
                  stylesheet: str = SINGLE_PAGE_XSL,
                  href: str = "goldmodel.xsl") -> ClientBundle:
    """The §6 deployment: ship XML + stylesheet, transform client-side."""
    document = model_to_document(model)
    pi = ProcessingInstruction(
        "xml-stylesheet", f'type="text/xsl" href="{href}"')
    document.insert_before(pi, document.root_element)
    return ClientBundle(
        document_xml=serialize(document),
        stylesheets={href: stylesheet, "common.xsl":
                     stylesheet_resolver("common.xsl")},
    )


class BrowserSimulator:
    """A browser that 'completely supports XML and XSLT' (paper §6)."""

    def render(self, bundle: ClientBundle) -> str:
        """Follow the xml-stylesheet PI and transform locally."""
        href = bundle.stylesheet_href
        try:
            stylesheet_text = bundle.stylesheets[href]
        except KeyError:
            raise ValueError(
                f"bundle is missing the stylesheet {href!r}") from None
        sheet = compile_stylesheet(
            stylesheet_text,
            resolver=lambda include: bundle.stylesheets[include])
        document = parse_xml(bundle.document_xml)
        return Transformer(sheet).transform(document).serialize()


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for transient server failures.

    Attempt *n* (0-based) sleeps ``base_delay_s * 2**n``, scaled by a
    jitter factor drawn uniformly from [0.5, 1.0) so a herd of retrying
    clients decorrelates instead of re-arriving in lockstep; a 503's
    ``Retry-After`` raises the floor of the computed delay.
    """

    retries: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0

    def delay_s(self, attempt: int, rng: Random,
                retry_after_s: float | None = None) -> float:
        delay = min(self.max_delay_s, self.base_delay_s * (2 ** attempt))
        delay *= 0.5 + rng.random() / 2.0
        if retry_after_s is not None:
            delay = max(delay, min(retry_after_s, self.max_delay_s))
        return delay


@dataclass(frozen=True)
class ClientResponse:
    """One completed exchange: status, headers, body, retry count."""

    status: int
    headers: dict[str, str]
    body: bytes
    retries: int = 0

    def header(self, name: str) -> str | None:
        wanted = name.lower()
        for key, value in self.headers.items():
            if key.lower() == wanted:
                return value
        return None

    @property
    def request_id(self) -> str | None:
        """The exchange's ``X-Goldcase-Request-Id`` (echoed by the
        server, or minted by it for transport-level rejections)."""
        return self.header("X-Goldcase-Request-Id")


class RetriesExhausted(Exception):
    """Every attempt failed at the transport level (no HTTP response)."""

    def __init__(self, method: str, path: str, attempts: int,
                 cause: Exception) -> None:
        super().__init__(
            f"{method} {path} failed after {attempts} attempt(s): {cause!r}")
        self.attempts = attempts
        self.cause = cause


class RepositoryClient:
    """An HTTP client for the repository server that degrades gracefully.

    Connection errors and 503 responses (the cache's overload shed) are
    retried per the :class:`RetryPolicy`; other statuses — including
    500s — are returned to the caller untouched, because retrying a
    deterministic failure only amplifies load.  One connection is kept
    alive across requests and transparently re-established after a
    server-side close (the hardened handler closes on transport
    errors).
    """

    def __init__(self, host: str, port: int, *, timeout_s: float = 10.0,
                 policy: RetryPolicy | None = None,
                 rng: Random | None = None, sleep=time.sleep) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.policy = policy or RetryPolicy()
        self._rng = rng or Random()
        self._sleep = sleep
        self._connection: http.client.HTTPConnection | None = None
        # Ids share the client's RNG stream, so a seeded chaos client
        # mints the same ids on replay (the reproducer names them).
        self._request_ids = RequestIdGenerator(rng=self._rng)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "RepositoryClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(self, method: str, path: str, body: bytes | None,
                  headers: dict[str, str]) -> ClientResponse:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s)
        connection = self._connection
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            payload = response.read()  # keep-alive: always drain
        except Exception:
            # The connection state is unknown; rebuild it next attempt.
            self.close()
            raise
        return ClientResponse(
            status=response.status,
            headers=dict(response.getheaders()), body=payload)

    def request(self, method: str, path: str, *, body: bytes | None = None,
                headers: dict[str, str] | None = None) -> ClientResponse:
        """Perform one request, retrying sheds and transport failures.

        Raises :class:`RetriesExhausted` only when every attempt died
        without an HTTP response; socket timeouts are *not* retried —
        a hung server is something callers (the chaos runner's hung-
        connection invariant) must see.
        """
        attempts = self.policy.retries + 1
        last_error: Exception | None = None
        response: ClientResponse | None = None
        # One id per *logical* request: every retry resends it, so the
        # server logs the whole storm under a single identity.
        send_headers = dict(headers or {})
        send_headers.setdefault(
            "X-Goldcase-Request-Id", self._request_ids())
        for attempt in range(attempts):
            retry_after: float | None = None
            try:
                response = self._exchange(method, path, body, send_headers)
            except TimeoutError:
                raise
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                response = None
            if response is not None:
                if response.status != 503:
                    return ClientResponse(
                        response.status, response.headers, response.body,
                        retries=attempt)
                header = response.header("Retry-After")
                try:
                    retry_after = float(header) if header else None
                except ValueError:
                    retry_after = None
            if attempt + 1 < attempts:
                self._sleep(self.policy.delay_s(
                    attempt, self._rng, retry_after))
        if response is not None:  # a 503 that outlived the retry budget
            return ClientResponse(response.status, response.headers,
                                  response.body, retries=attempts - 1)
        raise RetriesExhausted(method, path, attempts, last_error)

    def query_cube(self, model: str, params: dict | None = None, *,
                   body: dict | None = None, format: str | None = None,
                   headers: dict[str, str] | None = None) -> ClientResponse:
        """Run an OLAP query against ``/olap/<model>/query``.

        With *params* the query goes out as a GET with urlencoded
        parameters (list values repeat the parameter, which is how
        multiple ``slice`` predicates travel); with *body* it goes out
        as a POST carrying the JSON query form.  Either way the full
        retry policy applies — an OLAP query is idempotent, so resending
        after a shed or transport failure is always safe.
        """
        if params is not None and body is not None:
            raise ValueError("pass params (GET) or body (POST), not both")
        path = query_path(model, params, format)
        if body is not None:
            send = dict(headers or {})
            send.setdefault("Content-Type", "application/json")
            return self.request("POST", path,
                                body=json.dumps(body).encode("utf-8"),
                                headers=send)
        return self.request("GET", path, headers=headers)

    def olap_stats(self, model: str, *,
                   headers: dict[str, str] | None = None) -> ClientResponse:
        """Fetch ``/olap/<model>/stats`` (aggregate/dataset cache state)."""
        return self.request(
            "GET", f"/olap/{quote(model)}/stats", headers=headers)


def query_path(model: str, params: dict | None = None,
               format: str | None = None) -> str:
    """``/olap/<model>/query`` with *params* urlencoded.

    A list value repeats its parameter (how several ``slice``
    predicates travel); *format*, when given, goes last.
    """
    pairs: list[tuple[str, str]] = []
    for key, value in (params or {}).items():
        if isinstance(value, (list, tuple)):
            pairs += [(key, str(item)) for item in value]
        else:
            pairs.append((key, str(value)))
    if format is not None:
        pairs.append(("format", format))
    path = f"/olap/{quote(model)}/query"
    return f"{path}?{urlencode(pairs)}" if pairs else path


def _pseudo_attribute(data: str, name: str) -> str:
    """Extract a pseudo-attribute from xml-stylesheet PI data."""
    import re

    match = re.search(rf'{name}\s*=\s*["\']([^"\']*)["\']', data)
    if not match:
        raise ValueError(
            f"xml-stylesheet PI has no {name!r} pseudo-attribute")
    return match.group(1)
