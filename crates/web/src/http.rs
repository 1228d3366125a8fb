//! HTTP/1.1 request/response types and wire parsing: the incremental
//! [`RequestParser`] the reactor feeds byte chunks into is the only code
//! that turns bytes into an [`HttpRequest`].

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

/// HTTP methods the platform serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // self-documenting
pub enum Method {
    Get,
    Post,
    Put,
    Delete,
}

impl Method {
    /// Parse a request-line method token.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }

    /// Wire form.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Method.
    pub method: Method,
    /// Path without the query string, percent-decoded.
    pub path: String,
    /// Query parameters.
    pub query: BTreeMap<String, String>,
    /// Headers (keys lower-cased).
    pub headers: BTreeMap<String, String>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Attributes set by filters (e.g. the authenticated principal).
    pub attributes: BTreeMap<String, String>,
}

impl HttpRequest {
    /// Build a request programmatically (used by tests and the in-process
    /// dispatch path).
    pub fn new(method: Method, path_and_query: &str) -> Self {
        let (path, query) = split_path_query(path_and_query);
        HttpRequest {
            method,
            path,
            query,
            headers: BTreeMap::new(),
            body: Vec::new(),
            attributes: BTreeMap::new(),
        }
    }

    /// Builder-style header.
    pub fn with_header(mut self, key: &str, value: &str) -> Self {
        self.headers
            .insert(key.to_ascii_lowercase(), value.to_string());
        self
    }

    /// Builder-style body.
    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Self {
        self.body = body.into();
        self
    }

    /// Header accessor (case-insensitive).
    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers
            .get(&key.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// Query-parameter accessor.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }

    /// Body as UTF-8 text.
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Whether the client asked for the connection to be closed after this
    /// request (`Connection: close`). HTTP/1.1 defaults to keep-alive.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|c| c.eq_ignore_ascii_case("close"))
    }

    /// The request's identity, if one has been established (either the
    /// client's `X-Request-Id` header adopted by [`Self::ensure_request_id`]
    /// or a server-generated one).
    pub fn request_id(&self) -> Option<&str> {
        self.attributes.get("request_id").map(String::as_str)
    }

    /// Establish the request's identity: adopt a well-formed client
    /// `X-Request-Id` header (1–128 chars of `[A-Za-z0-9._-]`), otherwise
    /// mint a fresh `req-<hex>` id. The id is stored as the `request_id`
    /// attribute and echoed on every response so a 429 or 503 is traceable
    /// from client log to slow log to root span.
    pub fn ensure_request_id(&mut self) -> String {
        if let Some(id) = self.attributes.get("request_id") {
            return id.clone();
        }
        let id = self
            .header("x-request-id")
            .map(str::trim)
            .filter(|id| {
                (1..=128).contains(&id.len())
                    && id
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
            })
            .map(str::to_string)
            .unwrap_or_else(generate_request_id);
        self.attributes.insert("request_id".into(), id.clone());
        id
    }
}

/// Mint a process-unique request id (`req-<16 hex digits>`): a wall-clock
/// seed mixed with an in-process counter through xorshift, so ids are
/// unique within a process and overwhelmingly unlikely to collide across
/// restarts — without pulling in a randomness dependency.
pub fn generate_request_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut x = t ^ n.rotate_left(32) ^ ((std::process::id() as u64) << 17);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    format!("req-{x:016x}")
}

/// Incremental HTTP/1.1 request parser: the per-connection state machine
/// of the event-loop server. Bytes read off a nonblocking socket are
/// [`fed`](RequestParser::feed) in as they arrive;
/// [`try_next`](RequestParser::try_next) yields a request as soon as one
/// is complete, leaving any pipelined surplus buffered for the next call.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
}

/// Cap on the request head (request line + headers) — a connection that
/// streams more than this without a blank line is attacking, not talking.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Cap on a request body.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

impl RequestParser {
    /// Empty parser for a fresh connection.
    pub fn new() -> Self {
        RequestParser::default()
    }

    /// Append bytes read from the connection.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (parsed requests are drained out).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Parse the next complete request out of the buffer. `Ok(None)` means
    /// more bytes are needed; `Err` means the connection is talking
    /// garbage and must be closed after a 400.
    pub fn try_next(&mut self) -> Result<Option<HttpRequest>, String> {
        // tolerate stray CRLFs between pipelined requests (RFC 9112 §2.2)
        let skip = self
            .buf
            .iter()
            .take_while(|&&b| b == b'\r' || b == b'\n')
            .count();
        if skip > 0 {
            self.buf.drain(..skip);
        }
        let Some(head_len) = find_head_end(&self.buf) else {
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err("request head too large".to_string());
            }
            return Ok(None);
        };
        if head_len + 4 > MAX_HEAD_BYTES {
            return Err("request head too large".to_string());
        }
        let head = std::str::from_utf8(&self.buf[..head_len])
            .map_err(|_| "request head is not UTF-8".to_string())?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let (method, path, query) = parse_request_line(request_line)?;
        let mut headers = BTreeMap::new();
        for hline in lines {
            if let Some((k, v)) = hline.split_once(':') {
                let (k, v) = (k.trim().to_ascii_lowercase(), v.trim());
                if k == "content-length" && headers.get(&k).is_some_and(|first| first != v) {
                    return Err("conflicting Content-Length headers".to_string());
                }
                headers.insert(k, v.to_string());
            }
        }
        // Framing the parser cannot honor must end the connection: bytes
        // of a body it mis-measured would otherwise be parsed as the next
        // pipelined request (a request desync on a shared socket).
        if headers.contains_key("transfer-encoding") {
            return Err("Transfer-Encoding is not supported".to_string());
        }
        let len: usize = match headers.get("content-length") {
            None => 0,
            // digits only: `parse` alone would accept a leading `+`
            Some(v) if !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) => {
                v.parse().unwrap_or(usize::MAX)
            }
            Some(v) => return Err(format!("bad Content-Length {v:?}")),
        };
        if len > MAX_BODY_BYTES {
            return Err("request body too large".to_string());
        }
        let total = head_len + 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_len + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(HttpRequest {
            method,
            path,
            query,
            headers,
            body,
            attributes: BTreeMap::new(),
        }))
    }
}

/// Offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parse `GET /path?query HTTP/1.1` into its parts.
fn parse_request_line(line: &str) -> Result<(Method, String, BTreeMap<String, String>), String> {
    let mut parts = line.trim_end().split(' ');
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or_else(|| format!("bad method in request line {line:?}"))?;
    let target = parts.next().ok_or("missing request target")?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version {version}"));
    }
    let (path, query) = split_path_query(target);
    Ok((method, path, query))
}

fn split_path_query(target: &str) -> (String, BTreeMap<String, String>) {
    match target.split_once('?') {
        None => (percent_decode(target), BTreeMap::new()),
        Some((p, q)) => {
            let mut query = BTreeMap::new();
            for pair in q.split('&') {
                if pair.is_empty() {
                    continue;
                }
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                query.insert(percent_decode_query(k), percent_decode_query(v));
            }
            (percent_decode(p), query)
        }
    }
}

/// Decode `%XX` escapes. A literal `+` stays `+` — the plus-means-space
/// convention applies only to `application/x-www-form-urlencoded` query
/// components, never to paths (`/files/a+b` names `a+b`). Use
/// [`percent_decode_query`] for query keys and values.
pub fn percent_decode(s: &str) -> String {
    decode_escapes(s, false)
}

/// Decode a query key or value: `%XX` escapes plus the form-encoding
/// `+` → space rule.
pub fn percent_decode_query(s: &str) -> String {
    decode_escapes(s, true)
}

fn decode_escapes(s: &str, plus_is_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // a trailing or malformed escape passes through literally
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok());
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// What a [`ResponseSlot`] currently holds.
enum SlotState {
    /// Neither the response nor a claimant has arrived.
    Pending,
    /// The response arrived before anyone claimed the slot.
    Ready(Box<HttpResponse>),
    /// The server claimed the slot; completion calls this waker.
    Waker(Box<dyn FnOnce(HttpResponse) + Send>),
    /// The response was delivered; later completions are dropped.
    Done,
}

/// The completion slot behind a deferred response (see
/// [`HttpResponse::deferred`]). A handler returns the placeholder
/// immediately and keeps the slot; whoever later calls
/// [`ResponseSlot::fulfill`] supplies the real response. The server
/// installs a waker with [`ResponseSlot::complete_with`], so a parked
/// long-poll costs a file descriptor rather than a worker thread.
pub struct ResponseSlot {
    state: std::sync::Mutex<SlotState>,
}

impl std::fmt::Debug for ResponseSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ResponseSlot")
    }
}

impl Default for ResponseSlot {
    fn default() -> Self {
        ResponseSlot {
            state: std::sync::Mutex::new(SlotState::Pending),
        }
    }
}

impl ResponseSlot {
    /// Deliver the real response. The first call wins: it fires an
    /// installed waker, or parks the response for the waker to find when
    /// it is installed. Every later call is a no-op, which is what makes
    /// racing completers (a data change vs. the timeout sweeper) safe.
    pub fn fulfill(&self, response: HttpResponse) {
        let waker = {
            let mut state = self.state.lock().unwrap();
            match std::mem::replace(&mut *state, SlotState::Done) {
                SlotState::Pending => {
                    *state = SlotState::Ready(Box::new(response));
                    return;
                }
                SlotState::Waker(w) => w,
                already @ (SlotState::Ready(_) | SlotState::Done) => {
                    *state = already;
                    return;
                }
            }
        };
        waker(response);
    }

    /// Claim the slot with a waker that is called (exactly once, outside
    /// the slot lock) when the response is fulfilled. If the response is
    /// already there, the waker runs immediately on this thread.
    pub fn complete_with(&self, waker: impl FnOnce(HttpResponse) + Send + 'static) {
        let ready = {
            let mut state = self.state.lock().unwrap();
            match std::mem::replace(&mut *state, SlotState::Done) {
                SlotState::Ready(r) => *r,
                SlotState::Pending => {
                    *state = SlotState::Waker(Box::new(waker));
                    return;
                }
                done => {
                    *state = done;
                    return;
                }
            }
        };
        waker(ready);
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers.
    pub headers: BTreeMap<String, String>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// When set, this response is a placeholder: the real one arrives
    /// through the slot. The server takes it with
    /// [`HttpResponse::take_deferred`]; the placeholder's own
    /// status/body are never written to the wire.
    pub(crate) deferred: Option<std::sync::Arc<ResponseSlot>>,
}

impl HttpResponse {
    /// Response with a status and empty body.
    pub fn status(status: u16) -> Self {
        HttpResponse {
            status,
            headers: BTreeMap::new(),
            body: Vec::new(),
            deferred: None,
        }
    }

    /// A deferred (long-poll) response: the handler returns the
    /// placeholder now and fulfills the [`ResponseSlot`] later — from a
    /// data-change notification, a timeout sweeper, whatever completes
    /// first. Headers stamped on the placeholder (request id, deprecation
    /// notices) are merged into the fulfilled response by the server,
    /// unless the fulfilled response set the same header itself.
    pub fn deferred() -> (Self, std::sync::Arc<ResponseSlot>) {
        let slot = std::sync::Arc::new(ResponseSlot::default());
        let mut resp = HttpResponse::status(204);
        resp.deferred = Some(std::sync::Arc::clone(&slot));
        (resp, slot)
    }

    /// Take the deferred slot out of a placeholder response (the server
    /// calls this once, right after dispatch). `None` for ordinary
    /// responses.
    pub fn take_deferred(&mut self) -> Option<std::sync::Arc<ResponseSlot>> {
        self.deferred.take()
    }

    /// 200 with a `text/plain` body.
    pub fn text(body: impl Into<String>) -> Self {
        HttpResponse::status(200)
            .with_header("Content-Type", "text/plain; charset=utf-8")
            .with_body(body.into())
    }

    /// 200 with a `text/html` body.
    pub fn html(body: impl Into<String>) -> Self {
        HttpResponse::status(200)
            .with_header("Content-Type", "text/html; charset=utf-8")
            .with_body(body.into())
    }

    /// 200 with an `application/json` body.
    pub fn json(body: impl Into<String>) -> Self {
        HttpResponse::status(200)
            .with_header("Content-Type", "application/json")
            .with_body(body.into())
    }

    /// 404.
    pub fn not_found() -> Self {
        HttpResponse::status(404).with_body("not found")
    }

    /// 401 (authentication required).
    pub fn unauthorized(msg: &str) -> Self {
        HttpResponse::status(401).with_body(msg.to_string())
    }

    /// 403 (authenticated but not allowed).
    pub fn forbidden(msg: &str) -> Self {
        HttpResponse::status(403).with_body(msg.to_string())
    }

    /// 400 with a reason.
    pub fn bad_request(msg: &str) -> Self {
        HttpResponse::status(400).with_body(msg.to_string())
    }

    /// 500 with a reason.
    pub fn server_error(msg: &str) -> Self {
        HttpResponse::status(500).with_body(msg.to_string())
    }

    /// Builder-style header.
    pub fn with_header(mut self, key: &str, value: &str) -> Self {
        self.headers.insert(key.to_string(), value.to_string());
        self
    }

    /// Builder-style body.
    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Self {
        self.body = body.into();
        self
    }

    /// Body as UTF-8 text.
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Write the wire form with an explicit connection disposition: the
    /// emitted `Connection` header matches what the server actually does
    /// with the socket.
    fn write_to_conn(&self, stream: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            307 => "Temporary Redirect",
            400 => "Bad Request",
            401 => "Unauthorized",
            402 => "Payment Required",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            406 => "Not Acceptable",
            409 => "Conflict",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Status",
        };
        write!(stream, "HTTP/1.1 {} {}\r\n", self.status, reason)?;
        for (k, v) in &self.headers {
            write!(stream, "{k}: {v}\r\n")?;
        }
        write!(stream, "Content-Length: {}\r\n", self.body.len())?;
        let conn = if keep_alive { "keep-alive" } else { "close" };
        write!(stream, "Connection: {conn}\r\n\r\n")?;
        stream.write_all(&self.body)
    }

    /// Serialize to a byte buffer with the given connection disposition —
    /// the form the reactor's write-side state machine queues per
    /// connection.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut buf = Vec::with_capacity(128 + self.body.len());
        self.write_to_conn(&mut buf, keep_alive)
            .expect("writing to a Vec cannot fail");
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `raw` whole and take the first parse result.
    fn parse(raw: &[u8]) -> Result<Option<HttpRequest>, String> {
        let mut p = RequestParser::new();
        p.feed(raw);
        p.try_next()
    }

    #[test]
    fn parse_request_from_wire() {
        let raw = b"POST /api/reports?limit=5&name=q1 HTTP/1.1\r\n\
                    Host: localhost\r\n\
                    Content-Type: application/json\r\n\
                    Content-Length: 7\r\n\
                    \r\n{\"a\":1}";
        let req = parse(raw).unwrap().unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.path, "/api/reports");
        assert_eq!(req.query_param("limit"), Some("5"));
        assert_eq!(req.header("content-type"), Some("application/json"));
        assert_eq!(req.body_text(), "{\"a\":1}");
    }

    #[test]
    fn empty_input_and_garbage() {
        assert!(parse(b"").unwrap().is_none());
        assert!(parse(b"BREW /coffee HTTP/1.1\r\n\r\n").is_err());
        assert!(parse(b"GET / SPDY/99\r\n\r\n").is_err());
    }

    /// Framing the parser cannot measure is an error, never a guess: a
    /// guessed length of 0 would leave the body in the buffer to be parsed
    /// as the next pipelined request.
    #[test]
    fn unmeasurable_framing_is_rejected_not_desynced() {
        let smuggled = "GET /admin HTTP/1.1\r\n\r\n";
        for framing in [
            "Content-Length: abc",
            "Content-Length: -1",
            "Content-Length: +27",
            "Content-Length: 1e3",
            "Content-Length:",
            "Content-Length: 27\r\nContent-Length: 0",
            "Transfer-Encoding: chunked",
            "Transfer-Encoding: chunked\r\nContent-Length: 27",
        ] {
            let mut p = RequestParser::new();
            p.feed(format!("POST /x HTTP/1.1\r\n{framing}\r\n\r\n{smuggled}").as_bytes());
            assert!(p.try_next().is_err(), "{framing:?} must be rejected");
        }
        // a repeated Content-Length that agrees is one length
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi";
        assert_eq!(parse(raw).unwrap().unwrap().body_text(), "hi");
    }

    #[test]
    fn percent_decoding() {
        // paths: %XX decodes, literal + is preserved
        assert_eq!(percent_decode("a%20b+c"), "a b+c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%2"), "%2");
        // query components: + means space (form encoding)
        assert_eq!(percent_decode_query("a%20b+c"), "a b c");
        let req = HttpRequest::new(Method::Get, "/r?q=sales%3D1");
        assert_eq!(req.query_param("q"), Some("sales=1"));
    }

    #[test]
    fn plus_in_path_names_a_plus_but_means_space_in_queries() {
        let req = HttpRequest::new(Method::Get, "/files/report+q3.pdf?title=Q3+sales");
        assert_eq!(req.path, "/files/report+q3.pdf");
        assert_eq!(req.query_param("title"), Some("Q3 sales"));
    }

    #[test]
    fn connection_close_detection() {
        let req = HttpRequest::new(Method::Get, "/");
        assert!(!req.wants_close());
        assert!(req.with_header("Connection", "Close").wants_close());
        let req = HttpRequest::new(Method::Get, "/").with_header("Connection", "keep-alive");
        assert!(!req.wants_close());
    }

    #[test]
    fn response_round_trip() {
        let resp = HttpResponse::json("{\"ok\":true}").with_header("X-Trace", "1");
        let text = String::from_utf8(resp.to_bytes(false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json"));
        assert!(text.contains("X-Trace: 1"));
        assert!(text.contains("Connection: close"));
        assert!(text.ends_with("{\"ok\":true}"));
        // statuses the shard router emits carry their reason phrase
        for (status, reason) in [
            (307, "Temporary Redirect"),
            (409, "Conflict"),
            (501, "Not Implemented"),
            (502, "Bad Gateway"),
        ] {
            let wire = HttpResponse::status(status).to_bytes(false);
            assert!(wire.starts_with(format!("HTTP/1.1 {status} {reason}\r\n").as_bytes()));
        }
    }

    #[test]
    fn connection_header_matches_disposition() {
        let text = String::from_utf8(HttpResponse::text("hi").to_bytes(true)).unwrap();
        assert!(text.contains("Connection: keep-alive"));
        assert!(!text.contains("Connection: close"));
    }

    #[test]
    fn incremental_parser_handles_split_and_pipelined_bytes() {
        let mut p = RequestParser::new();
        // drip the request in three fragments: nothing yields early
        p.feed(b"POST /api/v1/sql?x=1 HT");
        assert!(p.try_next().unwrap().is_none());
        p.feed(b"TP/1.1\r\nContent-Length: 8\r\n\r\nSELE");
        assert!(p.try_next().unwrap().is_none());
        // final body fragment plus a whole pipelined second request
        p.feed(b"CT 1\r\n\r\nGET /next HTTP/1.1\r\nConnection: close\r\n\r\n");
        let first = p.try_next().unwrap().unwrap();
        assert_eq!(first.method, Method::Post);
        assert_eq!(first.path, "/api/v1/sql");
        assert_eq!(first.query_param("x"), Some("1"));
        assert_eq!(first.body_text(), "SELECT 1");
        let second = p.try_next().unwrap().unwrap();
        assert_eq!(second.path, "/next");
        assert!(second.wants_close());
        assert!(p.try_next().unwrap().is_none());
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn incremental_parser_rejects_garbage_and_floods() {
        let mut p = RequestParser::new();
        p.feed(b"BREW /coffee HTTP/1.1\r\n\r\n");
        assert!(p.try_next().is_err());
        let mut p = RequestParser::new();
        p.feed(&vec![b'A'; 70 * 1024]);
        assert!(p.try_next().is_err(), "an unbounded head must be rejected");
        let mut p = RequestParser::new();
        p.feed(b"POST /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n");
        assert!(p.try_next().is_err(), "oversized body must be rejected");
    }

    #[test]
    fn request_ids_are_adopted_or_minted() {
        // a well-formed client id is adopted verbatim
        let mut req = HttpRequest::new(Method::Get, "/x").with_header("X-Request-Id", "client-42");
        assert_eq!(req.ensure_request_id(), "client-42");
        assert_eq!(req.request_id(), Some("client-42"));
        // idempotent: the second call returns the same id
        assert_eq!(req.ensure_request_id(), "client-42");
        // a malformed id (spaces / control bytes) is replaced
        let mut req =
            HttpRequest::new(Method::Get, "/x").with_header("X-Request-Id", "evil id\r\n");
        let id = req.ensure_request_id();
        assert!(id.starts_with("req-"), "{id}");
        // minted ids are unique
        let mut other = HttpRequest::new(Method::Get, "/y");
        assert_ne!(other.ensure_request_id(), id);
    }

    #[test]
    fn helper_constructors() {
        assert_eq!(HttpResponse::not_found().status, 404);
        assert_eq!(HttpResponse::unauthorized("x").status, 401);
        assert_eq!(HttpResponse::forbidden("x").status, 403);
        assert_eq!(HttpResponse::bad_request("x").status, 400);
        assert_eq!(HttpResponse::server_error("x").status, 500);
    }
}
