//! Starting the HTTP server: [`ServerBuilder`] carries the options that
//! cut across requests — worker count, per-tenant [`AdmissionControl`],
//! the keep-alive idle timeout — and `HttpServer::start(router, workers)`
//! is the one-call construction for the common case. The server itself
//! is the epoll event loop in [`crate::reactor`].

use std::sync::Arc;
use std::time::Duration;

use crate::admission::AdmissionControl;
use crate::reactor::HttpServer;
use crate::router::Router;

/// Builder for an [`HttpServer`].
pub struct ServerBuilder {
    router: Router,
    workers: usize,
    admission: Option<Arc<AdmissionControl>>,
    idle_timeout: Duration,
}

impl ServerBuilder {
    /// Start from a router with defaults: 4 workers, no admission
    /// control, 60 s keep-alive idle timeout.
    pub fn new(router: Router) -> ServerBuilder {
        ServerBuilder {
            router,
            workers: 4,
            admission: None,
            idle_timeout: Duration::from_secs(60),
        }
    }

    /// Handler worker count (minimum 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Gate requests through per-tenant admission control.
    pub fn admission(mut self, admission: Arc<AdmissionControl>) -> Self {
        self.admission = Some(admission);
        self
    }

    /// How long a keep-alive connection may sit idle before the server
    /// hangs up.
    pub fn idle_timeout(mut self, idle_timeout: Duration) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }

    /// Bind an ephemeral loopback port and start serving.
    pub fn start(self) -> std::io::Result<HttpServer> {
        HttpServer::spawn(self.router, self.workers, self.admission, self.idle_timeout)
    }
}

impl HttpServer {
    /// Start serving `router` on an ephemeral loopback port with
    /// `worker_count` workers and default options.
    pub fn start(router: Router, worker_count: usize) -> std::io::Result<HttpServer> {
        ServerBuilder::new(router).workers(worker_count).start()
    }

    /// Builder entry point for non-default options.
    pub fn builder(router: Router) -> ServerBuilder {
        ServerBuilder::new(router)
    }

    /// Base URL, e.g. `http://127.0.0.1:38311`.
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::http_get;
    use crate::http::{HttpResponse, Method};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn test_router() -> Router {
        let mut r = Router::new();
        r.route(Method::Get, "/hello", |_, _| HttpResponse::text("world"));
        r.route(Method::Get, "/echo/:word", |_, p| {
            HttpResponse::text(p["word"].clone())
        });
        r
    }

    #[test]
    fn serves_real_tcp_requests() {
        let server = HttpServer::start(test_router(), 2).unwrap();
        let (status, body) = http_get(&server.addr().to_string(), "/hello").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "world");
        let (status, body) = http_get(&server.addr().to_string(), "/echo/odbis").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "odbis");
        let (status, _) = http_get(&server.addr().to_string(), "/missing").unwrap();
        assert_eq!(status, 404);
        assert_eq!(server.requests_served(), 3);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let server = HttpServer::start(test_router(), 4).unwrap();
        let addr = server.addr().to_string();
        let mut handles = Vec::new();
        for i in 0..16 {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || {
                let (status, body) = http_get(&addr, &format!("/echo/c{i}")).unwrap();
                assert_eq!(status, 200);
                assert_eq!(body, format!("c{i}"));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.requests_served(), 16);
    }

    #[test]
    fn keep_alive_serves_two_requests_on_one_connection() {
        use std::io::{BufRead, BufReader};
        let server = HttpServer::start(test_router(), 1).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        let read_response = |reader: &mut BufReader<TcpStream>| {
            let mut head = String::new();
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if line == "\r\n" || line.is_empty() {
                    break;
                }
                head.push_str(&line);
            }
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
            (head, String::from_utf8(body).unwrap())
        };

        writer
            .write_all(b"GET /echo/first HTTP/1.1\r\n\r\n")
            .unwrap();
        let (head, body) = read_response(&mut reader);
        assert!(head.contains("Connection: keep-alive"), "{head}");
        assert_eq!(body, "first");

        // same socket, second request; ask for close this time
        writer
            .write_all(b"GET /echo/second HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let (head, body) = read_response(&mut reader);
        assert!(head.contains("Connection: close"), "{head}");
        assert_eq!(body, "second");

        // the server honors the close: EOF follows
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        assert_eq!(server.requests_served(), 2);
    }

    #[test]
    fn panicking_handler_does_not_shrink_the_pool() {
        // one worker: if a panic killed it, the next request would hang
        let mut r = test_router();
        r.route(Method::Get, "/boom", |_, _| panic!("bug"));
        // a panicking *filter* used to escape the per-handler catch_unwind
        // and take the worker thread with it
        r.filter(|req| {
            if req.path == "/filter-boom" {
                panic!("filter bug");
            }
            None
        });
        let server = HttpServer::start(r, 1).unwrap();
        let addr = server.addr().to_string();
        for path in ["/boom", "/filter-boom"] {
            let (status, body) = http_get(&addr, path).unwrap();
            assert_eq!(status, 500, "{path}");
            assert!(body.contains("\"error\""), "{path}: {body}");
        }
        // the single worker is still alive and serving
        let (status, body) = http_get(&addr, "/hello").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "world");
        server.shutdown();
    }

    #[test]
    fn stop_is_bounded_by_the_in_flight_request_not_the_backlog() {
        let mut r = test_router();
        r.route(Method::Get, "/slow", |_, _| {
            std::thread::sleep(Duration::from_millis(100));
            HttpResponse::text("done")
        });
        let server = HttpServer::start(r, 1).unwrap();
        let addr = server.addr();
        // queue far more slow requests than the single worker can serve:
        // draining them at stop would take > 4s
        let mut conns = Vec::new();
        for _ in 0..40 {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(b"GET /slow HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap();
            conns.push(c); // keep sockets open so they sit in the queue
        }
        // let the worker pick up the first request
        std::thread::sleep(Duration::from_millis(30));
        let t0 = std::time::Instant::now();
        server.shutdown();
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "stop took {elapsed:?}; the backlog was served instead of shed"
        );
    }

    /// A deferred response parks the connection, not the worker: with one
    /// worker, a long-poll in flight must not block other requests, and
    /// the fulfilled response must still carry the placeholder's headers
    /// (the request id the router stamped).
    #[test]
    fn deferred_response_frees_the_worker_and_keeps_headers() {
        use std::sync::Mutex;
        let slots: Arc<Mutex<Vec<Arc<crate::http::ResponseSlot>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let mut r = test_router();
        let parked = Arc::clone(&slots);
        r.route(Method::Get, "/park", move |_, _| {
            let (resp, slot) = HttpResponse::deferred();
            parked.lock().unwrap().push(slot);
            resp
        });
        let server = HttpServer::start(r, 1).unwrap();
        let addr = server.addr().to_string();
        let addr2 = addr.clone();
        let poll = std::thread::spawn(move || {
            crate::client::http_request(&addr2, "GET", "/park", &[], b"").unwrap()
        });
        // the parked poll must not stop an ordinary request
        let t0 = std::time::Instant::now();
        let (status, body) = http_get(&addr, "/hello").unwrap();
        assert_eq!((status, body.as_str()), (200, "world"));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "probe stalled behind a parked poll"
        );
        // fulfill the parked slot; the long-poll completes with the
        // real response plus the router-stamped request id
        let slot = loop {
            if let Some(s) = slots.lock().unwrap().pop() {
                break s;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        slot.fulfill(HttpResponse::text("woken"));
        let (status, headers, body) = poll.join().unwrap();
        assert_eq!((status, body.as_str()), (200, "woken"));
        assert!(
            headers.contains_key("x-request-id"),
            "placeholder headers lost: {headers:?}"
        );
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_400() {
        let server = HttpServer::start(test_router(), 1).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
    }
}
