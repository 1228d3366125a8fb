//! A keep-alive HTTP/1.1 client: one socket, one request in flight,
//! `Content-Length` framing only (the platform never chunks).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One response. `body` borrows the connection's buffer until the next
/// request.
pub struct Response<'a> {
    pub status: u16,
    pub head: &'a str,
    pub body: &'a [u8],
}

impl Response<'_> {
    /// A response header's value (case-insensitive name).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().skip(1).find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Serialize a request. Built once per distinct request and replayed, so
/// the timed loop formats nothing.
pub fn request(method: &str, path: &str, headers: &[(&str, &str)], body: &str) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: odbis\r\n");
    for (k, v) in headers {
        out.push_str(&format!("{k}: {v}\r\n"));
    }
    out.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    out.into_bytes()
}

impl Conn {
    pub fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // above the longest watch park (20 s), well below the driver's patience
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Write one request without waiting for its response.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(request)
    }

    /// Read the response to the request last sent.
    pub fn recv(&mut self) -> std::io::Result<Response<'_>> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("server closed the keep-alive connection"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut len = 0usize;
        for line in head.lines().skip(1) {
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("bad Content-Length"))?;
                }
            }
        }
        let total = head_end + 4 + len;
        while self.buf.len() < total {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let head = std::str::from_utf8(&self.buf[..head_end]).expect("checked above");
        Ok(Response {
            status,
            head,
            body: &self.buf[head_end + 4..total],
        })
    }

    /// One round trip.
    pub fn call(&mut self, request: &[u8]) -> std::io::Result<Response<'_>> {
        self.send(request)?;
        self.recv()
    }
}
