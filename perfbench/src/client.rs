//! A minimal keep-alive HTTP/1.1 client for driving the servers.
//!
//! The servers keep a connection open only when the client asks with
//! `Connection: keep-alive`, and close it after a short idle window, so
//! a request on a reused connection that sees EOF before any response
//! byte is retried once on a fresh connection (the server never read
//! it, so the retry cannot duplicate a write).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest a benchmark request may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length`-framed body.
    pub body: Vec<u8>,
}

impl Response {
    /// First header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One client connection, reopened transparently when the server
/// closes it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    /// A connection to `addr`, opened lazily on the first request.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::new(),
        }
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        let head = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n");
        self.request(head.as_bytes(), &[])
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<Response> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.request(head.as_bytes(), body)
    }

    fn request(&mut self, head: &[u8], body: &[u8]) -> io::Result<Response> {
        let reused = self.stream.is_some();
        match self.try_request(head, body) {
            Err(e)
                if reused
                    && matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof
                            | io::ErrorKind::BrokenPipe
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::ConnectionAborted
                    ) =>
            {
                self.try_request(head, body)
            }
            other => other,
        }
    }

    fn try_request(&mut self, head: &[u8], body: &[u8]) -> io::Result<Response> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, REQUEST_TIMEOUT)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            s.set_write_timeout(Some(REQUEST_TIMEOUT))?;
            self.stream = Some(s);
            self.buf.clear();
        }
        let result = self.exchange(head, body);
        match &result {
            Ok(resp) if resp.header("Connection") != Some("close") => {}
            _ => {
                self.stream = None;
                self.buf.clear();
            }
        }
        result
    }

    fn exchange(&mut self, head: &[u8], body: &[u8]) -> io::Result<Response> {
        let stream = self.stream.as_mut().expect("connected above");
        let mut msg = Vec::with_capacity(head.len() + body.len());
        msg.extend_from_slice(head);
        msg.extend_from_slice(body);
        stream.write_all(&msg)?;
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before a response head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let text = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
        let mut lines = text.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .collect();
        let len: usize = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("Content-Length"))
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no Content-Length"))?;
        while self.buf.len() < head_end + len {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "connection closed inside a response body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok(Response {
            status,
            headers,
            body,
        })
    }
}

/// One-shot `GET` on a fresh connection (readiness polls, scrapes).
pub fn get_once(addr: SocketAddr, path: &str) -> io::Result<Response> {
    Conn::new(addr).get(path)
}
