//! A minimal closed-loop HTTP/1.1 client for `POST /explain`: one
//! connection per request, as the server closes after each response.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Response {
    pub status: u16,
    pub body: String,
    pub bytes: usize,
    /// Connect start to connection established.
    pub connect: Duration,
    /// Connect start to the first response byte.
    pub ttfb: Duration,
    /// Connect start to the last response byte.
    pub total: Duration,
}

#[derive(Debug)]
pub enum ClientError {
    Connect(std::io::Error),
    Io(std::io::Error),
    Malformed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect: {e}"),
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Malformed(m) => write!(f, "malformed response: {m}"),
        }
    }
}

const TIMEOUT: Duration = Duration::from_secs(30);

/// Sends `body` to `POST /explain` and reads the whole response.
pub fn post_explain(addr: SocketAddr, body: &str) -> Result<Response, ClientError> {
    let request = format!(
        "POST /explain HTTP/1.1\r\nHost: {addr}\r\nContent-Type: text/plain\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let start = Instant::now();
    let mut conn = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(ClientError::Connect)?;
    let connect = start.elapsed();
    conn.set_read_timeout(Some(TIMEOUT))
        .map_err(ClientError::Io)?;
    conn.set_nodelay(true).map_err(ClientError::Io)?;
    conn.write_all(request.as_bytes())
        .map_err(ClientError::Io)?;
    let mut raw = Vec::with_capacity(4096);
    let mut buf = [0u8; 16 * 1024];
    let mut ttfb = None;
    loop {
        let n = conn.read(&mut buf).map_err(ClientError::Io)?;
        if n == 0 {
            break;
        }
        ttfb.get_or_insert_with(|| start.elapsed());
        raw.extend_from_slice(&buf[..n]);
    }
    let total = start.elapsed();
    let ttfb = ttfb.ok_or_else(|| ClientError::Malformed("empty response".into()))?;
    let text = String::from_utf8(raw).map_err(|_| ClientError::Malformed("not UTF-8".into()))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| ClientError::Malformed("no header terminator".into()))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| ClientError::Malformed(format!("status line {head:?}")))?;
    Ok(Response {
        status,
        bytes: text.len(),
        body: body.to_owned(),
        connect,
        ttfb,
        total,
    })
}
