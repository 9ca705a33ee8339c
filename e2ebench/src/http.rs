//! A minimal keep-alive HTTP/1.1 client for the predict route.
//!
//! It sends pre-built requests and reads exactly one response each,
//! pulling the few fields the benchmark checks straight out of the body
//! bytes, so the client adds no JSON parse to the measured loop.

use std::io;
use std::net::SocketAddr;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::TcpStream;

/// The fields of one predict response the benchmark uses.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// `output.label`, when the output is a class.
    pub label: Option<u32>,
    /// `models_used`.
    pub models_used: u32,
    /// `models_missing`.
    pub models_missing: u32,
    /// `latency_us`: the frontend's own `Clipper::predict` span.
    pub latency_us: u64,
}

/// One keep-alive connection with a reusable response buffer.
pub struct HttpConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpConn {
    /// Connect to `addr` with `TCP_NODELAY` set.
    pub async fn connect(addr: SocketAddr) -> io::Result<HttpConn> {
        let stream = TcpStream::connect(addr).await?;
        stream.set_nodelay(true)?;
        Ok(HttpConn {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Send one complete request and read its response.
    pub async fn call(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request).await?;
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let (head_end, total) = loop {
            if let Some(h) = find(&self.buf, b"\r\n\r\n") {
                let len = header_usize(&self.buf[..h], b"content-length:").ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        "response without content-length",
                    )
                })?;
                break (h + 4, h + 4 + len);
            }
            self.read_some(&mut chunk).await?;
        };
        while self.buf.len() < total {
            self.read_some(&mut chunk).await?;
        }
        let status = parse_status(&self.buf)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let body = &self.buf[head_end..total];
        Ok(Reply {
            status,
            label: field_u64(body, b"\"label\":").map(|v| v as u32),
            models_used: field_u64(body, b"\"models_used\":").unwrap_or(0) as u32,
            models_missing: field_u64(body, b"\"models_missing\":").unwrap_or(0) as u32,
            latency_us: field_u64(body, b"\"latency_us\":").unwrap_or(0),
        })
    }

    async fn read_some(&mut self, chunk: &mut [u8]) -> io::Result<()> {
        let n = self.stream.read(chunk).await?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn parse_status(buf: &[u8]) -> Option<u16> {
    let s = buf.get(9..12)?;
    std::str::from_utf8(s).ok()?.parse().ok()
}

/// The decimal value after a case-insensitive header name.
fn header_usize(head: &[u8], name: &[u8]) -> Option<usize> {
    let lower = head.to_ascii_lowercase();
    let at = find(&lower, name)? + name.len();
    let digits: Vec<u8> = lower[at..]
        .iter()
        .skip_while(|b| **b == b' ')
        .take_while(|b| b.is_ascii_digit())
        .copied()
        .collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

/// The unsigned integer following `key` in a flat JSON body.
fn field_u64(body: &[u8], key: &[u8]) -> Option<u64> {
    let at = find(body, key)? + key.len();
    let mut v: u64 = 0;
    let mut any = false;
    for &b in &body[at..] {
        if !b.is_ascii_digit() {
            break;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        any = true;
    }
    any.then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_come_out_of_a_predict_body() {
        let body = br#"{"output":{"kind":"class","label":7},"confidence":1.0,"models_used":1,"models_missing":0,"latency_us":812}"#;
        assert_eq!(field_u64(body, b"\"label\":"), Some(7));
        assert_eq!(field_u64(body, b"\"models_used\":"), Some(1));
        assert_eq!(field_u64(body, b"\"models_missing\":"), Some(0));
        assert_eq!(field_u64(body, b"\"latency_us\":"), Some(812));
        assert_eq!(field_u64(body, b"\"absent\":"), None);
    }

    #[test]
    fn status_and_length_parse() {
        let head = b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 12\r\n";
        assert_eq!(parse_status(head), Some(429));
        assert_eq!(header_usize(head, b"content-length:"), Some(12));
    }
}
