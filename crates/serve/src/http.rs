//! A small HTTP/1.1 layer over `std::net` — request parsing and response
//! writing, matching the repo's vendored-offline constraint (no external
//! HTTP crate). Supports exactly what the job API needs: request line,
//! headers, `Content-Length` bodies with a configurable cap, and keep-alive.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without query string.
    pub path: String,
    pub body: Vec<u8>,
    /// `Connection: close` was requested (or the version forbids reuse).
    pub close: bool,
}

/// Why a request could not be parsed.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Clean end of stream between requests (keep-alive hang-up).
    Eof,
    /// Malformed request line or headers.
    Bad(String),
    /// Body exceeds the configured cap — reply `413 Payload Too Large`.
    TooLarge,
}

/// Reads one request from the stream.
///
/// # Errors
///
/// [`ParseError::Eof`] on a closed connection, [`ParseError::TooLarge`] for
/// a body over `max_body`, [`ParseError::Bad`] for anything malformed.
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    max_body: u64,
) -> Result<Request, ParseError> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => return Err(ParseError::Eof),
        Ok(_) => {}
        Err(e) => return Err(ParseError::Bad(format!("read request line: {e}"))),
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(ParseError::Bad(format!("bad request line {line:?}")));
    }
    let path = target.split('?').next().unwrap_or("").to_owned();

    let mut content_length: u64 = 0;
    let mut close = version == "HTTP/1.0";
    loop {
        let mut h = String::new();
        match reader.read_line(&mut h) {
            Ok(0) => return Err(ParseError::Bad("eof in headers".into())),
            Ok(_) => {}
            Err(e) => return Err(ParseError::Bad(format!("read header: {e}"))),
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            return Err(ParseError::Bad(format!("bad header {h:?}")));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| ParseError::Bad(format!("bad content-length {value:?}")))?;
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    close = true;
                } else if v.contains("keep-alive") {
                    close = false;
                }
            }
            "transfer-encoding" => {
                return Err(ParseError::Bad("chunked bodies unsupported".into()));
            }
            _ => {}
        }
    }
    if content_length > max_body {
        return Err(ParseError::TooLarge);
    }
    let mut body = vec![0u8; content_length as usize];
    reader.read_exact(&mut body).map_err(|e| ParseError::Bad(format!("read body: {e}")))?;
    Ok(Request { method, path, body, close })
}

/// Writes one response with a JSON (or other) body in a single write and
/// flushes.
/// `extra_headers` are emitted verbatim after the standard ones (used for
/// `Retry-After` on drain responses).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let connection = if close { "close" } else { "keep-alive" };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One buffer, one write: a head segment followed by a body segment
    // stalls the body behind the peer's delayed ACK of the head.
    let mut reply = head.into_bytes();
    reply.extend_from_slice(body);
    stream.write_all(&reply)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &str, max_body: u64) -> Result<Request, ParseError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_owned();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        let req = read_request(&mut reader, max_body);
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            roundtrip("POST /jobs?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd", 1024)
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, b"abcd");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn enforces_body_cap() {
        let err = roundtrip("POST /jobs HTTP/1.1\r\nContent-Length: 1000\r\n\r\n", 64).unwrap_err();
        assert_eq!(err, ParseError::TooLarge);
    }

    #[test]
    fn rejects_garbage_and_reports_eof() {
        assert!(matches!(roundtrip("NOT-HTTP\r\n\r\n", 64), Err(ParseError::Bad(_))));
        assert_eq!(roundtrip("", 64).unwrap_err(), ParseError::Eof);
    }

    #[test]
    fn honors_connection_close() {
        let req = roundtrip("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 64).unwrap();
        assert!(req.close);
    }
}
