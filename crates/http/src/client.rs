//! A blocking HTTP client that measures response times.
//!
//! This is the live-mode equivalent of the paper's MFC client (Figure 2(b)):
//! it issues one request, waits at most a configurable timeout (10 s in the
//! paper), and reports the HTTP status, byte count and wall-clock response
//! time.  Timed-out requests are reported with `code = ERR` and a response
//! time equal to the timeout, exactly as the paper's clients do.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::error::HttpError;
use crate::message::{Method, Request, Response, StatusCode};
use crate::url::Url;

/// Client knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Overall deadline for the whole request/response exchange.  The paper
    /// uses 10 seconds.
    pub request_timeout: Duration,
    /// Upper bound on the accepted response body size.
    pub max_body: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(10),
            max_body: 64 * 1024 * 1024,
        }
    }
}

/// What one fetch produced — the tuple each MFC client reports back to the
/// coordinator: `(HTTP code, numbytes, response time)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchResult {
    /// HTTP status, or `None` when the request failed or timed out.
    pub status: Option<StatusCode>,
    /// Number of body bytes received.
    pub body_bytes: usize,
    /// Wall-clock time from just before the TCP connect until the full
    /// response was received (or until the failure/timeout).
    pub elapsed: Duration,
    /// Error description when the fetch did not complete normally.
    pub error: Option<String>,
}

impl FetchResult {
    /// `true` when a response with a 2xx status was fully received.
    pub fn is_success(&self) -> bool {
        self.status.map(StatusCode::is_success).unwrap_or(false)
    }
}

/// A blocking HTTP/1.1 client.
///
/// Each fetch opens a fresh connection (`Connection: close`), mirroring the
/// paper's clients, which never reuse connections between epochs.
#[derive(Debug, Clone, Default)]
pub struct Client {
    config: ClientConfig,
}

impl Client {
    /// Creates a client with the given configuration.
    pub fn new(config: ClientConfig) -> Client {
        Client { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Issues a GET request and returns the parsed response.
    pub fn get(&self, url: &Url) -> Result<Response, HttpError> {
        self.request(Method::Get, url)
    }

    /// Issues a HEAD request and returns the parsed response.
    pub fn head(&self, url: &Url) -> Result<Response, HttpError> {
        self.request(Method::Head, url)
    }

    /// Issues a request and returns the parsed response, or an error.
    pub fn request(&self, method: Method, url: &Url) -> Result<Response, HttpError> {
        let addr = url
            .authority()
            .parse()
            .ok()
            .map(|a: std::net::SocketAddr| vec![a])
            .unwrap_or_else(|| {
                use std::net::ToSocketAddrs;
                url.authority()
                    .to_socket_addrs()
                    .map(|it| it.collect())
                    .unwrap_or_default()
            });
        let addr = addr
            .first()
            .copied()
            .ok_or_else(|| HttpError::InvalidUrl(format!("{url}: could not resolve host")))?;
        let stream = TcpStream::connect_timeout(&addr, self.config.connect_timeout)?;
        stream.set_read_timeout(Some(self.config.request_timeout))?;
        stream.set_write_timeout(Some(self.config.request_timeout))?;
        stream.set_nodelay(true)?;

        let request = Request::new(method, url.path_and_query(), url.host());
        let mut writer = stream.try_clone()?;
        writer.write_all(&request.to_bytes())?;
        writer.flush()?;

        let mut reader = BufReader::new(stream);
        Response::read_from(&mut reader, method == Method::Get, self.config.max_body)
    }

    /// Issues a request and reports it the way an MFC client would: never
    /// returning an error, but folding failures and timeouts into the
    /// [`FetchResult`].
    pub fn fetch_timed(&self, method: Method, url: &Url) -> FetchResult {
        let start = Instant::now();
        match self.request(method, url) {
            Ok(response) => FetchResult {
                status: Some(response.status),
                body_bytes: response.body.len(),
                elapsed: start.elapsed(),
                error: None,
            },
            Err(HttpError::TimedOut) => FetchResult {
                status: None,
                body_bytes: 0,
                // The paper's clients record exactly the timeout value when
                // they kill a request.
                elapsed: self.config.request_timeout,
                error: Some("timed out".to_string()),
            },
            Err(err) => FetchResult {
                status: None,
                body_bytes: 0,
                elapsed: start.elapsed(),
                error: Some(err.to_string()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::thread;

    /// Spawns a tiny single-use server returning a canned byte string.
    fn one_shot_server(reply: &'static [u8]) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                let mut buf = [0u8; 4096];
                let _ = stream.read(&mut buf);
                let _ = stream.write_all(reply);
            }
        });
        addr
    }

    #[test]
    fn get_against_local_server() {
        let addr = one_shot_server(b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello");
        let url = Url::parse(&format!("http://{addr}/")).unwrap();
        let client = Client::default();
        let response = client.get(&url).unwrap();
        assert_eq!(response.status, StatusCode::OK);
        assert_eq!(response.body, b"hello");
    }

    #[test]
    fn fetch_timed_reports_success() {
        let addr = one_shot_server(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok");
        let url = Url::parse(&format!("http://{addr}/x")).unwrap();
        let result = Client::default().fetch_timed(Method::Get, &url);
        assert!(result.is_success());
        assert_eq!(result.body_bytes, 2);
        assert!(result.error.is_none());
    }

    #[test]
    fn fetch_timed_connection_refused_is_an_error_not_a_panic() {
        // Port 1 on localhost is essentially guaranteed to refuse.
        let url = Url::parse("http://127.0.0.1:1/").unwrap();
        let result = Client::default().fetch_timed(Method::Get, &url);
        assert!(!result.is_success());
        assert!(result.error.is_some());
    }

    #[test]
    fn malformed_response_is_an_error() {
        let addr = one_shot_server(b"garbage garbage\r\n\r\n");
        let url = Url::parse(&format!("http://{addr}/")).unwrap();
        let client = Client::default();
        assert!(client.get(&url).is_err());
    }

    #[test]
    fn unresolvable_host_is_invalid_url() {
        let url = Url::parse("http://definitely-not-a-real-host.invalid:81/").unwrap();
        let err = Client::default().get(&url).unwrap_err();
        assert!(matches!(err, HttpError::InvalidUrl(_) | HttpError::Io(_)));
    }

    #[test]
    fn default_config_matches_paper_timeout() {
        let client = Client::default();
        assert_eq!(client.config().request_timeout, Duration::from_secs(10));
    }
}
