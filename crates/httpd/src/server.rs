//! The threaded HTTP server.
//!
//! Architecture: one acceptor thread plus a fixed pool of worker threads fed
//! through a bounded channel.  The bounded channel doubles as the listen
//! queue — when it is full the acceptor answers `503 Service Unavailable`
//! immediately, which is how worker exhaustion becomes *visible* to a live
//! MFC instead of silently queueing forever.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Mutex;

use mfc_http::{Method, Request, Response, StatusCode};

use crate::content::SiteContent;
use crate::delay::DelayModel;

/// Configuration of the live server.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Number of worker threads serving requests.
    pub workers: usize,
    /// Capacity of the pending-connection queue (the "listen queue").
    pub queue_depth: usize,
    /// Artificial delay model applied per request.
    pub delay: DelayModel,
    /// Socket read/write timeout for each connection.
    pub io_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: 16,
            queue_depth: 128,
            delay: DelayModel::None,
            io_timeout: Duration::from_secs(15),
        }
    }
}

/// Counters and the arrival log collected while the server runs.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Total requests parsed successfully.
    pub requests: AtomicUsize,
    /// Requests answered 404.
    pub not_found: AtomicUsize,
    /// Connections refused with 503 because the queue was full.
    pub refused: AtomicUsize,
    /// Largest number of requests in flight at once.
    pub peak_in_flight: AtomicUsize,
    /// Arrival timestamps (relative to server start) and targets.
    pub arrival_log: Mutex<Vec<(Duration, String)>>,
}

/// A running server; dropping the handle shuts it down.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// The live HTTP server.
#[derive(Debug, Clone)]
pub struct HttpServer {
    content: Arc<SiteContent>,
    options: ServerOptions,
}

impl HttpServer {
    /// Creates a server that will serve `content` with the given options.
    pub fn new(content: SiteContent, options: ServerOptions) -> Self {
        HttpServer {
            content: Arc::new(content),
            options,
        }
    }

    /// Binds to `127.0.0.1` on an ephemeral port and starts serving.
    pub fn start(&self) -> std::io::Result<ServerHandle> {
        self.start_on("127.0.0.1:0")
    }

    /// Binds to the given address and starts serving.
    pub fn start_on(&self, bind: &str) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let started = Instant::now();

        // `std::sync::mpsc` receivers are single-consumer; sharing one
        // behind a mutex turns the bounded channel into the same MPMC work
        // queue the crossbeam version provided.
        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
            sync_channel(self.options.queue_depth);
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(self.options.workers);
        for _ in 0..self.options.workers.max(1) {
            let rx = Arc::clone(&rx);
            let content = Arc::clone(&self.content);
            let stats = Arc::clone(&stats);
            let in_flight = Arc::clone(&in_flight);
            let options = self.options.clone();
            workers.push(thread::spawn(move || loop {
                // Hold the lock only for the dequeue, never while serving.
                let next = match rx.lock() {
                    Ok(guard) => guard.recv(),
                    Err(_) => break,
                };
                let Ok(stream) = next else { break };
                let _ = handle_connection(stream, &content, &options, &stats, &in_flight, started);
            }));
        }

        let acceptor_shutdown = Arc::clone(&shutdown);
        let acceptor_stats = Arc::clone(&stats);
        let io_timeout = self.options.io_timeout;
        let acceptor = thread::spawn(move || {
            for stream in listener.incoming() {
                if acceptor_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let _ = stream.set_read_timeout(Some(io_timeout));
                let _ = stream.set_write_timeout(Some(io_timeout));
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(mut stream)) => {
                        acceptor_stats.refused.fetch_add(1, Ordering::SeqCst);
                        let resp = Response::new(
                            StatusCode::SERVICE_UNAVAILABLE,
                            b"server overloaded\n".to_vec(),
                        );
                        let _ = stream.write_all(&resp.to_bytes(false));
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
        });

        Ok(ServerHandle {
            addr,
            stats,
            shutdown,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl ServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Base URL of the server (`http://127.0.0.1:PORT`).
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Live statistics.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Returns a copy of the arrival log (relative timestamp, target path).
    pub fn arrival_log(&self) -> Vec<(Duration, String)> {
        self.stats
            .arrival_log
            .lock()
            .expect("arrival log lock")
            .clone()
    }

    /// Requests the server to stop and joins its threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the acceptor so it notices the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // Dropping the last sender (owned by the acceptor thread) closes the
        // channel; workers then drain and exit.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown_inner();
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    content: &SiteContent,
    options: &ServerOptions,
    stats: &ServerStats,
    in_flight: &AtomicUsize,
    started: Instant,
) -> std::io::Result<()> {
    let peer_stream = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let Ok(request) = Request::read_from(&mut reader) else {
        // Either a malformed request or the shutdown poke; just drop it.
        return Ok(());
    };

    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
    stats.peak_in_flight.fetch_max(now, Ordering::SeqCst);
    stats.requests.fetch_add(1, Ordering::SeqCst);
    stats
        .arrival_log
        .lock()
        .expect("arrival log lock")
        .push((started.elapsed(), request.target.clone()));

    let result = respond(peer_stream, &request, content, options, stats, now);

    in_flight.fetch_sub(1, Ordering::SeqCst);
    // A client that timed out and closed its socket produces a broken pipe
    // here; that is expected under MFC load and not a server error.
    let _ = result;
    Ok(())
}

fn respond(
    mut stream: TcpStream,
    request: &Request,
    content: &SiteContent,
    options: &ServerOptions,
    stats: &ServerStats,
    concurrent: usize,
) -> std::io::Result<()> {
    // Artificial load-dependent delay (validation experiments).
    let delay = options.delay.delay_for(concurrent);
    if !delay.is_zero() {
        thread::sleep(delay);
    }

    let head_only = request.method == Method::Head;
    let response = if request.target == "/" || request.target == "/index.html" {
        Response::new(StatusCode::OK, content.base_page_html().into_bytes())
            .with_header("content-type", "text/html")
    } else {
        match content.lookup(&request.target) {
            Some(object) => {
                if object.work_us > 0 {
                    // Simulated back-end work (database scan, rendering).
                    thread::sleep(Duration::from_micros(object.work_us));
                }
                Response::new(StatusCode::OK, SiteContent::body_for(object))
                    .with_header("content-type", object.content_type)
            }
            None => {
                stats.not_found.fetch_add(1, Ordering::SeqCst);
                Response::new(StatusCode::NOT_FOUND, b"not found\n".to_vec())
            }
        }
    };
    stream.write_all(&response.to_bytes(head_only))?;
    stream.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfc_http::{Client, Url};

    fn start_default() -> ServerHandle {
        HttpServer::new(SiteContent::validation_site(), ServerOptions::default())
            .start()
            .expect("server starts")
    }

    #[test]
    fn serves_base_page_and_objects() {
        let server = start_default();
        let client = Client::default();
        let base = Url::parse(&format!("{}/", server.base_url())).unwrap();
        let response = client.get(&base).unwrap();
        assert_eq!(response.status, StatusCode::OK);
        assert!(String::from_utf8_lossy(&response.body).contains("large_100k.bin"));

        let object = Url::parse(&format!("{}/objects/large_100k.bin", server.base_url())).unwrap();
        let response = client.get(&object).unwrap();
        assert_eq!(response.body.len(), 100 * 1024);
        server.shutdown();
    }

    #[test]
    fn head_requests_return_headers_only() {
        let server = start_default();
        let client = Client::default();
        let url = Url::parse(&format!("{}/objects/large_100k.bin", server.base_url())).unwrap();
        let response = client.head(&url).unwrap();
        assert_eq!(response.content_length(), Some(100 * 1024));
        assert!(response.body.is_empty());
        server.shutdown();
    }

    #[test]
    fn unknown_path_is_404() {
        let server = start_default();
        let client = Client::default();
        let url = Url::parse(&format!("{}/no/such/thing", server.base_url())).unwrap();
        let response = client.get(&url).unwrap();
        assert_eq!(response.status, StatusCode::NOT_FOUND);
        server.shutdown();
    }

    #[test]
    fn arrival_log_records_requests() {
        let server = start_default();
        let client = Client::default();
        for i in 0..5 {
            let url = Url::parse(&format!("{}/cgi/stats?item={i}", server.base_url())).unwrap();
            let _ = client.get(&url).unwrap();
        }
        let log = server.arrival_log();
        assert_eq!(log.len(), 5);
        assert!(log.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(server.stats().requests.load(Ordering::SeqCst), 5);
        server.shutdown();
    }

    #[test]
    fn linear_delay_model_slows_responses() {
        let fast = HttpServer::new(SiteContent::validation_site(), ServerOptions::default())
            .start()
            .unwrap();
        let slow = HttpServer::new(
            SiteContent::validation_site(),
            ServerOptions {
                // The request itself is the one in flight: 1 × 80 ms.
                delay: DelayModel::Linear {
                    per_request: Duration::from_millis(80),
                },
                ..ServerOptions::default()
            },
        )
        .start()
        .unwrap();
        let client = Client::default();
        let fast_url = Url::parse(&format!("{}/cgi/stats?item=1", fast.base_url())).unwrap();
        let slow_url = Url::parse(&format!("{}/cgi/stats?item=1", slow.base_url())).unwrap();
        let fast_time = client.fetch_timed(Method::Get, &fast_url).elapsed;
        let slow_time = client.fetch_timed(Method::Get, &slow_url).elapsed;
        assert!(
            slow_time > fast_time + Duration::from_millis(40),
            "delayed server must be visibly slower: {fast_time:?} vs {slow_time:?}"
        );
        fast.shutdown();
        slow.shutdown();
    }

    #[test]
    fn concurrent_requests_all_succeed() {
        let server = start_default();
        let base = server.base_url();
        let mut handles = Vec::new();
        for i in 0..16 {
            let base = base.clone();
            handles.push(thread::spawn(move || {
                let client = Client::default();
                let url = Url::parse(&format!("{base}/cgi/stats?item={i}")).unwrap();
                client.fetch_timed(Method::Get, &url)
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.iter().all(|r| r.is_success()));
        assert!(server.stats().peak_in_flight.load(Ordering::SeqCst) >= 2);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_via_drop() {
        let server = start_default();
        drop(server);
    }
}
