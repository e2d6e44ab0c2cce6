//! The live backend: MFC over real HTTP connections.
//!
//! Instead of PlanetLab hosts, the live backend runs a configurable number
//! of *virtual clients* as local threads, each optionally delayed by an
//! artificial latency so the population is not perfectly homogeneous.  The
//! target is any plain-HTTP URL — in this repository's examples and tests
//! it is an [`mfc-httpd`](../../../mfc_httpd/index.html) instance on
//! localhost, which also exposes the arrival log the paper obtained from
//! cooperating operators.
//!
//! The live backend demonstrates that the coordinator logic is not tied to
//! the simulation; it is *not* how the paper-scale experiments are
//! reproduced (those need hundreds of distinct servers, which only the
//! simulation can provide).

use std::thread;
use std::time::{Duration, Instant};

use mfc_http::{Client, ClientConfig, Method, Url};
use mfc_simcore::{SimDuration, SimRng};

use crate::backend::{BaseMeasurement, MfcBackend};
use crate::profile::{LiveCrawler, TargetProfile};
use crate::types::{
    ClientId, ClientObservation, EpochObservation, EpochPlan, ProbeMethod, ProbeStatus, RequestSpec,
};

/// Configuration of the live client pool.
#[derive(Debug, Clone)]
pub struct LiveBackendConfig {
    /// Number of virtual clients (threads) available to the coordinator.
    pub clients: usize,
    /// Artificial extra one-way latency injected before each virtual
    /// client's requests, to emulate geographic spread on a loopback
    /// target.  Sampled uniformly between the two bounds per client.
    pub artificial_latency: (Duration, Duration),
    /// HTTP client settings (timeouts).
    pub http: ClientConfig,
}

impl Default for LiveBackendConfig {
    fn default() -> Self {
        LiveBackendConfig {
            clients: 50,
            artificial_latency: (Duration::from_millis(0), Duration::from_millis(30)),
            http: ClientConfig::default(),
        }
    }
}

/// The live execution environment.
///
/// A live run goes straight on to its next epoch rather than sleeping
/// through the gap the paper paces epochs with: [`MfcBackend::wait`] keeps
/// its no-op default.
#[derive(Debug)]
pub struct LiveBackend {
    target: Url,
    config: LiveBackendConfig,
    /// Each virtual client's extra one-way latency, applied before its
    /// requests, by client id.
    extra_latencies: Vec<Duration>,
    crawler: LiveCrawler,
}

impl LiveBackend {
    /// Creates a live backend probing `target` with the given pool
    /// configuration; `seed` controls the artificial latency assignment.
    pub fn new(target: Url, config: LiveBackendConfig, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let (low, high) = config.artificial_latency;
        let extra_latencies = (0..config.clients)
            .map(|_| {
                Duration::from_micros(rng.uniform_u64(
                    low.as_micros() as u64,
                    high.as_micros().max(low.as_micros()) as u64,
                ))
            })
            .collect();
        let crawler = LiveCrawler::new(Client::new(config.http.clone()), 256);
        LiveBackend {
            target,
            config,
            extra_latencies,
            crawler,
        }
    }

    /// The target URL being probed.
    pub fn target(&self) -> &Url {
        &self.target
    }

    fn url_for(&self, request: &RequestSpec) -> Url {
        self.target.join(&request.path)
    }

    fn method_for(request: &RequestSpec) -> Method {
        match request.method {
            ProbeMethod::Get => Method::Get,
            ProbeMethod::Head => Method::Head,
        }
    }

    fn to_sim(duration: Duration) -> SimDuration {
        SimDuration::from_micros(duration.as_micros() as u64)
    }
}

impl MfcBackend for LiveBackend {
    fn registered_clients(&mut self) -> Vec<ClientId> {
        (0..self.extra_latencies.len())
            .map(|i| ClientId(i as u32))
            .collect()
    }

    fn ping(&mut self, client: ClientId) -> Option<SimDuration> {
        let index = client.0 as usize;
        let extra = self.extra_latencies.get(index)?;
        // Coordinator and clients share a process: the coordinator RTT is
        // just the artificial latency both ways.
        Some(Self::to_sim(*extra * 2))
    }

    fn measure_base(&mut self, client: ClientId, request: &RequestSpec) -> BaseMeasurement {
        let index = client.0 as usize;
        let url = self.url_for(request);
        let method = Self::method_for(request);
        let extra = self.extra_latencies[index];

        // RTT estimate: a HEAD of the base URL (connection + headers only).
        let rtt_probe = self
            .crawler
            .client()
            .fetch_timed(Method::Head, &self.target);
        let rtt = Self::to_sim(rtt_probe.elapsed + extra * 2);

        let result = self.crawler.fetch(method, &url);
        let base_response = Self::to_sim(result.elapsed + extra * 2);
        let status = if result.is_success() {
            ProbeStatus::Ok
        } else if result.error.as_deref() == Some("timed out") {
            ProbeStatus::TimedOut
        } else if let Some(code) = result.status {
            ProbeStatus::HttpError(code.0)
        } else {
            ProbeStatus::Failed
        };
        BaseMeasurement {
            target_rtt: rtt,
            base_response_time: base_response,
            status,
            bytes: result.body_bytes as u64,
        }
    }

    fn run_epoch(&mut self, plan: &EpochPlan) -> EpochObservation {
        let origin = Instant::now();
        let mut handles = Vec::with_capacity(plan.commands.len());
        for command in &plan.commands {
            let index = command.client.0 as usize;
            let Some(&extra) = self.extra_latencies.get(index) else {
                continue;
            };
            let url = self.url_for(&command.request);
            let method = Self::method_for(&command.request);
            let client_id = command.client;
            let send_after = Duration::from_micros(command.send_offset.as_micros());
            let timeout = Duration::from_micros(plan.timeout.as_micros());
            let http = Client::new(ClientConfig {
                request_timeout: timeout,
                ..self.config.http.clone()
            });
            handles.push(thread::spawn(move || {
                // Wait until this client's scheduled command time, then add
                // its artificial one-way latency (command travel), fire, and
                // add the artificial latency again on the way back.
                let elapsed = origin.elapsed();
                if send_after > elapsed {
                    thread::sleep(send_after - elapsed);
                }
                thread::sleep(extra);
                let result = http.fetch_timed(method, &url);
                let status = if result.is_success() {
                    ProbeStatus::Ok
                } else if result.error.as_deref() == Some("timed out") {
                    ProbeStatus::TimedOut
                } else if let Some(code) = result.status {
                    ProbeStatus::HttpError(code.0)
                } else {
                    ProbeStatus::Failed
                };
                ClientObservation {
                    client: client_id,
                    group: 0,
                    status,
                    bytes: result.body_bytes as u64,
                    response_time: LiveBackend::to_sim(result.elapsed + extra * 2),
                }
            }));
        }

        let observations: Vec<ClientObservation> =
            handles.into_iter().filter_map(|h| h.join().ok()).collect();
        EpochObservation {
            observations,
            target_arrivals: Vec::new(),
            lost_commands: 0,
            background_requests: 0,
            server_utilization: None,
        }
    }

    fn profile_target(&mut self) -> TargetProfile {
        self.crawler
            .crawl(&self.target)
            .unwrap_or_else(|_| TargetProfile::from_objects(self.target.path_and_query(), vec![]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Socket-level behaviour is covered by the integration tests in
    // `tests/live_mode.rs`, which stand up a real `mfc-httpd`; the unit
    // tests here cover the pure parts.

    #[test]
    fn client_pool_has_requested_size_and_latencies_in_range() {
        let config = LiveBackendConfig {
            clients: 12,
            artificial_latency: (Duration::from_millis(5), Duration::from_millis(20)),
            ..LiveBackendConfig::default()
        };
        let mut backend = LiveBackend::new(Url::parse("http://127.0.0.1:1/").unwrap(), config, 3);
        assert_eq!(backend.registered_clients().len(), 12);
        for client in backend.registered_clients() {
            let rtt = backend.ping(client).unwrap();
            assert!(rtt >= SimDuration::from_millis(10));
            assert!(rtt <= SimDuration::from_millis(40));
        }
        assert!(backend.ping(ClientId(99)).is_none());
    }

    #[test]
    fn url_and_method_mapping() {
        let backend = LiveBackend::new(
            Url::parse("http://127.0.0.1:8123/").unwrap(),
            LiveBackendConfig::default(),
            1,
        );
        let spec = RequestSpec {
            method: ProbeMethod::Head,
            path: "/x/y?q=1".to_string(),
            stage: crate::types::Stage::SmallQuery,
            expected_bytes: 100,
        };
        let url = backend.url_for(&spec);
        assert_eq!(url.to_string(), "http://127.0.0.1:8123/x/y?q=1");
        assert_eq!(LiveBackend::method_for(&spec), Method::Head);
    }

    #[test]
    fn duration_conversion_is_microsecond_accurate() {
        let d = Duration::from_micros(123_456);
        assert_eq!(LiveBackend::to_sim(d), SimDuration::from_micros(123_456));
    }
}
