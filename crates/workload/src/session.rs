//! Session models: Markov page graphs with think times and embedded
//! objects.
//!
//! Real users do not issue independent requests — they arrive, fetch a
//! page plus its embedded objects, think, follow a link, and eventually
//! leave (Aghili et al., arXiv:2409.12299, find the session structure is
//! what shapes server load: bursts of correlated requests separated by
//! heavy-tailed think times).  [`SessionModel`] captures that as a Markov
//! chain over abstract page classes; the concrete URL for each page view is
//! chosen downstream by the [`crate::RequestSampler`] against the site's
//! actual catalog.

use mfc_simcore::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::stream::RequestKind;
use crate::tail::TailDistribution;

/// Hard cap on requests a single session may issue, so a miswritten
/// transition matrix (exit weight zero) cannot generate an unbounded
/// request train.
pub const SESSION_REQUEST_CAP: u32 = 256;

/// One page class in the session graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageSpec {
    /// The request class a view of this page issues.
    pub kind: RequestKind,
    /// Minimum number of embedded objects fetched right after the page.
    pub embedded_min: u32,
    /// Maximum number of embedded objects (inclusive).
    pub embedded_max: u32,
    /// The request class of the embedded objects (images, typically).
    pub embedded_kind: RequestKind,
    /// Upper bound of the uniform gap between successive embedded-object
    /// fetches (browser pipelining jitter).
    pub embedded_gap: SimDuration,
}

impl PageSpec {
    /// A page with no embedded objects.
    pub fn bare(kind: RequestKind) -> Self {
        PageSpec {
            kind,
            embedded_min: 0,
            embedded_max: 0,
            embedded_kind: RequestKind::StaticSmall,
            embedded_gap: SimDuration::ZERO,
        }
    }
}

/// A Markov page graph: entry distribution, per-page transition weights,
/// exit weights, and a heavy-tailed think-time distribution between page
/// views.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionModel {
    /// The page classes (states of the chain).
    pub pages: Vec<PageSpec>,
    /// Entry weights: where a session starts (need not be normalized).
    pub entry_weights: Vec<f64>,
    /// `transitions[i][j]` is the weight of moving from page `i` to page
    /// `j` after the think time; rows need not be normalized.
    pub transitions: Vec<Vec<f64>>,
    /// `exit_weights[i]` competes with `transitions[i]`: the weight of the
    /// session ending after page `i`.
    pub exit_weights: Vec<f64>,
    /// Think time between the completion of a page (and its embedded
    /// objects) and the next page view.
    pub think_time: TailDistribution,
}

impl SessionModel {
    /// A browsing-dominated default session: home page with a couple of
    /// embedded images, article pages, a search action and an occasional
    /// download, with a log-normal think time whose heavy tail matches
    /// measured browsing behaviour.  Mean session length ≈ 4 page views
    /// (≈ 9 requests including embedded objects).
    pub fn browsing() -> Self {
        let home = PageSpec {
            kind: RequestKind::BasePage,
            embedded_min: 1,
            embedded_max: 3,
            embedded_kind: RequestKind::StaticSmall,
            embedded_gap: SimDuration::from_millis(120),
        };
        let article = PageSpec {
            kind: RequestKind::StaticSmall,
            embedded_min: 0,
            embedded_max: 2,
            embedded_kind: RequestKind::StaticSmall,
            embedded_gap: SimDuration::from_millis(120),
        };
        let search = PageSpec::bare(RequestKind::Dynamic);
        let download = PageSpec::bare(RequestKind::StaticLarge);
        SessionModel {
            pages: vec![home, article, search, download],
            entry_weights: vec![0.7, 0.2, 0.1, 0.0],
            transitions: vec![
                // home -> mostly articles or a search
                vec![0.05, 0.45, 0.20, 0.05],
                // article -> more articles, back home, occasional download
                vec![0.10, 0.40, 0.10, 0.08],
                // search -> an article (the result) or another search
                vec![0.05, 0.55, 0.20, 0.02],
                // download -> usually the end of the visit
                vec![0.05, 0.10, 0.05, 0.00],
            ],
            exit_weights: vec![0.25, 0.32, 0.18, 0.80],
            think_time: TailDistribution::LogNormal {
                median: 6.0,
                sigma: 1.2,
            },
        }
    }

    /// Expected number of requests (page views plus embedded objects) per
    /// session, from the chain's fundamental matrix — used to translate a
    /// target *request* rate into a session arrival rate.  Computed by
    /// power iteration on the absorbing chain (exact as iterations grow;
    /// truncated at the [`SESSION_REQUEST_CAP`] the generator enforces).
    pub fn mean_requests_per_session(&self) -> f64 {
        let n = self.pages.len();
        if n == 0 {
            return 0.0;
        }
        let per_view: Vec<f64> = self
            .pages
            .iter()
            .map(|p| 1.0 + f64::from(p.embedded_min + p.embedded_max) / 2.0)
            .collect();
        // Normalized entry distribution.
        let entry_total: f64 = self.entry_weights.iter().map(|w| w.max(0.0)).sum();
        if entry_total <= 0.0 {
            return 0.0;
        }
        let mut occupancy: Vec<f64> = self
            .entry_weights
            .iter()
            .map(|w| w.max(0.0) / entry_total)
            .collect();
        // Row-normalized continue probabilities.
        let mut expected = 0.0;
        for _ in 0..SESSION_REQUEST_CAP {
            let mass: f64 = occupancy.iter().sum();
            if mass < 1e-12 {
                break;
            }
            for (i, occ) in occupancy.iter().enumerate() {
                expected += occ * per_view[i];
            }
            let mut next = vec![0.0; n];
            for (i, occ) in occupancy.iter().enumerate() {
                if *occ <= 0.0 {
                    continue;
                }
                let row_total: f64 = self.transitions[i].iter().map(|w| w.max(0.0)).sum::<f64>()
                    + self.exit_weights[i].max(0.0);
                if row_total <= 0.0 {
                    continue; // certain exit
                }
                for (j, w) in self.transitions[i].iter().enumerate() {
                    next[j] += occ * w.max(0.0) / row_total;
                }
            }
            occupancy = next;
        }
        expected
    }

    /// Checks shape and weight consistency.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.pages.len();
        if n == 0 {
            return Err("session model needs at least one page".to_string());
        }
        if self.entry_weights.len() != n
            || self.transitions.len() != n
            || self.exit_weights.len() != n
        {
            return Err(format!(
                "session model shape mismatch: {n} pages, {} entry weights, {} transition rows, \
                 {} exit weights",
                self.entry_weights.len(),
                self.transitions.len(),
                self.exit_weights.len()
            ));
        }
        if self.transitions.iter().any(|row| row.len() != n) {
            return Err("every transition row must cover every page".to_string());
        }
        let non_negative = |w: &f64| *w >= 0.0 && w.is_finite();
        if !self.entry_weights.iter().all(non_negative)
            || !self.exit_weights.iter().all(non_negative)
            || !self.transitions.iter().flatten().all(non_negative)
        {
            return Err("session weights must be finite and non-negative".to_string());
        }
        if self.entry_weights.iter().sum::<f64>() <= 0.0 {
            return Err("entry weights must not all be zero".to_string());
        }
        for (i, page) in self.pages.iter().enumerate() {
            if page.embedded_min > page.embedded_max {
                return Err(format!("page {i}: embedded_min > embedded_max"));
            }
        }
        self.think_time.validate()
    }
}

/// The live state of one in-flight session inside a
/// [`crate::WorkloadStream`].
#[derive(Debug, Clone)]
pub(crate) struct SessionState {
    /// The session's private RNG: seeded once at session start, so its draw
    /// pattern is independent of how concurrent sessions interleave.
    pub rng: SimRng,
    /// Stable session identifier (used for the synthetic client address).
    pub user: u64,
    /// Index of the source that spawned the session.
    pub source: u32,
    /// Current page (state of the chain).
    pub page: u32,
    /// Embedded objects still to fetch for the current page.
    pub embedded_left: u32,
    /// Requests issued so far (capped at [`SESSION_REQUEST_CAP`]).
    pub issued: u32,
}

impl SessionState {
    /// Starts a session: picks the entry page.  The first page view fires
    /// at the session's arrival instant.
    pub fn start(model: &SessionModel, user: u64, source: u32, mut rng: SimRng) -> Self {
        let page = rng.weighted_index(model.entry_weights.iter().copied()) as u32;
        SessionState {
            rng,
            user,
            source,
            page,
            embedded_left: 0,
            issued: 0,
        }
    }

    /// Produces the request kind due now and schedules the following one:
    /// `Some(next_time)` while the session lives, `None` when it exits
    /// after this request.
    pub fn step(&mut self, model: &SessionModel, now: SimTime) -> (RequestKind, Option<SimTime>) {
        let page = &model.pages[self.page as usize];
        let kind = if self.embedded_left > 0 {
            self.embedded_left -= 1;
            page.embedded_kind
        } else {
            // A fresh page view: draw how many embedded objects follow.
            self.embedded_left = if page.embedded_max > page.embedded_min {
                self.rng
                    .uniform_u64(u64::from(page.embedded_min), u64::from(page.embedded_max))
                    as u32
            } else {
                page.embedded_min
            };
            page.kind
        };
        self.issued += 1;
        if self.issued >= SESSION_REQUEST_CAP {
            return (kind, None);
        }
        let next = if self.embedded_left > 0 {
            // Embedded objects follow the page almost immediately.
            let gap_micros = page.embedded_gap.as_micros();
            let gap = if gap_micros == 0 {
                SimDuration::from_micros(1)
            } else {
                SimDuration::from_micros(self.rng.uniform_u64(1, gap_micros))
            };
            Some(now + gap)
        } else {
            // Think, then follow a link or leave.
            let row = &model.transitions[self.page as usize];
            let exit = model.exit_weights[self.page as usize].max(0.0);
            let total: f64 = row.iter().map(|w| w.max(0.0)).sum::<f64>() + exit;
            if total <= 0.0 {
                return (kind, None);
            }
            // One draw over the row's weights followed by the exit weight:
            // the last index leaves.
            let choices = row.iter().copied().chain(std::iter::once(exit));
            let next_page = self.rng.weighted_index(choices);
            if next_page < row.len() {
                self.page = next_page as u32;
                let think = self.rng.sample_tail(&model.think_time);
                Some(now + SimDuration::from_secs_f64(think).max(SimDuration::from_micros(1)))
            } else {
                None
            }
        };
        (kind, next)
    }
}

/// Draw helper so [`SessionState`] can sample a [`TailDistribution`]
/// through its own RNG handle.
trait SampleTail {
    fn sample_tail(&mut self, d: &TailDistribution) -> f64;
}

impl SampleTail for SimRng {
    fn sample_tail(&mut self, d: &TailDistribution) -> f64 {
        d.sample(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn browsing_model_validates() {
        let model = SessionModel::browsing();
        assert!(model.validate().is_ok());
        let mean = model.mean_requests_per_session();
        assert!(
            (2.0..30.0).contains(&mean),
            "mean requests per session out of range: {mean}"
        );
    }

    #[test]
    fn sessions_terminate_and_respect_the_cap() {
        let model = SessionModel::browsing();
        let mut rng = SimRng::seed_from(11);
        for user in 0..200 {
            let mut session =
                SessionState::start(&model, user, 0, SimRng::seed_from(rng.next_u64()));
            let mut now = SimTime::ZERO;
            let mut requests = 0u32;
            loop {
                let (_, next) = session.step(&model, now);
                requests += 1;
                assert!(requests <= SESSION_REQUEST_CAP);
                match next {
                    Some(t) => {
                        assert!(t > now, "time must advance");
                        now = t;
                    }
                    None => break,
                }
            }
            assert!(requests >= 1);
        }
    }

    /// The session walk as it was when it collected its choices into a
    /// `Vec` for `SimRng::weighted_choice`: the entry draw, then per page
    /// transition one draw over the row's choices followed by the exit.
    /// Returns each request's kind and next time, then the RNG's next value.
    fn collecting_walk(model: &SessionModel, mut rng: SimRng) -> (Vec<(RequestKind, u64)>, u64) {
        let entry: Vec<(u32, f64)> = model
            .entry_weights
            .iter()
            .enumerate()
            .map(|(i, w)| (i as u32, w.max(0.0)))
            .collect();
        let mut page = *rng.weighted_choice(&entry);
        let (mut embedded_left, mut issued) = (0u32, 0u32);
        let mut now = SimTime::ZERO;
        let mut walk = Vec::new();
        loop {
            let spec = &model.pages[page as usize];
            let kind = if embedded_left > 0 {
                embedded_left -= 1;
                spec.embedded_kind
            } else {
                embedded_left = if spec.embedded_max > spec.embedded_min {
                    rng.uniform_u64(u64::from(spec.embedded_min), u64::from(spec.embedded_max))
                        as u32
                } else {
                    spec.embedded_min
                };
                spec.kind
            };
            issued += 1;
            let next = if issued >= SESSION_REQUEST_CAP {
                None
            } else if embedded_left > 0 {
                let gap_micros = spec.embedded_gap.as_micros();
                let gap = if gap_micros == 0 {
                    SimDuration::from_micros(1)
                } else {
                    SimDuration::from_micros(rng.uniform_u64(1, gap_micros))
                };
                Some(now + gap)
            } else {
                let row = &model.transitions[page as usize];
                let exit = model.exit_weights[page as usize].max(0.0);
                let total: f64 = row.iter().map(|w| w.max(0.0)).sum::<f64>() + exit;
                if total <= 0.0 {
                    walk.push((kind, 0));
                    return (walk, rng.next_u64());
                }
                let mut choices: Vec<(Option<u32>, f64)> = row
                    .iter()
                    .enumerate()
                    .map(|(j, w)| (Some(j as u32), w.max(0.0)))
                    .collect();
                choices.push((None, exit));
                match *rng.weighted_choice(&choices) {
                    Some(next_page) => {
                        page = next_page;
                        let think = model.think_time.sample(&mut rng);
                        Some(
                            now + SimDuration::from_secs_f64(think)
                                .max(SimDuration::from_micros(1)),
                        )
                    }
                    None => None,
                }
            };
            walk.push((kind, next.map_or(0, |t| t.as_micros())));
            match next {
                Some(t) => now = t,
                None => return (walk, rng.next_u64()),
            }
        }
    }

    #[test]
    fn the_walk_draws_what_the_collecting_walk_drew() {
        let mut model = SessionModel::browsing();
        // A page whose row and exit are all zero: the walk ends without a
        // draw.
        model.pages.push(PageSpec::bare(RequestKind::StaticLarge));
        model.entry_weights.push(0.05);
        for row in &mut model.transitions {
            row.push(0.01);
        }
        model.transitions.push(vec![0.0; 5]);
        model.exit_weights.push(0.0);
        assert!(model.validate().is_ok());
        let mut seeds = SimRng::seed_from(29);
        for user in 0..2_000 {
            let rng = SimRng::seed_from(seeds.next_u64());
            let (expected, expected_next) = collecting_walk(&model, rng.clone());
            let mut session = SessionState::start(&model, user, 0, rng);
            let mut now = SimTime::ZERO;
            let mut walk = Vec::new();
            loop {
                let (kind, next) = session.step(&model, now);
                walk.push((kind, next.map_or(0, |t| t.as_micros())));
                match next {
                    Some(t) => now = t,
                    None => break,
                }
            }
            assert_eq!(walk, expected, "session {user}");
            assert_eq!(session.rng.next_u64(), expected_next, "session {user}");
        }
    }

    #[test]
    fn empirical_session_length_matches_the_analytic_mean() {
        let model = SessionModel::browsing();
        let analytic = model.mean_requests_per_session();
        let mut rng = SimRng::seed_from(23);
        let mut total = 0u64;
        let sessions = 4_000;
        for user in 0..sessions {
            let mut session =
                SessionState::start(&model, user, 0, SimRng::seed_from(rng.next_u64()));
            let mut now = SimTime::ZERO;
            loop {
                let (_, next) = session.step(&model, now);
                total += 1;
                match next {
                    Some(t) => now = t,
                    None => break,
                }
            }
        }
        let empirical = total as f64 / sessions as f64;
        assert!(
            (empirical - analytic).abs() < 0.1 * analytic,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn validation_catches_shape_mismatches() {
        let mut model = SessionModel::browsing();
        model.entry_weights.pop();
        assert!(model.validate().is_err());
        let mut model = SessionModel::browsing();
        model.transitions[0].push(1.0);
        assert!(model.validate().is_err());
        let mut model = SessionModel::browsing();
        model.entry_weights = vec![0.0; 4];
        assert!(model.validate().is_err());
        let mut model = SessionModel::browsing();
        model.pages[1].embedded_min = 9;
        model.pages[1].embedded_max = 2;
        assert!(model.validate().is_err());
    }
}
