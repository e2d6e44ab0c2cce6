//! Common-Log-Format trace replay.
//!
//! Cooperating operators have access logs; replaying one against the
//! simulated server is the highest-fidelity background workload available.
//! [`TraceReplay::parse`] ingests CLF lines —
//!
//! ```text
//! 10.0.0.1 - alice [10/Oct/2000:13:55:36 -0700] "GET /index.html HTTP/1.0" 200 2326
//! ```
//!
//! — and turns them into a schedule of request offsets relative to the
//! first entry.  The replay is deterministic by construction: no draws are
//! involved, only the timestamps and paths the log recorded.

use mfc_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One parsed log line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Arrival offset from the trace's first entry.
    pub offset: SimDuration,
    /// The requested path, query string included.
    pub path: String,
    /// Whether the request used `HEAD`.
    pub head: bool,
    /// Whether the path looks dynamic (contains `?`).
    pub dynamic: bool,
    /// The logged response size in bytes (`-` parses as 0).
    pub bytes: u64,
    /// The logged HTTP status.
    pub status: u16,
}

/// A replayable request schedule parsed from an access log.
///
/// When used as a workload source, entry `i` arrives at absolute
/// simulation time `anchor + offset_i`; entries outside the stream's
/// window are skipped (before) or dropped (after).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceReplay {
    /// Entries ordered by offset.
    pub entries: Vec<TraceEntry>,
    /// Where on the absolute time axis the trace's first entry lands.
    pub anchor: SimTime,
}

impl TraceReplay {
    /// Parses CLF text, one request per non-empty line.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    ///
    /// # Examples
    ///
    /// ```
    /// use mfc_workload::TraceReplay;
    ///
    /// let log = r#"
    /// 10.0.0.1 - - [10/Oct/2000:13:55:36 -0700] "GET /index.html HTTP/1.0" 200 2326
    /// 10.0.0.2 - - [10/Oct/2000:13:55:38 -0700] "GET /search?q=mfc HTTP/1.0" 200 412
    /// "#;
    /// let trace = TraceReplay::parse(log).unwrap();
    /// assert_eq!(trace.entries.len(), 2);
    /// assert_eq!(trace.entries[1].offset.as_secs_f64(), 2.0);
    /// assert!(trace.entries[1].dynamic);
    /// ```
    pub fn parse(text: &str) -> Result<TraceReplay, String> {
        let mut raw: Vec<(i64, TraceEntry)> = Vec::new();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let parsed =
                parse_line(line).map_err(|e| format!("line {}: {e}: {line}", number + 1))?;
            raw.push(parsed);
        }
        // Stable sort by timestamp: CLF logs are written at completion
        // time, so arrival order can be locally shuffled.
        raw.sort_by_key(|(ts, _)| *ts);
        let first = raw.first().map(|(ts, _)| *ts).unwrap_or(0);
        let entries = raw
            .into_iter()
            .map(|(ts, mut entry)| {
                entry.offset = SimDuration::from_secs_f64((ts - first) as f64);
                entry
            })
            .collect();
        Ok(TraceReplay {
            entries,
            anchor: SimTime::ZERO,
        })
    }

    /// The trace's span from first to last entry.
    pub fn span(&self) -> SimDuration {
        self.entries.last().map_or(SimDuration::ZERO, |e| e.offset)
    }

    /// Mean request rate over the trace's span, in requests per second.
    pub fn mean_rate(&self) -> f64 {
        let span = self.span().as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        (self.entries.len().saturating_sub(1)) as f64 / span
    }

    /// Checks the replay for internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self
            .entries
            .windows(2)
            .any(|pair| pair[0].offset > pair[1].offset)
        {
            return Err("trace entries must be ordered by offset".to_string());
        }
        Ok(())
    }
}

/// Parses one CLF line into `(unix-ish seconds, entry)`.
fn parse_line(line: &str) -> Result<(i64, TraceEntry), String> {
    let open = line.find('[').ok_or("missing [timestamp]")?;
    let close = line[open..]
        .find(']')
        .map(|i| open + i)
        .ok_or("unterminated timestamp")?;
    let timestamp = clf_timestamp(&line[open + 1..close])?;

    let rest = &line[close + 1..];
    let quote_start = rest.find('"').ok_or("missing request line")?;
    let quote_end = rest[quote_start + 1..]
        .find('"')
        .map(|i| quote_start + 1 + i)
        .ok_or("unterminated request line")?;
    let request = &rest[quote_start + 1..quote_end];
    let mut request_parts = request.split_whitespace();
    let method = request_parts.next().ok_or("empty request line")?;
    let path = request_parts.next().ok_or("request line has no path")?;

    let mut tail = rest[quote_end + 1..].split_whitespace();
    let status: u16 = tail
        .next()
        .ok_or("missing status")?
        .parse()
        .map_err(|_| "unparseable status")?;
    let bytes_field = tail.next().unwrap_or("-");
    let bytes: u64 = if bytes_field == "-" {
        0
    } else {
        bytes_field.parse().map_err(|_| "unparseable byte count")?
    };

    Ok((
        timestamp,
        TraceEntry {
            offset: SimDuration::ZERO, // rebased by the caller
            path: path.to_string(),
            head: method.eq_ignore_ascii_case("HEAD"),
            dynamic: path.contains('?'),
            bytes,
            status,
        },
    ))
}

/// Parses `10/Oct/2000:13:55:36 -0700` into seconds on a common axis
/// (days-from-civil algorithm; the absolute epoch does not matter, only
/// differences do).
fn clf_timestamp(text: &str) -> Result<i64, String> {
    let mut parts = text.split_whitespace();
    let datetime = parts.next().ok_or("empty timestamp")?;
    let zone = parts.next().unwrap_or("+0000");

    let mut fields = datetime.split(&['/', ':'][..]);
    let day: i64 = fields
        .next()
        .ok_or("missing day")?
        .parse()
        .map_err(|_| "bad day")?;
    let month = match fields.next().ok_or("missing month")? {
        "Jan" => 1,
        "Feb" => 2,
        "Mar" => 3,
        "Apr" => 4,
        "May" => 5,
        "Jun" => 6,
        "Jul" => 7,
        "Aug" => 8,
        "Sep" => 9,
        "Oct" => 10,
        "Nov" => 11,
        "Dec" => 12,
        other => return Err(format!("bad month {other}")),
    };
    let year: i64 = fields
        .next()
        .ok_or("missing year")?
        .parse()
        .map_err(|_| "bad year")?;
    let hour: i64 = fields
        .next()
        .ok_or("missing hour")?
        .parse()
        .map_err(|_| "bad hour")?;
    let minute: i64 = fields
        .next()
        .ok_or("missing minute")?
        .parse()
        .map_err(|_| "bad minute")?;
    let second: i64 = fields
        .next()
        .ok_or("missing second")?
        .parse()
        .map_err(|_| "bad second")?;

    // Howard Hinnant's days-from-civil.
    let (y, m) = if month <= 2 {
        (year - 1, month + 12)
    } else {
        (year, month)
    };
    let era = y.div_euclid(400);
    let yoe = y - era * 400;
    let doy = (153 * (m - 3) + 2) / 5 + day - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    let days = era * 146_097 + doe - 719_468;

    let zone_sign = if zone.starts_with('-') { -1 } else { 1 };
    let zone_digits = zone.trim_start_matches(['+', '-']);
    let zone_minutes: i64 = if zone_digits.len() == 4 {
        let h: i64 = zone_digits[..2].parse().map_err(|_| "bad zone")?;
        let m: i64 = zone_digits[2..].parse().map_err(|_| "bad zone")?;
        h * 60 + m
    } else {
        0
    };

    Ok(days * 86_400 + hour * 3_600 + minute * 60 + second - zone_sign * zone_minutes * 60)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOG: &str = r#"
192.168.1.9 - - [10/Oct/2000:13:55:36 -0700] "GET /index.html HTTP/1.0" 200 2326
192.168.1.9 - - [10/Oct/2000:13:55:37 -0700] "GET /img/logo.png HTTP/1.0" 200 14512
10.0.0.3 - bob [10/Oct/2000:13:56:06 -0700] "HEAD /index.html HTTP/1.1" 200 -
10.0.0.4 - - [10/Oct/2000:13:57:00 -0700] "GET /cgi/stats?table=t1 HTTP/1.1" 200 98
"#;

    #[test]
    fn parses_offsets_paths_and_classes() {
        let trace = TraceReplay::parse(LOG).unwrap();
        assert_eq!(trace.entries.len(), 4);
        assert_eq!(trace.entries[0].offset, SimDuration::ZERO);
        assert_eq!(trace.entries[1].offset, SimDuration::from_secs(1));
        assert_eq!(trace.entries[2].offset, SimDuration::from_secs(30));
        assert_eq!(trace.entries[3].offset, SimDuration::from_secs(84));
        assert!(trace.entries[2].head);
        assert!(trace.entries[3].dynamic);
        assert_eq!(trace.entries[1].bytes, 14512);
        assert_eq!(trace.entries[2].bytes, 0);
        assert!(trace.validate().is_ok());
        assert_eq!(trace.span(), SimDuration::from_secs(84));
        assert!((trace.mean_rate() - 3.0 / 84.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_lines_are_sorted() {
        let log = r#"
a - - [10/Oct/2000:13:55:40 +0000] "GET /b HTTP/1.0" 200 1
a - - [10/Oct/2000:13:55:36 +0000] "GET /a HTTP/1.0" 200 1
"#;
        let trace = TraceReplay::parse(log).unwrap();
        assert_eq!(trace.entries[0].path, "/a");
        assert_eq!(trace.entries[1].offset, SimDuration::from_secs(4));
    }

    #[test]
    fn timezone_offsets_are_applied() {
        let log = r#"
a - - [10/Oct/2000:12:00:00 -0100] "GET /a HTTP/1.0" 200 1
a - - [10/Oct/2000:14:00:00 +0100] "GET /b HTTP/1.0" 200 1
"#;
        // 12:00 -0100 = 13:00 UTC; 14:00 +0100 = 13:00 UTC.
        let trace = TraceReplay::parse(log).unwrap();
        assert_eq!(trace.entries[1].offset, SimDuration::ZERO);
    }

    #[test]
    fn month_boundaries_compute_correct_gaps() {
        let log = r#"
a - - [28/Feb/2001:23:59:59 +0000] "GET /a HTTP/1.0" 200 1
a - - [01/Mar/2001:00:00:00 +0000] "GET /b HTTP/1.0" 200 1
"#;
        let trace = TraceReplay::parse(log).unwrap();
        assert_eq!(trace.entries[1].offset, SimDuration::from_secs(1));
    }

    #[test]
    fn malformed_lines_are_reported_with_numbers() {
        let err = TraceReplay::parse("not a log line").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = TraceReplay::parse(
            "a - - [10/Oct/2000:13:55:36 +0000] \"GET /a HTTP/1.0\" twohundred 1",
        )
        .unwrap_err();
        assert!(err.contains("status"), "{err}");
    }

    #[test]
    fn empty_input_is_an_empty_trace() {
        let trace = TraceReplay::parse("\n\n").unwrap();
        assert!(trace.entries.is_empty());
        assert_eq!(trace.mean_rate(), 0.0);
    }
}
