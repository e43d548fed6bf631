//! Plaintext metrics exposition.
//!
//! Renders the counter table ([`Counters`], filled by
//! [`ServerStats::snapshot`](crate::stats::ServerStats::snapshot)) in
//! the Prometheus text format (metric name, optional label in braces,
//! space, value, newline). The same body is served three ways —
//! `GET /metrics` on the main port, the dedicated `--metrics-addr`
//! listener (both answer through `http_answer`), and the `metrics`
//! wire command (JSON `{"cmd":"metrics"}` or binary frame `0x07`) — so
//! scrapers, humans with `curl`, and protocol clients all read identical
//! numbers.
//!
//! Metric names are stable API: the CI metrics-scrape smoke asserts on
//! them, so renames are breaking changes.

use std::fmt::Write as _;

use crate::stats::Counters;

/// The `Content-Type` the HTTP endpoints serve.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Renders the counter table as the metrics exposition body: rows in
/// table order, server-health sections last, zero histogram buckets
/// left out.
pub fn render(counters: &Counters) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("# charfree power-estimation server metrics\n");
    let rows = counters.rows();
    let (health, rest): (Vec<_>, Vec<_>) = rows.iter().partition(|c| c.section.health);
    for c in rest.into_iter().chain(health) {
        if c.key.is_none() && c.value == 0 {
            continue;
        }
        out.push_str(c.metric);
        if let Some((name, value)) = &c.label {
            let _ = write!(out, "{{{name}=\"{value}\"}}");
        }
        let _ = writeln!(out, " {}", c.value);
    }
    out
}

/// The HTTP answer to one request line: the exposition of `snapshot()`
/// for `GET /metrics`, a 404 for anything else. Both HTTP endpoints
/// answer through here, as a minimal `HTTP/1.0` response with
/// connection close (scrapers and `curl` both accept it).
pub(crate) fn http_answer(line: &str, snapshot: impl FnOnce() -> Counters) -> String {
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some("/metrics")) => http("200 OK", CONTENT_TYPE, &render(&snapshot())),
        _ => http(
            "404 Not Found",
            "text/plain",
            "only GET /metrics is served\n",
        ),
    }
}

fn http(status: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Command;
    use crate::registry::ShardedRegistry;
    use crate::stats::ServerStats;
    use crate::supervisor::{BreakerConfig, CircuitBreaker};

    #[test]
    fn renders_the_stable_counter_names() {
        let stats = ServerStats::new();
        stats.record_accepted(Some(Command::Eval));
        stats.record_accepted(Some(Command::TraceDirect));
        stats.record_accepted(Some(Command::SeqEval));
        stats.record_completed(420);
        stats.record_error();
        stats.record_batch(2, 33);
        stats.record_idle_timeout();
        let registry = ShardedRegistry::new(8, 1 << 20);
        let breaker = CircuitBreaker::new(BreakerConfig::default());
        let net = charfree_net::NetCounters::default();
        net.accepted
            .fetch_add(3, std::sync::atomic::Ordering::Relaxed);
        net.record_close(charfree_net::CloseReason::Idle);

        let body = render(&stats.snapshot(&registry, &breaker, &net, (1, 2)));
        for needle in [
            "charfree_accepted_total 3",
            "charfree_completed_total 1",
            "charfree_errors_total 1",
            "charfree_requests_total{cmd=\"eval\"} 1",
            "charfree_requests_total{cmd=\"tracep\"} 1",
            "charfree_latency_us{quantile=\"p50\"} 512",
            "charfree_batches_total 1",
            "charfree_batch_fill{lanes=\"33\"} 1",
            "charfree_registry_shards 8",
            "charfree_seq_designs 1",
            "charfree_seq_macros_resident 2",
            "charfree_seq_loads_total 0",
            "charfree_seq_evals_total 1",
            "charfree_worker_panics_total 0",
            "charfree_idle_timeouts_total 1",
            "charfree_net_connections_total 3",
            "charfree_net_closed_total{reason=\"idle\"} 1",
        ] {
            assert!(body.contains(needle), "missing `{needle}` in:\n{body}");
        }
    }

    #[test]
    fn only_get_metrics_renders_the_table() {
        let unreachable = || -> Counters { panic!("a 404 renders no table") };
        for line in ["GET /other HTTP/1.0", "POST /metrics HTTP/1.0", ""] {
            let answer = http_answer(line, unreachable);
            assert!(
                answer.starts_with("HTTP/1.0 404 Not Found\r\n"),
                "{line}: {answer}"
            );
        }
    }

    #[test]
    fn http_wrapper_carries_exact_content_length() {
        let resp = http("200 OK", CONTENT_TYPE, "abc\n");
        assert!(resp.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(resp.contains("Content-Length: 4\r\n"));
        assert!(resp.ends_with("\r\n\r\nabc\n"));
    }
}
