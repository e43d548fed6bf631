//! Server observability: request counters, latency percentiles, the
//! micro-batch fill distribution, and the one table every exported
//! number is declared in.
//!
//! Latencies land in log2-spaced microsecond buckets (1us, 2us, 4us, …
//! ~1.1h). Percentiles are read back as the *upper bound* of the bucket
//! holding the requested rank — deliberately pessimistic, and cheap
//! enough to record with two atomic adds per request. Batch fill uses 64
//! linear buckets (one per possible lane count in a 64-lane
//! `PatternBlock` group), so `stats` exposes exactly how well
//! cross-connection coalescing is working.
//!
//! [`ServerStats::snapshot`] lists each number once, as a row of
//! [`Counters`] carrying its place in the `stats` JSON and its Prometheus
//! name and label; the `stats` payload ([`Counters::to_json`]) and the
//! `/metrics` body ([`crate::metrics::render`]) both render from that
//! table.

use std::sync::atomic::{AtomicU64, Ordering};

use charfree_dd::SharedTable;
use charfree_net::{CloseReason, NetCounters};

use crate::json::Json;
use crate::proto::Command;
use crate::registry::ShardedRegistry;
use crate::supervisor::CircuitBreaker;

const LATENCY_BUCKETS: usize = 32;
const FILL_BUCKETS: usize = 64;

/// Lock-free accumulator behind the `stats` command.
pub struct ServerStats {
    accepted: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    /// Indexed by `Command as usize`: one counter per wire command.
    per_cmd: [AtomicU64; Command::ALL.len()],
    latency_us: [AtomicU64; LATENCY_BUCKETS],
    batch_fill: [AtomicU64; FILL_BUCKETS],
    batches: AtomicU64,
    batched_requests: AtomicU64,
    worker_panics: AtomicU64,
    breaker_denials: AtomicU64,
    idle_timeouts: AtomicU64,
}

/// A JSON object of the `stats` payload.
#[derive(Clone, Copy)]
pub(crate) struct Section {
    /// Its key (`None`: the top level).
    pub(crate) key: Option<&'static str>,
    /// A server-health section, which `/metrics` lists after all others:
    /// the exposition keeps request and model counters first, while the
    /// `stats` JSON keeps the key order its readers parse.
    pub(crate) health: bool,
}

const TOP: Section = Section::new(None);
const PER_COMMAND: Section = Section::new(Some("per_command"));
const LATENCY: Section = Section::new(Some("latency_us"));
const BATCH_FILL: Section = Section::new(Some("batch_fill"));
const REGISTRY: Section = Section::new(Some("registry"));
const RESILIENCE: Section = Section::health("resilience");
const SEQ: Section = Section::new(Some("seq"));
const SHARED_TABLE: Section = Section::new(Some("shared_table"));
const NET: Section = Section::health("net");

impl Section {
    const fn new(key: Option<&'static str>) -> Section {
        Section { key, health: false }
    }

    const fn health(key: &'static str) -> Section {
        Section {
            key: Some(key),
            health: true,
        }
    }
}

/// One exported number: its place in the `stats` JSON and its
/// Prometheus sample.
pub(crate) struct Counter {
    /// The JSON object holding it.
    pub(crate) section: Section,
    /// Its key there; `None` appends it to the section's array (a
    /// histogram bucket, which `/metrics` exposes only when non-zero).
    pub(crate) key: Option<String>,
    /// Prometheus metric name.
    pub(crate) metric: &'static str,
    /// Prometheus label, as `(name, value)`.
    pub(crate) label: Option<(&'static str, String)>,
    /// The number.
    pub(crate) value: u64,
}

/// Every exported number, in `stats` JSON order.
pub struct Counters {
    rows: Vec<Counter>,
    /// The section new rows go to.
    open: Section,
}

impl Counters {
    /// Sends the rows that follow to `section`.
    fn open(&mut self, section: Section) -> &mut Counters {
        self.open = section;
        self
    }

    /// Appends a plain row.
    fn field(&mut self, key: &str, metric: &'static str, value: u64) -> &mut Counters {
        self.row(Some(key.to_owned()), metric, None, value)
    }

    /// Appends a row; a `None` key makes it an array element.
    fn row(
        &mut self,
        key: Option<String>,
        metric: &'static str,
        label: Option<(&'static str, String)>,
        value: u64,
    ) -> &mut Counters {
        let section = self.open;
        self.rows.push(Counter {
            section,
            key,
            metric,
            label,
            value,
        });
        self
    }

    /// The rows, in `stats` JSON order.
    pub(crate) fn rows(&self) -> &[Counter] {
        &self.rows
    }

    /// Renders the table as the `stats` response payload.
    pub fn to_json(&self) -> Json {
        let mut top: Vec<(String, Json)> = Vec::new();
        for c in &self.rows {
            let value = Json::num(c.value);
            let Some(section) = c.section.key else {
                top.push((c.key.clone().unwrap_or_default(), value));
                continue;
            };
            if top.last().map(|(key, _)| key.as_str()) != Some(section) {
                let empty = match c.key {
                    Some(_) => Json::Obj(Vec::new()),
                    None => Json::Arr(Vec::new()),
                };
                top.push((section.to_owned(), empty));
            }
            match (top.last_mut().map(|(_, v)| v), &c.key) {
                (Some(Json::Obj(fields)), Some(key)) => fields.push((key.clone(), value)),
                (Some(Json::Arr(items)), None) => items.push(value),
                _ => {}
            }
        }
        Json::Obj(top)
    }
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

impl ServerStats {
    /// A zeroed accumulator.
    pub fn new() -> ServerStats {
        ServerStats {
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            per_cmd: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_us: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_fill: std::array::from_fn(|_| AtomicU64::new(0)),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            breaker_denials: AtomicU64::new(0),
            idle_timeouts: AtomicU64::new(0),
        }
    }

    /// Counts an accepted request line for `cmd`.
    pub fn record_accepted(&self, cmd: Option<Command>) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        if let Some(cmd) = cmd {
            self.per_cmd[cmd as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a completed request and files its latency.
    pub fn record_completed(&self, latency_us: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let bucket = (64 - latency_us.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.latency_us[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request that ended in a typed error response.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request shed by admission control.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a batch worker panic (the supervisor restarts the worker).
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Total batch worker panics so far.
    pub fn worker_panics(&self) -> u64 {
        load(&self.worker_panics)
    }

    /// Counts a request denied by an open model circuit breaker.
    pub fn record_breaker_denial(&self) {
        self.breaker_denials.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a connection closed for sitting idle past the server's
    /// idle timeout (the slow-loris guard).
    pub fn record_idle_timeout(&self) {
        self.idle_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Files one executed micro-batch: how many requests it coalesced
    /// and the mean lane occupancy of its 64-lane groups (1..=64).
    pub fn record_batch(&self, requests: usize, mean_lane_fill: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(requests as u64, Ordering::Relaxed);
        let bucket = mean_lane_fill.clamp(1, FILL_BUCKETS) - 1;
        self.batch_fill[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The table of every exported number: these counters, the
    /// registry's, the breaker's, the reactor's (`net`), the shared
    /// structural table's and the sequential registry gauge pair `seq`
    /// = `(designs, macros_resident)`.
    pub fn snapshot(
        &self,
        registry: &ShardedRegistry,
        breaker: &CircuitBreaker,
        net: &NetCounters,
        table: &SharedTable,
        seq: (u64, u64),
    ) -> Counters {
        let mut c = Counters {
            rows: Vec::with_capacity(128),
            open: TOP,
        };
        let completed = load(&self.completed);
        c.field("accepted", "charfree_accepted_total", load(&self.accepted))
            .field("completed", "charfree_completed_total", completed)
            .field("errors", "charfree_errors_total", load(&self.errors))
            .field("shed", "charfree_shed_total", load(&self.shed));
        c.open(PER_COMMAND);
        for (cmd, count) in Command::ALL.iter().zip(&self.per_cmd) {
            let name = cmd.name().to_owned();
            c.row(
                Some(name.clone()),
                "charfree_requests_total",
                Some(("cmd", name)),
                load(count),
            );
        }
        c.open(LATENCY);
        let latency = self.latency_us.each_ref().map(load);
        for (q, pct) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            let label = Some(("quantile", q.to_owned()));
            c.row(
                Some(q.to_owned()),
                "charfree_latency_us",
                label,
                latency_percentile(&latency, pct),
            );
        }
        let batched = load(&self.batched_requests);
        c.open(TOP)
            .field("batches", "charfree_batches_total", load(&self.batches))
            .field(
                "batched_requests",
                "charfree_batched_requests_total",
                batched,
            );
        c.open(BATCH_FILL);
        for (lanes, count) in (1u32..).zip(&self.batch_fill) {
            let label = Some(("lanes", lanes.to_string()));
            c.row(None, "charfree_batch_fill", label, load(count));
        }
        let (entries, bytes, hits, misses, evictions) = registry.stats();
        let shards = registry.shard_count() as u64;
        c.open(REGISTRY)
            .field("entries", "charfree_registry_entries", entries as u64)
            .field("bytes", "charfree_registry_bytes", bytes as u64)
            .field("hits", "charfree_registry_hits_total", hits)
            .field("misses", "charfree_registry_misses_total", misses)
            .field("evictions", "charfree_registry_evictions_total", evictions)
            .field("shards", "charfree_registry_shards", shards);
        let (panics, trips) = (load(&self.worker_panics), breaker.trips());
        let (denials, open) = (load(&self.breaker_denials), breaker.open_circuits() as u64);
        c.open(RESILIENCE)
            .field("worker_panics", "charfree_worker_panics_total", panics)
            .field("breaker_trips", "charfree_breaker_trips_total", trips)
            .field("breaker_denials", "charfree_breaker_denials_total", denials)
            .field("open_circuits", "charfree_breaker_open_circuits", open)
            .field(
                "idle_timeouts",
                "charfree_idle_timeouts_total",
                load(&self.idle_timeouts),
            );
        let count = |cmd: Command| load(&self.per_cmd[cmd as usize]);
        let (loads, evals) = (count(Command::SeqLoad), count(Command::SeqEval));
        c.open(SEQ)
            .field("designs", "charfree_seq_designs", seq.0)
            .field("macros_resident", "charfree_seq_macros_resident", seq.1)
            .field("loads", "charfree_seq_loads_total", loads)
            .field("evals", "charfree_seq_evals_total", evals);
        let t = table.counters();
        c.open(SHARED_TABLE)
            .field("entries", "charfree_table_entries", table.len() as u64)
            .field("table_hits", "charfree_table_hits_total", t.table_hits)
            .field(
                "table_misses",
                "charfree_table_misses_total",
                t.table_misses,
            )
            .field(
                "delta_rebuilds",
                "charfree_delta_rebuilds_total",
                t.delta_rebuilds,
            )
            .field(
                "apply_steps_saved",
                "charfree_apply_steps_saved_total",
                t.apply_steps_saved,
            );
        c.open(NET)
            .field(
                "connections",
                "charfree_net_connections_total",
                load(&net.accepted),
            )
            .field(
                "bytes_in",
                "charfree_net_bytes_in_total",
                load(&net.bytes_in),
            )
            .field(
                "bytes_out",
                "charfree_net_bytes_out_total",
                load(&net.bytes_out),
            );
        for reason in CloseReason::all() {
            let key = Some(format!("closed_{}", reason.name().replace('-', "_")));
            let label = Some(("reason", reason.name().to_owned()));
            c.row(key, "charfree_net_closed_total", label, net.closed(reason));
        }
        c
    }
}

/// The upper bound of the log2 bucket holding rank `pct` of `counts`
/// (0 when empty).
fn latency_percentile(counts: &[u64; LATENCY_BUCKETS], pct: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * pct).ceil() as u64;
    let mut seen = 0u64;
    for (bucket, &count) in counts.iter().enumerate() {
        seen += count;
        if seen >= rank {
            // Upper bound of the bucket: bucket b holds latencies in
            // (2^(b-1), 2^b] microseconds.
            return 1u64 << bucket;
        }
    }
    1u64 << (LATENCY_BUCKETS - 1)
}

impl Default for ServerStats {
    fn default() -> ServerStats {
        ServerStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_report_bucket_upper_bounds() {
        let stats = ServerStats::new();
        // 90 fast requests (~1us) and 10 slow (~1000us -> bucket 10,
        // upper bound 1024us).
        for _ in 0..90 {
            stats.record_completed(1);
        }
        for _ in 0..10 {
            stats.record_completed(1000);
        }
        let latency: [u64; LATENCY_BUCKETS] =
            std::array::from_fn(|i| stats.latency_us[i].load(Ordering::Relaxed));
        assert_eq!(latency_percentile(&latency, 0.50), 2);
        assert_eq!(latency_percentile(&latency, 0.95), 1024);
        assert_eq!(latency_percentile(&latency, 0.99), 1024);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let latency: [u64; LATENCY_BUCKETS] = [0; LATENCY_BUCKETS];
        assert_eq!(latency_percentile(&latency, 0.99), 0);
    }

    /// One fixed counter state, pinned byte for byte in both renderings:
    /// every `record_*` call, registry hits, a miss and an eviction, a
    /// breaker trip, one close of each reason, shared-table counters and
    /// the seq gauges.
    #[test]
    fn stats_line_and_exposition_body_are_pinned() {
        use std::sync::Arc;
        use std::time::Duration;

        use charfree_core::ModelBuilder;
        use charfree_dd::UniqueTable as _;
        use charfree_engine::Kernel;
        use charfree_net::{CloseReason, NetCounters};
        use charfree_netlist::{benchmarks, Library};

        use crate::registry::{Resident, ShardedRegistry};
        use crate::supervisor::{BreakerConfig, CircuitBreaker};

        let stats = ServerStats::new();
        for cmd in [
            Command::Load,
            Command::Eval,
            Command::Eval,
            Command::TraceDirect,
            Command::SeqLoad,
            Command::SeqEval,
            Command::Stats,
        ] {
            stats.record_accepted(Some(cmd));
        }
        for latency_us in [3, 40, 40, 900, 70_000] {
            stats.record_completed(latency_us);
        }
        stats.record_error();
        stats.record_shed();
        stats.record_shed();
        stats.record_worker_panic();
        stats.record_breaker_denial();
        stats.record_idle_timeout();
        stats.record_batch(3, 64);
        stats.record_batch(1, 1);
        stats.record_batch(2, 17);

        let library = Library::test_library();
        let kernel = |netlist| {
            Resident::Comb(Arc::new(Kernel::compile(
                &ModelBuilder::new(&netlist).build(),
            )))
        };
        // One shard with a one-byte budget: the second insert evicts
        // the first.
        let registry = ShardedRegistry::new(1, 1);
        registry.insert(
            "parity",
            kernel(benchmarks::by_name("parity", &library).expect("Table 1 name")),
        );
        assert!(registry.get("parity").is_some());
        assert!(registry.get("absent").is_none());
        registry.insert(
            "decod",
            kernel(benchmarks::by_name("decod", &library).expect("Table 1 name")),
        );
        assert!(registry.get("decod").is_some());

        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            open_base: Duration::from_secs(3600),
            open_cap: Duration::from_secs(3600),
        });
        breaker.record_failure("broken");

        let net = NetCounters::default();
        net.accepted.fetch_add(9, Ordering::Relaxed);
        net.bytes_in.fetch_add(1234, Ordering::Relaxed);
        net.bytes_out.fetch_add(5678, Ordering::Relaxed);
        for reason in CloseReason::all() {
            net.record_close(reason);
        }

        let table = charfree_dd::SharedTable::new();
        table.note_apply_hit(17);
        table.note_apply_hit(5);
        table.note_apply_miss();
        table.note_delta_rebuild();

        let snapshot = stats.snapshot(&registry, &breaker, &net, &table, (1, 2));
        assert_eq!(
            snapshot.to_json().to_line(),
            concat!(
                r#"{"accepted":7,"completed":5,"errors":1,"shed":2,"#,
                r#""per_command":{"load":1,"eval":2,"trace":0,"tracep":1,"expected":0,"#,
                r#""seqload":1,"seqeval":1,"stats":1,"metrics":0,"shutdown":0},"#,
                r#""latency_us":{"p50":64,"p95":131072,"p99":131072},"#,
                r#""batches":3,"batched_requests":6,"#,
                r#""batch_fill":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,"#,
                r#"0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1],"#,
                r#""registry":{"entries":1,"bytes":1076,"hits":2,"misses":1,"evictions":1,"shards":1},"#,
                r#""resilience":{"worker_panics":1,"breaker_trips":1,"breaker_denials":1,"#,
                r#""open_circuits":1,"idle_timeouts":1},"#,
                r#""seq":{"designs":1,"macros_resident":2,"loads":1,"evals":1},"#,
                r#""shared_table":{"entries":0,"table_hits":2,"table_misses":1,"#,
                r#""delta_rebuilds":1,"apply_steps_saved":22},"#,
                r#""net":{"connections":9,"bytes_in":1234,"bytes_out":5678,"closed_eof":1,"#,
                r#""closed_idle":1,"closed_drain":1,"closed_overflow":1,"closed_protocol":1,"#,
                r#""closed_write_stall":1,"closed_app":1}}"#,
            )
        );
        assert_eq!(
            crate::metrics::render(&snapshot),
            concat!(
                "# charfree power-estimation server metrics\n",
                "charfree_accepted_total 7\n",
                "charfree_completed_total 5\n",
                "charfree_errors_total 1\n",
                "charfree_shed_total 2\n",
                "charfree_requests_total{cmd=\"load\"} 1\n",
                "charfree_requests_total{cmd=\"eval\"} 2\n",
                "charfree_requests_total{cmd=\"trace\"} 0\n",
                "charfree_requests_total{cmd=\"tracep\"} 1\n",
                "charfree_requests_total{cmd=\"expected\"} 0\n",
                "charfree_requests_total{cmd=\"seqload\"} 1\n",
                "charfree_requests_total{cmd=\"seqeval\"} 1\n",
                "charfree_requests_total{cmd=\"stats\"} 1\n",
                "charfree_requests_total{cmd=\"metrics\"} 0\n",
                "charfree_requests_total{cmd=\"shutdown\"} 0\n",
                "charfree_latency_us{quantile=\"p50\"} 64\n",
                "charfree_latency_us{quantile=\"p95\"} 131072\n",
                "charfree_latency_us{quantile=\"p99\"} 131072\n",
                "charfree_batches_total 3\n",
                "charfree_batched_requests_total 6\n",
                "charfree_batch_fill{lanes=\"1\"} 1\n",
                "charfree_batch_fill{lanes=\"17\"} 1\n",
                "charfree_batch_fill{lanes=\"64\"} 1\n",
                "charfree_registry_entries 1\n",
                "charfree_registry_bytes 1076\n",
                "charfree_registry_hits_total 2\n",
                "charfree_registry_misses_total 1\n",
                "charfree_registry_evictions_total 1\n",
                "charfree_registry_shards 1\n",
                "charfree_seq_designs 1\n",
                "charfree_seq_macros_resident 2\n",
                "charfree_seq_loads_total 1\n",
                "charfree_seq_evals_total 1\n",
                "charfree_table_entries 0\n",
                "charfree_table_hits_total 2\n",
                "charfree_table_misses_total 1\n",
                "charfree_delta_rebuilds_total 1\n",
                "charfree_apply_steps_saved_total 22\n",
                "charfree_worker_panics_total 1\n",
                "charfree_breaker_trips_total 1\n",
                "charfree_breaker_denials_total 1\n",
                "charfree_breaker_open_circuits 1\n",
                "charfree_idle_timeouts_total 1\n",
                "charfree_net_connections_total 9\n",
                "charfree_net_bytes_in_total 1234\n",
                "charfree_net_bytes_out_total 5678\n",
                "charfree_net_closed_total{reason=\"eof\"} 1\n",
                "charfree_net_closed_total{reason=\"idle\"} 1\n",
                "charfree_net_closed_total{reason=\"drain\"} 1\n",
                "charfree_net_closed_total{reason=\"overflow\"} 1\n",
                "charfree_net_closed_total{reason=\"protocol\"} 1\n",
                "charfree_net_closed_total{reason=\"write-stall\"} 1\n",
                "charfree_net_closed_total{reason=\"app\"} 1\n",
            )
        );
    }

    #[test]
    fn batch_fill_lands_in_linear_lane_buckets() {
        let stats = ServerStats::new();
        stats.record_batch(3, 64);
        stats.record_batch(1, 1);
        stats.record_batch(2, 200); // clamped into the last bucket
        assert_eq!(stats.batch_fill[63].load(Ordering::Relaxed), 2);
        assert_eq!(stats.batch_fill[0].load(Ordering::Relaxed), 1);
        assert_eq!(stats.batches.load(Ordering::Relaxed), 3);
        assert_eq!(stats.batched_requests.load(Ordering::Relaxed), 6);
    }
}
