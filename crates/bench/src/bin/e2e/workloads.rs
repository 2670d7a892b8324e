//! The four workloads. Each one sets up its starting service repeatedly
//! (`setup_s` is the median), runs its measured phase for `--seconds`,
//! checks the answers it got against the exact oracle, and returns its
//! end-to-end numbers together with what a traced run reduces into the
//! per-layer split.

use crate::inputs::{config, exact_answer, live_query, Inputs, Rng, BATCH, POOL};
use crate::schedule::{fixed_rate, run_schedule, WallClock};
use crate::stats::{median, ms, percentile, us};
use crate::trace::{Span, Tracer};
use higgs::{HiggsConfig, HiggsService, JournalMode, ServiceClient, Store, StoreOptions};
use higgs_common::{Query, StreamEdge, TemporalGraphSummary, Weight};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Edges per commit (`insert_all` calls followed by one `flush`) in the
/// closed-loop ingest workloads.
pub const COMMIT: usize = 8 * BATCH;
/// Pool queries checked after each closed-loop build.
const SAMPLE: usize = 200;
/// Set-up builds, at least and at most; `setup_s` is their median.
const SETUPS: Range<usize> = 3..16;
/// Share of `--seconds` over which set-up builds are repeated: set-up time
/// moves with the host as much as the phase does, so a longer run
/// characterises it with more builds.
const SETUP_SHARE: f64 = 0.25;
/// `dashboard`: the fixed offered query rate.
const DASHBOARD_QPS: f64 = 20_000.0;
/// `live`: read-your-writes queries per second beside the ingest.
const LIVE_QPS: f64 = 500.0;
/// Recorded queries kept for the per-layer replay.
const RECORD_CAP: usize = 20_000;

pub struct Ctx<'a> {
    pub inputs: &'a mut Inputs,
    pub seconds: f64,
    pub trace: bool,
    pub epoch: Instant,
    pub scratch: PathBuf,
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Edges passed to `insert_all`.
    pub edges: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }

    pub fn check(&mut self, what: &str, got: Result<Weight, impl std::fmt::Debug>, want: Weight) {
        match got {
            Ok(got) if got == want => self.ok(),
            other => self.fail(format!("{what}: got {other:?}, want {want}")),
        }
    }
}

/// The end-to-end numbers of one run; see `END_TO_END` in `main.rs`.
pub struct E2e {
    pub throughput: f64,
    pub p50_ms: f64,
    pub setup_s: f64,
    pub bytes_per_edge: f64,
    /// Reported beside the gated metrics, not among them (see README).
    pub p99_ms: f64,
    /// Latency samples behind `p50_ms` and `p99_ms`.
    pub samples: usize,
}

/// Everything one workload run produces.
pub struct Run {
    pub e2e: E2e,
    pub tally: Tally,
    pub spans: Vec<Span>,
    /// Open-loop generator lateness (empty for closed loops), µs.
    pub late_us: Vec<f64>,
    /// Operations issued in the measured phase.
    pub ops: u64,
    /// Latency of every query the run timed (phase, or checks), µs.
    pub served_us: Vec<f64>,
    pub plans_per_query: f64,
    /// Queries the run submitted, each with the number of stream edges
    /// enqueued before it.
    pub recorded: Vec<(Query, usize)>,
    /// One set-up build: wall time and edges.
    pub build: (Duration, usize),
    /// The final service, kept only by traced runs for the replay.
    pub service: Option<HiggsService>,
}

/// Feeds `edges` through `client`, one `insert_all` per batch.
fn send(client: &ServiceClient, edges: &[StreamEdge], tr: &mut Tracer, tally: &mut Tally) {
    for (i, batch) in edges.chunks(BATCH).enumerate() {
        tally.edges += batch.len() as u64;
        match tr.span("client.insert_all", i as u64, |_| client.insert_all(batch)) {
            Ok(()) => tally.ok(),
            Err(e) => tally.fail(format!("insert_all: {e}")),
        }
    }
}

fn flush(client: &ServiceClient, tr: &mut Tracer, tally: &mut Tally) {
    tr.span("client.flush", 0, |_| client.flush());
    tally.ok();
}

/// Brings a service up with `open`, then feeds it `edges`: `insert_all`
/// per batch, `flush`. Returns it with the wall time of all three.
fn build(
    open: impl FnOnce() -> Result<HiggsService, String>,
    edges: &[StreamEdge],
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(HiggsService, Duration), String> {
    let start = Instant::now();
    let service = tr.span("service.new", 0, |_| open())?;
    let client = service.client();
    send(&client, edges, tr, tally);
    flush(&client, tr, tally);
    Ok((service, start.elapsed()))
}

/// Builds the starting service (`open(k)` for the `k`-th build) again and
/// again, at least `SETUPS.start` times and until [`SETUP_SHARE`] of
/// `seconds` has passed, and keeps the last. Returns it with the median
/// build time and the last build's wall time.
fn setup(
    seconds: f64,
    mut open: impl FnMut(usize) -> Result<HiggsService, String>,
    edges: &[StreamEdge],
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(HiggsService, f64, Duration), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < SETUPS.start
        || (times.len() < SETUPS.end && start.elapsed().as_secs_f64() < seconds * SETUP_SHARE)
    {
        drop(kept.take());
        let k = times.len();
        let (service, wall) =
            tr.span("setup.build", 0, |tr| build(|| open(k), edges, tr, tally))?;
        times.push(wall.as_secs_f64());
        kept = Some((service, wall));
    }
    let (service, wall) = kept.ok_or("no set-up build ran")?;
    Ok((service, median(&times).unwrap_or(0.0), wall))
}

/// Submits `queries` (pool indices) one at a time, waits for each, and
/// checks it against the exact answer. Returns each query's latency in µs,
/// from its submission to its answer, with nothing else in flight.
fn check_pool(
    client: &ServiceClient,
    inputs: &Inputs,
    queries: &[usize],
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Vec<f64> {
    queries
        .iter()
        .map(|&i| {
            let q = inputs.pool[i].clone();
            let start = Instant::now();
            let ticket = tr.span("client.submit", i as u64, |_| client.submit(q));
            tally.check("pool query", ticket.wait(), inputs.expected[i]);
            us(start.elapsed())
        })
        .collect()
}

fn sample() -> Vec<usize> {
    (0..SAMPLE).map(|i| i * POOL / SAMPLE).collect()
}

fn recorded_pool(inputs: &Inputs, indices: &[usize]) -> Vec<(Query, usize)> {
    let n = inputs.edges.len();
    indices
        .iter()
        .take(RECORD_CAP)
        .map(|&i| (inputs.pool[i].clone(), n))
        .collect()
}

fn space_per_edge(service: &HiggsService, edges: usize) -> f64 {
    service.summary().space_bytes() as f64 / edges as f64
}

/// Commits `edges` closed-loop: [`COMMIT`] edges of `insert_all` calls,
/// then `flush`; each commit's latency (ms) is appended to `lat`.
fn commit_all(
    client: &ServiceClient,
    edges: &[StreamEdge],
    tr: &mut Tracer,
    tally: &mut Tally,
    lat: &mut Vec<f64>,
) {
    for chunk in edges.chunks(COMMIT) {
        let start = Instant::now();
        send(client, chunk, tr, tally);
        flush(client, tr, tally);
        lat.push(ms(start.elapsed()));
    }
}

/// The median and the p99 of a phase's latencies.
fn latency_pair(lat_ms: &[f64]) -> (f64, f64) {
    (
        median(lat_ms).unwrap_or(0.0),
        percentile(lat_ms, 99.0).unwrap_or(0.0),
    )
}

/// `ingest`: fresh services fed the whole stream closed-loop, commit by
/// commit, until `--seconds` have passed. Throughput is the median over
/// repetitions of edges ÷ (construction through the last flush).
pub fn ingest(ctx: &mut Ctx) -> Result<Run, String> {
    let config = config()?;
    let mut tr = Tracer::new(ctx.trace, ctx.epoch, 0);
    let mut tally = Tally::default();
    let inputs = &*ctx.inputs;
    let edges = &inputs.edges;
    let (warm, setup_s, build_wall) = setup(
        ctx.seconds,
        |_| Ok(HiggsService::new(config)),
        edges,
        &mut tr,
        &mut tally,
    )?;
    check_pool(&warm.client(), inputs, &sample(), &mut tr, &mut tally);
    drop(warm);
    let mut served = Vec::new();

    let start = Instant::now();
    let (mut rates, mut lat) = (Vec::new(), Vec::new());
    let mut last: Option<HiggsService> = None;
    let mut ops = 0;
    while last.is_none() || start.elapsed().as_secs_f64() < ctx.seconds {
        drop(last.take());
        let before = tally.attempted;
        let rep = Instant::now();
        let service = tr.span("service.new", 0, |_| HiggsService::new(config));
        let client = service.client();
        commit_all(&client, edges, &mut tr, &mut tally, &mut lat);
        rates.push(edges.len() as f64 / rep.elapsed().as_secs_f64());
        ops += tally.attempted - before;
        served = check_pool(&client, inputs, &sample(), &mut tr, &mut tally);
        last = Some(service);
    }
    let last = last.expect("at least one repetition");
    let (p50_ms, p99_ms) = latency_pair(&lat);
    let bytes_per_edge = space_per_edge(&last, edges.len());
    // The last service answered only the sample check.
    let plans_per_query = last.plans_built() as f64 / SAMPLE as f64;
    Ok(Run {
        e2e: E2e {
            throughput: median(&rates).unwrap_or(0.0),
            p50_ms,
            p99_ms,
            samples: lat.len(),
            setup_s,
            bytes_per_edge,
        },
        tally,
        spans: tr.into_spans(),
        late_us: Vec::new(),
        ops,
        served_us: served,
        plans_per_query,
        recorded: recorded_pool(inputs, &sample()),
        build: (build_wall, edges.len()),
        service: ctx.trace.then_some(last),
    })
}

/// Total size of the regular files directly in `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

pub fn remove_dir(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Opens (creating or recovering) the durable elastic store in `dir`,
/// served through `HiggsService::wrap`.
fn open_durable(config: HiggsConfig, dir: &Path) -> Result<HiggsService, String> {
    let store = Store::open(StoreOptions::durable(config, dir).elastic(true))
        .map_err(|e| format!("Store::open {}: {e}", dir.display()))?;
    HiggsService::wrap(store, &config).map_err(|e| format!("wrap: {e}"))
}

/// `durable`: the `ingest` stream through a durable, elastic store with
/// buffered journaling (no fsync per append). Each repetition opens a
/// fresh directory, commits half the stream, snapshots, commits the rest,
/// drops the service and reopens it. Throughput is edges ÷ the whole
/// lifecycle; the state footprint is the directory's size after the drop.
/// Set-up is the durable start-up: the store opened in a fresh directory,
/// then the whole stream journaled into it.
pub fn durable(ctx: &mut Ctx) -> Result<Run, String> {
    let config = HiggsConfig {
        journal_mode: JournalMode::Buffered,
        ..config()?
    };
    let mut tr = Tracer::new(ctx.trace, ctx.epoch, 0);
    let mut tally = Tally::default();
    let inputs = &*ctx.inputs;
    let edges = &inputs.edges;
    let half = edges.len() / 2;
    let setup_dir = ctx.scratch.join("setup");
    let (warm, setup_s, build_wall) = setup(
        ctx.seconds,
        |k| open_durable(config, &setup_dir.join(k.to_string())),
        edges,
        &mut tr,
        &mut tally,
    )?;
    check_pool(&warm.client(), inputs, &sample(), &mut tr, &mut tally);
    drop(warm);
    remove_dir(&setup_dir)?;
    let mut served: Vec<f64>;

    let start = Instant::now();
    let (mut rates, mut lat, mut disk) = (Vec::new(), Vec::new(), Vec::new());
    let mut ops = 0;
    let mut rep = 0;
    let kept = loop {
        let dir = ctx.scratch.join(format!("durable-{rep}"));
        rep += 1;
        fresh_dir(&dir)?;
        let before = tally.attempted;
        let t0 = Instant::now();
        let service = tr.span("store.open", 0, |_| open_durable(config, &dir))?;
        let client = service.client();
        commit_all(&client, &edges[..half], &mut tr, &mut tally, &mut lat);
        tr.span("snapshot.write", 0, |_| {
            service.summary().snapshot_to_dir(&dir)
        })
        .map_err(|e| format!("snapshot_to_dir: {e}"))?;
        tally.ok();
        commit_all(&client, &edges[half..], &mut tr, &mut tally, &mut lat);
        let lived = t0.elapsed();
        // Answers before the drop, off the clock.
        let answers: Vec<_> = sample()
            .iter()
            .map(|&i| client.query(&inputs.pool[i]))
            .collect();
        let t1 = Instant::now();
        tr.span("service.drop", 0, |_| {
            drop(client);
            drop(service);
        });
        let dropped = t1.elapsed();
        disk.push(dir_bytes(&dir)? as f64 / edges.len() as f64);
        let t2 = Instant::now();
        let service = tr.span("store.reopen", 0, |_| open_durable(config, &dir))?;
        let reopened = t2.elapsed();
        tally.ok();
        ops += tally.attempted - before;
        rates.push(edges.len() as f64 / (lived + dropped + reopened).as_secs_f64());
        let client = service.client();
        for (&i, before) in sample().iter().zip(answers) {
            let after = client.query(&inputs.pool[i]);
            if after != before {
                tally.fail(format!(
                    "reopen changed pool query {i}: {before:?} -> {after:?}"
                ));
            }
        }
        served = check_pool(&client, inputs, &sample(), &mut tr, &mut tally);
        drop(client);
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break service;
        }
        drop(service);
        remove_dir(&dir)?;
    };
    let (p50_ms, p99_ms) = latency_pair(&lat);
    // The reopened service answered the sample twice.
    let plans_per_query = kept.plans_built() as f64 / (2 * SAMPLE) as f64;
    Ok(Run {
        e2e: E2e {
            throughput: median(&rates).unwrap_or(0.0),
            p50_ms,
            p99_ms,
            samples: lat.len(),
            setup_s,
            bytes_per_edge: median(&disk).unwrap_or(0.0),
        },
        tally,
        spans: tr.into_spans(),
        late_us: Vec::new(),
        ops,
        served_us: served,
        plans_per_query,
        recorded: recorded_pool(inputs, &sample()),
        build: (build_wall, edges.len()),
        service: ctx.trace.then_some(kept),
    })
}

/// What the generator does at one scheduled instant.
enum Op {
    /// Submit a query; `tag` identifies it for the answer check.
    Query(Query, usize),
    /// Enqueue these stream edges with one `insert_all`.
    Ingest(Range<usize>),
}

/// A submitted query on its way to the collector.
struct Sent {
    req: u64,
    span: u64,
    due: Instant,
    tag: usize,
    ticket: higgs::Ticket,
}

/// A completed query, timed from its due time.
struct Done {
    tag: usize,
    result: Result<Weight, higgs::ServiceError>,
    latency: Duration,
}

struct Phase {
    done: Vec<Done>,
    late_us: Vec<f64>,
    start: Instant,
}

/// Runs one open-loop phase on two load threads: this thread generates
/// the schedule `due`, a collector thread waits for each ticket in
/// submission order (the service answers a priority class in that order)
/// and stamps its completion.
fn open_loop(
    client: &ServiceClient,
    edges: &[StreamEdge],
    due: &[Duration],
    tr: &mut Tracer,
    tally: &mut Tally,
    mut next: impl FnMut(usize) -> Op,
) -> Result<Phase, String> {
    let (tx, rx) = mpsc::channel::<Sent>();
    let (trace, epoch) = (tr.enabled(), tr.epoch());
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut ctr = Tracer::new(trace, epoch, 1);
            let mut done = Vec::new();
            for sent in rx {
                let result = sent.ticket.wait();
                let at = Instant::now();
                ctr.record("request", sent.span, None, sent.req, sent.due, at);
                done.push(Done {
                    tag: sent.tag,
                    result,
                    latency: at.saturating_duration_since(sent.due),
                });
            }
            (done, ctr.into_spans())
        });
        let start = Instant::now();
        let mut clock = WallClock::new(start);
        let late = run_schedule(&mut clock, due, |_, i| match next(i) {
            Op::Query(query, tag) => {
                let span = tr.alloc_id();
                let req = i as u64;
                let ticket =
                    tr.span_under(Some(span), "client.submit", req, |_| client.submit(query));
                // The collector lives until this sender drops.
                let _ = tx.send(Sent {
                    req,
                    span,
                    due: start + due[i],
                    tag,
                    ticket,
                });
            }
            Op::Ingest(range) => send(client, &edges[range], tr, tally),
        });
        drop(tx);
        let (done, spans) = collector
            .join()
            .map_err(|_| "collector thread panicked".to_string())?;
        tr.extend(spans);
        Ok(Phase {
            done,
            late_us: late.iter().map(|d| us(*d)).collect(),
            start,
        })
    })
}

/// `dashboard`: read-only, open loop, against a service pre-built from
/// the whole stream. Every query is an individual default-options `submit`
/// from the shuffled pool, offered at a fixed rate for `--seconds`.
/// Throughput is the completed queries ÷ the time until the last one
/// completed, so a backlog shows.
pub fn dashboard(ctx: &mut Ctx) -> Result<Run, String> {
    let config = config()?;
    let mut tr = Tracer::new(ctx.trace, ctx.epoch, 0);
    let mut tally = Tally::default();
    let inputs = &*ctx.inputs;
    let edges = &inputs.edges;
    let (service, setup_s, build_wall) = setup(
        ctx.seconds,
        |_| Ok(HiggsService::new(config)),
        edges,
        &mut tr,
        &mut tally,
    )?;
    let client = service.client();
    // The whole pool must be exact before anything is timed.
    let everything: Vec<usize> = (0..POOL).collect();
    check_pool(&client, inputs, &everything, &mut tr, &mut tally);
    let plans_before = service.plans_built();

    let due = fixed_rate(DASHBOARD_QPS, (DASHBOARD_QPS * ctx.seconds).ceil() as usize);
    let phase = open_loop(&client, edges, &due, &mut tr, &mut tally, |i| {
        Op::Query(inputs.pool[i % POOL].clone(), i % POOL)
    })?;
    let wall = phase.start.elapsed();
    let mut lat_ms = Vec::with_capacity(phase.done.len());
    for d in &phase.done {
        tally.check("dashboard query", d.result, inputs.expected[d.tag]);
        lat_ms.push(ms(d.latency));
    }
    let completed = phase.done.len();
    let (p50_ms, p99_ms) = latency_pair(&lat_ms);
    let plans_per_query = (service.plans_built() - plans_before) as f64 / completed.max(1) as f64;
    let recorded: Vec<usize> = (0..completed.min(RECORD_CAP)).map(|i| i % POOL).collect();
    Ok(Run {
        e2e: E2e {
            throughput: completed as f64 / wall.as_secs_f64(),
            p50_ms,
            p99_ms,
            samples: lat_ms.len(),
            setup_s,
            bytes_per_edge: space_per_edge(&service, edges.len()),
        },
        tally,
        spans: tr.into_spans(),
        late_us: phase.late_us,
        ops: due.len() as u64,
        served_us: lat_ms.iter().map(|v| v * 1e3).collect(),
        plans_per_query,
        recorded: recorded_pool(inputs, &recorded),
        build: (build_wall, edges.len()),
        service: ctx.trace.then_some(service),
    })
}

/// `live`: writes beside reads, open loop, from a service pre-built from
/// the first half of the stream. The second half arrives in `insert_all`
/// batches spread evenly over `--seconds`; beside it, read-your-writes
/// edge and vertex queries over the trailing window arrive at a fixed
/// rate. Throughput is the edges delivered ÷ the phase including the final
/// flush; the latency percentiles are the queries'.
pub fn live(ctx: &mut Ctx) -> Result<Run, String> {
    let config = config()?;
    let mut tr = Tracer::new(ctx.trace, ctx.epoch, 0);
    let mut tally = Tally::default();
    let n = ctx.inputs.edges.len();
    let half = n / 2 / BATCH * BATCH;
    let (service, setup_s, build_wall) = setup(
        ctx.seconds,
        |_| Ok(HiggsService::new(config)),
        &ctx.inputs.edges[..half],
        &mut tr,
        &mut tally,
    )?;
    let client = service.client();
    let plans_before = service.plans_built();

    // One schedule: ingest batches spread over the phase, queries at a
    // fixed rate; `None` marks a batch, `Some(k)` the k-th query.
    let batches = (n - half).div_ceil(BATCH);
    let queries = (LIVE_QPS * ctx.seconds).ceil() as usize;
    let mut events: Vec<(Duration, Option<usize>)> = (0..batches)
        .map(|b| {
            (
                Duration::from_secs_f64(b as f64 * ctx.seconds / batches as f64),
                None,
            )
        })
        .chain(
            fixed_rate(LIVE_QPS, queries)
                .into_iter()
                .enumerate()
                .map(|(k, t)| (t, Some(k))),
        )
        .collect();
    events.sort_by_key(|&(t, kind)| (t, kind.is_some()));
    let due: Vec<Duration> = events.iter().map(|&(t, _)| t).collect();

    let inputs = &*ctx.inputs;
    let mut rng = Rng::new(inputs.seed ^ 0x11FE);
    let mut prefix = half;
    let mut recorded: Vec<(Query, usize)> = Vec::with_capacity(queries);
    let phase = open_loop(
        &client,
        &inputs.edges,
        &due,
        &mut tr,
        &mut tally,
        |i| match events[i].1 {
            None => {
                let range = prefix..(prefix + BATCH).min(n);
                prefix = range.end;
                Op::Ingest(range)
            }
            Some(k) => {
                let q = live_query(&inputs.edges, prefix, inputs.span, k as u64, &mut rng);
                recorded.push((q.clone(), prefix));
                Op::Query(q, recorded.len() - 1)
            }
        },
    )?;
    flush(&client, &mut tr, &mut tally);
    let wall = phase.start.elapsed();

    let exact = &mut ctx.inputs.exact;
    let mut lat_ms = Vec::with_capacity(phase.done.len());
    for d in &phase.done {
        let want = exact_answer(exact, &recorded[d.tag].0);
        tally.check("live query", d.result, want);
        lat_ms.push(ms(d.latency));
    }
    let (p50_ms, p99_ms) = latency_pair(&lat_ms);
    let plans_per_query =
        (service.plans_built() - plans_before) as f64 / phase.done.len().max(1) as f64;
    recorded.truncate(RECORD_CAP);
    Ok(Run {
        e2e: E2e {
            throughput: (n - half) as f64 / wall.as_secs_f64(),
            p50_ms,
            p99_ms,
            samples: lat_ms.len(),
            setup_s,
            bytes_per_edge: space_per_edge(&service, n),
        },
        tally,
        spans: tr.into_spans(),
        late_us: phase.late_us,
        ops: due.len() as u64,
        served_us: lat_ms.iter().map(|v| v * 1e3).collect(),
        plans_per_query,
        recorded,
        build: (build_wall, half),
        service: ctx.trace.then_some(service),
    })
}
