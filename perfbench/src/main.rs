//! Served-path benchmark for `delpropd`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload forest-serve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run spawns the daemon in-process, drives it over loopback TCP
//! from at most two client connections, checks every answer after the
//! timed phase, and prints one JSON line last: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the replay with
//! `--trace 1`. `README.md` describes the workloads and the
//! metric-to-layer map.

mod check;
mod replay;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use delprop_core::{Engine, Problem};
use delprop_query::ViewTupleId;
use delprop_server::{Client, Daemon, InstanceSpec, Request, Response, ServerConfig, SolveRequest};
use delprop_workload::rng::SplitMix64;

/// Extra ΔV tuples per forest-serve solve, and the deletions in each
/// write batch.
const BATCH: usize = 8;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Untimed solves at the end of each set-up.
const WARMUP: usize = 16;
/// Period of delta-serve's open-loop writer (100 writes/s).
const WRITE_PERIOD: Duration = Duration::from_millis(10);
/// Share of a forest-serve run spent in the solve phase; a closed-loop
/// write phase takes the rest. Closed, because between sparse writes the
/// idle daemon thread's wake-up on a virtual CPU adds noise to each one.
const SOLVE_SHARE: f64 = 0.8;
/// The writer sleeps until this long before a write is due, then spins,
/// so timer wake-up jitter does not land in write latency.
const SPIN: Duration = Duration::from_micros(300);
/// Each phase is cut into this many equal time windows; a reported
/// percentile or rate is the mean of its per-window values without the
/// highest and the lowest. The host's speed shifts between states that
/// last seconds, which moves a percentile over the pooled samples in
/// jumps; the mean over windows moves with the share of time spent in
/// each state, and dropping the extremes discards a one-window burst.
const WINDOWS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ForestServe,
    DeltaServe,
}

/// The instance shape a workload must have; drift in a generator fails
/// the run instead of silently changing the workload.
#[derive(Debug, PartialEq, Eq)]
pub struct Shape {
    norm_v: usize,
    norm_delta: usize,
    forest_case: bool,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "forest-serve" => Some(Workload::ForestServe),
            "delta-serve" => Some(Workload::DeltaServe),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ForestServe => "forest-serve",
            Workload::DeltaServe => "delta-serve",
        }
    }

    /// The published instance. It is fixed per workload; `--seed` drives
    /// the request streams.
    pub fn spec(self) -> InstanceSpec {
        InstanceSpec::Forest {
            levels: 4,
            window: 2,
            chains: match self {
                Workload::ForestServe => 1024,
                Workload::DeltaServe => 4096,
            },
            delete_fraction: 0.2,
            weighted: false,
            seed: 1,
        }
    }

    fn expected_shape(self) -> Shape {
        let (norm_v, norm_delta, forest_case) = match self {
            Workload::ForestServe => (1792, 382, true),
            Workload::DeltaServe => (7168, 1501, true),
        };
        Shape {
            norm_v,
            norm_delta,
            forest_case,
        }
    }

    /// forest-serve solves with extra ΔV under the daemon's default
    /// racing portfolio; delta-serve reads the published epoch through
    /// the sequential chain, so reader and writer fit on two cores.
    fn solve_request(self, draws: &mut Draws) -> SolveRequest {
        match self {
            Workload::DeltaServe => SolveRequest {
                racing: Some(false),
                ..SolveRequest::default()
            },
            Workload::ForestServe => SolveRequest {
                deletions: draws.batch(),
                ..SolveRequest::default()
            },
        }
    }
}

pub fn shape_of(problem: &Problem) -> Shape {
    Shape {
        norm_v: problem.norm_v(),
        norm_delta: problem.norm_delta(),
        forest_case: problem.compiled().forest_case(),
    }
}

/// View tuples as `(view, index)` pairs, as they travel on the wire.
pub type Pairs = Vec<(usize, usize)>;

pub fn ids(pairs: &[(usize, usize)]) -> Vec<ViewTupleId> {
    pairs
        .iter()
        .map(|&(view, index)| ViewTupleId::new(view, index))
        .collect()
}

/// Seeded draws of `BATCH` distinct view tuples that the published
/// instance preserves.
pub struct Draws {
    rng: SplitMix64,
    pool: Pairs,
}

impl Draws {
    fn new(problem: &Problem, seed: u64) -> Draws {
        Draws {
            rng: SplitMix64::seed_from_u64(seed),
            pool: problem
                .preserved()
                .map(|(id, _)| (id.view, id.index))
                .collect(),
        }
    }

    fn batch(&mut self) -> Pairs {
        let mut out = Vec::with_capacity(BATCH);
        while out.len() < BATCH {
            let pick = self.pool[self.rng.below(self.pool.len())];
            if !out.contains(&pick) {
                out.push(pick);
            }
        }
        out
    }
}

/// The writer's batches: step `2k` deletes a fresh batch, step `2k + 1`
/// restores it, so ΔV alternates between the published instance and
/// instance + `BATCH`.
pub struct Writes {
    draws: Draws,
    pending: Option<Pairs>,
}

impl Writes {
    fn next(&mut self) -> (Pairs, Pairs) {
        match self.pending.take() {
            Some(batch) => (Vec::new(), batch),
            None => {
                let batch = self.draws.batch();
                self.pending = Some(batch.clone());
                (batch, Vec::new())
            }
        }
    }
}

pub struct SolveRec {
    pub req: SolveRequest,
    /// When the answer arrived.
    pub done: Instant,
    pub latency_us: f64,
    pub resp: Response,
}

pub struct WriteRec {
    pub due: Instant,
    pub deletes: Pairs,
    pub restores: Pairs,
    /// How late the writer sent this write after its due time.
    pub lag_us: f64,
    /// From due time to response.
    pub latency_us: f64,
    pub resp: Response,
}

/// What the timed phase recorded.
pub struct Served {
    pub solves: Vec<SolveRec>,
    pub writes: Vec<WriteRec>,
    /// Start and end of the solve phase and of the write phase.
    pub solve_phase: (Instant, Instant),
    pub write_phase: (Instant, Instant),
    pub stats: BTreeMap<String, u64>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Spawn the daemon on the workload's instance, connect, and send the
/// fixed warm-up. Returns the daemon, its client and the set-up seconds.
fn set_up(
    w: Workload,
    spec: &InstanceSpec,
    base: &Problem,
    warm_seed: u64,
) -> Result<(Daemon, Client, f64), String> {
    let start = Instant::now();
    let daemon = Daemon::spawn(ServerConfig {
        initial: spec.clone(),
        initial_label: w.name().to_string(),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("daemon spawn: {e}"))?;
    let addr = daemon.tcp_addr().ok_or("daemon has no TCP address")?;
    let mut client = Client::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?;
    let mut warm = Draws::new(base, warm_seed);
    for _ in 0..WARMUP {
        let req = Request::Solve(w.solve_request(&mut warm));
        match client.request(&req).map_err(|e| format!("warm-up: {e}"))? {
            Response::Ok(_) => {}
            other => return Err(format!("warm-up solve failed: {other:?}")),
        }
    }
    Ok((daemon, client, start.elapsed().as_secs_f64()))
}

fn closed_loop_solves(
    client: &mut Client,
    w: Workload,
    draws: &mut Draws,
    until: Instant,
) -> Result<Vec<SolveRec>, String> {
    let mut out = Vec::new();
    while Instant::now() < until {
        let req = w.solve_request(draws);
        let sent = Instant::now();
        let resp = client
            .request(&Request::Solve(req.clone()))
            .map_err(|e| format!("solve: {e}"))?;
        let done = Instant::now();
        out.push(SolveRec {
            req,
            done,
            latency_us: micros(done - sent),
            resp,
        });
    }
    Ok(out)
}

/// Send writes until `until`, timing each from its due time: one every
/// `period` from `start` (open loop), or back to back when `period` is
/// `None` (closed loop, each write due when the previous one answered).
fn write_loop(
    client: &mut Client,
    writes: &mut Writes,
    start: Instant,
    until: Instant,
    period: Option<Duration>,
) -> Result<Vec<WriteRec>, String> {
    let mut out = Vec::new();
    for k in 0u32.. {
        let due = period.map_or_else(Instant::now, |p| start + p * k);
        if due >= until {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
            std::thread::sleep(wait);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let (deletes, restores) = writes.next();
        let sent = Instant::now();
        let resp = client
            .request(&Request::PublishDelta {
                deletions: deletes.clone(),
                restores: restores.clone(),
            })
            .map_err(|e| format!("publish_delta: {e}"))?;
        out.push(WriteRec {
            due,
            deletes,
            restores,
            lag_us: micros(sent - due),
            latency_us: micros(due.elapsed()),
            resp,
        });
    }
    Ok(out)
}

/// Counters of the daemon's `stats` op (`name value` lines; histogram
/// lines contribute their `count=`).
pub fn stats(client: &mut Client) -> Result<BTreeMap<String, u64>, String> {
    let Response::Stats { metrics } = client
        .request(&Request::Stats)
        .map_err(|e| format!("stats: {e}"))?
    else {
        return Err("stats op answered with another status".to_string());
    };
    let mut out = BTreeMap::new();
    for line in metrics.lines() {
        let mut parts = line.split_whitespace();
        let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
            continue;
        };
        let value = value.strip_prefix("count=").unwrap_or(value);
        if let Ok(v) = value.parse::<u64>() {
            out.insert(name.to_string(), v);
        }
    }
    Ok(out)
}

/// The timed phase. forest-serve solves, then writes
/// back to back; delta-serve writes at a fixed rate beside reads on a
/// second connection.
fn serve(
    w: Workload,
    client: &mut Client,
    addr: std::net::SocketAddr,
    base: &Problem,
    seed: u64,
    seconds: f64,
) -> Result<Served, String> {
    let mut seeds = SplitMix64::seed_from_u64(seed);
    let mut draws = Draws::new(base, seeds.next_u64());
    let mut writes = Writes {
        draws: Draws::new(base, seeds.next_u64()),
        pending: None,
    };
    let before = stats(client)?;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let (solves, write_recs, solve_phase, write_phase) = if w == Workload::DeltaServe {
        let mut writer = Client::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?;
        let (solves, write_recs) = std::thread::scope(|s| {
            let period = Some(WRITE_PERIOD);
            let writer = s.spawn(move || write_loop(&mut writer, &mut writes, start, end, period));
            let solves = closed_loop_solves(client, w, &mut draws, end);
            let write_recs = writer.join().map_err(|_| "writer thread panicked")?;
            Ok::<_, String>((solves?, write_recs?))
        })?;
        let phase = (start, Instant::now());
        (solves, write_recs, phase, phase)
    } else {
        let solve_end = start + Duration::from_secs_f64(seconds * SOLVE_SHARE);
        let solves = closed_loop_solves(client, w, &mut draws, solve_end)?;
        let write_start = Instant::now();
        let write_recs = write_loop(client, &mut writes, write_start, end, None)?;
        (
            solves,
            write_recs,
            (start, write_start),
            (write_start, Instant::now()),
        )
    };
    let after = stats(client)?;
    let diff = after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect();
    Ok(Served {
        solves,
        writes: write_recs,
        solve_phase,
        write_phase,
        stats: diff,
    })
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The mean, over `WINDOWS` equal time windows of `phase` less the
/// highest and the lowest, of `stat` applied to each window's values and
/// length in seconds. Windows a slow request left empty are skipped by
/// the percentiles.
fn windowed(
    phase: (Instant, Instant),
    samples: &[(Instant, f64)],
    stat: impl Fn(&[f64], f64) -> Option<f64>,
) -> Result<f64, String> {
    let len = (phase.1 - phase.0).as_secs_f64();
    let mut windows = vec![Vec::new(); WINDOWS];
    for &(t, v) in samples {
        let k = ((t - phase.0).as_secs_f64() / len * WINDOWS as f64) as usize;
        windows[k.min(WINDOWS - 1)].push(v);
    }
    let mut per: Vec<f64> = windows
        .iter()
        .filter_map(|w| stat(w, len / WINDOWS as f64))
        .collect();
    per.sort_by(f64::total_cmp);
    let kept = match per.len() {
        0 => return Err("no samples to measure".to_string()),
        n @ 1..=2 => &per[..n],
        n => &per[1..n - 1],
    };
    Ok(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// A percentile of the values in one window, if it has any.
fn pct(q: f64) -> impl Fn(&[f64], f64) -> Option<f64> {
    move |v, _| (!v.is_empty()).then(|| percentile(v, q))
}

/// Windowed percentile `q` of answered-solve latency, µs.
pub fn solve_latency(served: &Served, q: f64) -> Result<f64, String> {
    let samples: Vec<(Instant, f64)> = served
        .solves
        .iter()
        .filter(|s| matches!(s.resp, Response::Ok(_)))
        .map(|s| (s.done, s.latency_us))
        .collect();
    windowed(served.solve_phase, &samples, pct(q))
}

fn end_to_end(served: &Served, setup_s: f64) -> Result<Vec<Metric>, String> {
    let costs: Vec<(Instant, f64)> = served
        .solves
        .iter()
        .filter_map(|s| match &s.resp {
            Response::Ok(ok) => Some((s.done, ok.cost)),
            _ => None,
        })
        .collect();
    let writes: Vec<(Instant, f64)> = served
        .writes
        .iter()
        .filter(|r| matches!(r.resp, Response::DeltaPublished { .. }))
        .map(|r| (r.due, r.latency_us))
        .collect();
    println!(
        "samples: {} solves, {} writes, in {WINDOWS} windows per phase",
        costs.len(),
        writes.len()
    );
    let rate = |v: &[f64], secs: f64| Some(v.len() as f64 / secs);
    let cost_mean = costs.iter().map(|c| c.1).sum::<f64>() / costs.len().max(1) as f64;
    Ok(vec![
        metric("setup_s", "s", setup_s),
        metric("solve.p50_us", "us", solve_latency(served, 0.5)?),
        metric("solve.p90_us", "us", solve_latency(served, 0.9)?),
        metric(
            "solve.per_s",
            "1/s",
            windowed(served.solve_phase, &costs, rate)?,
        ),
        metric(
            "write.p50_us",
            "us",
            windowed(served.write_phase, &writes, pct(0.5))?,
        ),
        metric(
            "write.p90_us",
            "us",
            windowed(served.write_phase, &writes, pct(0.9))?,
        ),
        metric("cost.mean", "tuples", cost_mean),
    ])
}

fn run(args: &Args) -> Result<(bool, usize, usize, Vec<Metric>), String> {
    let w = args.workload;
    let spec = w.spec();
    let base = spec.build().map_err(|e| format!("build: {e}"))?;
    let shape = shape_of(&base);
    println!(
        "{}: ‖V‖ = {}, ‖ΔV‖ = {} (+{} per request), forest case = {}",
        w.name(),
        shape.norm_v,
        shape.norm_delta,
        if w == Workload::DeltaServe { 0 } else { BATCH },
        shape.forest_case
    );
    let expected = w.expected_shape();
    if shape != expected {
        return Err(format!(
            "instance shape drifted: got {shape:?}, expected {expected:?}"
        ));
    }

    let warm_seed = SplitMix64::seed_from_u64(args.seed ^ 0xA5A5_5A5A).next_u64();
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_secs = Vec::with_capacity(setups);
    let mut live: Option<(Daemon, Client)> = None;
    for _ in 0..setups {
        // Stop the previous set-up's daemon before timing the next.
        drop(live.take());
        let (daemon, client, secs) = set_up(w, &spec, &base, warm_seed)?;
        setup_secs.push(secs);
        live = Some((daemon, client));
    }
    let (daemon, mut client) = live.ok_or("no set-up ran")?;
    let addr = daemon.tcp_addr().ok_or("daemon has no TCP address")?;
    let served = serve(w, &mut client, addr, &base, args.seed, args.seconds)?;
    drop(client);
    drop(daemon);

    let engine = Engine::new(base).map_err(|e| format!("engine: {e}"))?;
    let verdict = check::check(&engine, &served);
    verdict.print();
    let attempted = served.solves.len() + served.writes.len();

    let metrics = if args.trace {
        replay::per_layer(&spec, &engine, &served, args.seconds)?
    } else {
        end_to_end(&served, percentile(&setup_secs, 0.5))?
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} measured as {}", m.name, m.value));
    }
    Ok((verdict.correct(), attempted, verdict.failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            for m in &metrics {
                println!("  {:<28} {:>14.3} {}", m.name, m.value, m.unit);
            }
            let body: Vec<String> = metrics
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name, m.value, m.unit
                    )
                })
                .collect();
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
                body.join(", ")
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
