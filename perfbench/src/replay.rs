//! The traced per-layer replay.
//!
//! After the served phase, the recorded request stream is replayed in
//! epoch order through the public library call of each layer the daemon
//! runs for it, and the benchmark times each call itself: JSON codec,
//! admission gate, `Engine::with_delta`, the portfolio solve, engine
//! fork and apply for writes. Inside the portfolio call, per-member and
//! verification times come from the spans the library already emits
//! into a `RingBufferSink` attached through `Budget::with_sink`. The
//! daemon's own counters (retries, degradation, admission queueing)
//! come from diffing its `stats` op across the served phase.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use delprop_core::runtime::trace::{Kind, Phase};
use delprop_core::runtime::MemberStatus;
use delprop_core::{Budget, CompiledInstance, DeltaBatch, Engine, Portfolio, RingBufferSink};
use delprop_query::ViewSet;
use delprop_server::{AdmissionConfig, Gate, Request, Response};

use crate::{ids, metric, micros, percentile, solve_latency, Metric, Served, SolveRec};

/// Solves replayed at most; the replay also stops after `--seconds`.
const MAX_SOLVES: usize = 200;
/// Writes replayed at most.
const MAX_WRITES: usize = 200;
/// Repetitions of each set-up layer.
const SETUP_REPS: usize = 3;
/// Members whose own solve time is reported, with their metric names.
/// The other standard members never apply to these instances.
const MEMBERS: [(&str, &str); 5] = [
    ("lowdeg_tree", "member.lowdeg_tree_us"),
    ("primal_dual", "member.primal_dual_us"),
    ("lp_round", "lp.solve_us"),
    ("general", "member.general_us"),
    ("greedy", "member.greedy_us"),
];
/// The daemon's default request deadline.
const DEADLINE: Duration = Duration::from_millis(2_000);
/// Ring capacity per replayed solve; large enough that no member or
/// verify span end is overwritten.
const RING: usize = 1 << 14;

fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile(samples, 0.5)
    }
}

fn time<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = black_box(f());
    samples.push(micros(start.elapsed()));
    out
}

#[derive(Default)]
struct Layers {
    json_request: Vec<f64>,
    json_response: Vec<f64>,
    response_bytes: Vec<f64>,
    admission: Vec<f64>,
    with_delta: Vec<f64>,
    portfolio: Vec<f64>,
    fork: Vec<f64>,
    apply: Vec<f64>,
    solves: usize,
    members_run: usize,
    members_cancelled: usize,
    /// Summed own (verification excluded) solve µs per member name.
    member_us: BTreeMap<&'static str, f64>,
    verify_us: f64,
    verify_calls: usize,
}

impl Layers {
    fn solve(&mut self, state: &Engine, s: &SolveRec, gate: &Gate) -> Result<(), String> {
        let req = Request::Solve(s.req.clone());
        time(&mut self.json_request, || {
            Request::from_bytes(&req.to_bytes()).map(|_| ())
        })?;
        time(&mut self.admission, || {
            gate.acquire(&s.req.tenant, DEADLINE).map(drop)
        })
        .map_err(|e| format!("replay admission: {e}"))?;

        let owned;
        let problem = if s.req.deletions.is_empty() {
            state.problem()
        } else {
            let extra = ids(&s.req.deletions);
            owned = time(&mut self.with_delta, || state.with_delta(&extra))
                .map_err(|e| format!("replay with_delta: {e}"))?;
            &owned
        };

        let sink = Arc::new(RingBufferSink::with_capacity(RING));
        let budget = Budget::unlimited()
            .with_deadline(DEADLINE)
            .with_sink(sink.clone());
        let portfolio = Portfolio::standard();
        let outcome = time(&mut self.portfolio, || {
            if s.req.racing.unwrap_or(true) {
                portfolio.solve_racing(problem, &budget)
            } else {
                portfolio.solve(problem, &budget)
            }
        })
        .map_err(|e| format!("replay solve: {e}"))?;
        self.solves += 1;
        for r in &outcome.report {
            match r.status {
                MemberStatus::Skipped | MemberStatus::NotReached => {}
                MemberStatus::Cancelled => {
                    self.members_run += 1;
                    self.members_cancelled += 1;
                }
                _ => self.members_run += 1,
            }
        }
        let mut member_total: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut verify: BTreeMap<&'static str, f64> = BTreeMap::new();
        for ev in sink.snapshot() {
            if ev.kind != Kind::SpanEnd {
                continue;
            }
            match ev.phase {
                Phase::Member => *member_total.entry(ev.member).or_default() += ev.value as f64,
                Phase::Verify => {
                    *verify.entry(ev.member).or_default() += ev.value as f64;
                    self.verify_us += ev.value as f64;
                    self.verify_calls += 1;
                }
                _ => {}
            }
        }
        for (name, total) in member_total {
            let own = total - verify.get(name).copied().unwrap_or(0.0);
            *self.member_us.entry(name).or_default() += own.max(0.0);
        }

        let resp = &s.resp;
        let bytes = time(&mut self.json_response, || {
            let bytes = resp.to_bytes();
            Response::from_bytes(&bytes).map(|_| bytes.len())
        })?;
        self.response_bytes.push(bytes as f64);
        Ok(())
    }

    fn per_solve(&self, total: f64) -> f64 {
        total / self.solves.max(1) as f64
    }
}

pub fn per_layer(
    spec: &delprop_server::InstanceSpec,
    engine: &Engine,
    served: &Served,
    seconds: f64,
) -> Result<Vec<Metric>, String> {
    // Set-up layers.
    let (mut build, mut materialize, mut compile, mut engine_new) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let problem = time(&mut build, || spec.build()).map_err(|e| format!("build: {e}"))?;
        time(&mut materialize, || {
            ViewSet::materialize(problem.db(), problem.queries())
        })
        .map_err(|e| format!("materialize: {e}"))?;
        time(&mut compile, || CompiledInstance::compile(&problem));
        time(&mut engine_new, || Engine::new(problem)).map_err(|e| format!("engine: {e}"))?;
    }

    // The served stream, in epoch order, on the state each request saw.
    let mut by_epoch: BTreeMap<u64, Vec<&SolveRec>> = BTreeMap::new();
    for s in &served.solves {
        if let Response::Ok(ok) = &s.resp {
            by_epoch.entry(ok.epoch).or_default().push(s);
        }
    }
    let gate = Gate::new(AdmissionConfig::default());
    let mut layers = Layers::default();
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    let mut state = engine.clone();
    let mut epoch = 1u64;
    let mut replay_epoch = |layers: &mut Layers, state: &Engine, epoch: u64| {
        for s in by_epoch.remove(&epoch).unwrap_or_default() {
            if layers.solves >= MAX_SOLVES || Instant::now() >= stop {
                break;
            }
            layers.solve(state, s, &gate)?;
        }
        Ok::<(), String>(())
    };
    replay_epoch(&mut layers, &state, epoch)?;
    for w in &served.writes {
        if !matches!(w.resp, Response::DeltaPublished { .. }) {
            continue;
        }
        let batch = DeltaBatch {
            delete: ids(&w.deletes),
            restore: ids(&w.restores),
        };
        let mut fork = time(&mut layers.fork, || state.clone());
        time(&mut layers.apply, || fork.apply(&batch)).map_err(|e| format!("apply: {e}"))?;
        state = fork;
        epoch += 1;
        replay_epoch(&mut layers, &state, epoch)?;
        if layers.apply.len() >= MAX_WRITES && layers.solves >= MAX_SOLVES {
            break;
        }
    }
    if layers.solves == 0 || layers.apply.is_empty() {
        return Err("the replay ran no solve or no write".to_string());
    }

    let p50 = solve_latency(served, 0.5)?;
    let explained = median(&layers.json_request)
        + median(&layers.admission)
        + median(&layers.with_delta)
        + median(&layers.portfolio)
        + median(&layers.json_response);
    let lag: Vec<f64> = served.writes.iter().map(|w| w.lag_us).collect();
    let stat = |name: &str| served.stats.get(name).copied().unwrap_or(0) as f64;
    let member = |name: &str| layers.per_solve(layers.member_us.get(name).copied().unwrap_or(0.0));
    println!(
        "replayed {} solves and {} writes",
        layers.solves,
        layers.apply.len()
    );

    let mut out = vec![
        metric("json.request_us", "us", median(&layers.json_request)),
        metric("json.response_us", "us", median(&layers.json_response)),
        metric("wire.response_bytes", "B", median(&layers.response_bytes)),
        metric("admission.acquire_us", "us", median(&layers.admission)),
        metric("admission.queued", "count", stat("serve.queue_wait_micros")),
        metric("server.retries", "count", stat("serve.retries")),
        metric("server.degraded", "count", stat("serve.degraded")),
        metric("engine.with_delta_us", "us", median(&layers.with_delta)),
        metric("engine.fork_us", "us", median(&layers.fork)),
        metric("engine.apply_us", "us", median(&layers.apply)),
        metric("ir.compile_us", "us", median(&compile)),
        metric("portfolio.solve_us", "us", median(&layers.portfolio)),
        metric(
            "portfolio.members_run",
            "count",
            layers.per_solve(layers.members_run as f64),
        ),
        metric(
            "portfolio.members_cancelled",
            "count",
            layers.per_solve(layers.members_cancelled as f64),
        ),
        metric(
            "portfolio.useful_ratio",
            "ratio",
            layers.solves as f64 / layers.members_run.max(1) as f64,
        ),
    ];
    for (name, metric_name) in MEMBERS {
        out.push(metric(metric_name, "us", member(name)));
    }
    out.extend([
        metric("verify.reeval_us", "us", layers.per_solve(layers.verify_us)),
        metric(
            "verify.calls",
            "count",
            layers.per_solve(layers.verify_calls as f64),
        ),
        metric("query.materialize_us", "us", median(&materialize)),
        metric("setup.build_us", "us", median(&build)),
        metric("setup.engine_us", "us", median(&engine_new)),
        metric("write.lag_us", "us", median(&lag)),
        metric("other_us", "us", p50 - explained),
        metric("coverage", "ratio", explained / p50),
    ]);
    Ok(out)
}
