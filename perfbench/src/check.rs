//! Answer checks, run after the timed phase and outside its timing.
//!
//! Every solve answer is held against a local rebuild of the state it
//! was computed on: the published instance replayed through the writer's
//! log up to the answer's epoch, plus the request's own extra ΔV through
//! `Engine::with_delta`. The returned ΔD must be feasible and its
//! side-effect must equal the reported cost; every `REEVAL_EVERY`-th
//! answer is also re-materialized from scratch. Every write's reported
//! maintenance counts must match the same batch applied locally. Per
//! stream outcome counts are cross-checked against the daemon's
//! `serve.*` counters.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use delprop_core::{DeltaBatch, Engine, Problem, Solution};
use delprop_relation::{RelationId, TupleId};
use delprop_server::{Response, SolveOk};

use crate::{ids, Served, SolveRec};

/// One answer in this many is re-materialized from scratch.
const REEVAL_EVERY: usize = 16;
/// Mismatches printed before the rest are only counted.
const SHOWN: usize = 5;

/// Outcomes of one request stream.
#[derive(Default, Debug)]
pub struct Counts {
    pub sent: u64,
    pub ok: u64,
    pub degraded: u64,
    pub overloaded: u64,
    pub deadline: u64,
    pub error: u64,
}

pub struct Verdict {
    solves: Counts,
    writes: Counts,
    checked: usize,
    reevaluated: usize,
    mismatches: Vec<String>,
    /// Requests without a correct answer: refused, failed or wrong.
    pub failed: usize,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    pub fn print(&self) {
        for (name, c) in [("solves", &self.solves), ("writes", &self.writes)] {
            println!(
                "{name}: sent {}, ok {}, degraded {}, overloaded {}, deadline-exceeded {}, error {}",
                c.sent, c.ok, c.degraded, c.overloaded, c.deadline, c.error
            );
        }
        println!(
            "answers checked: {} ({} re-materialized), mismatches: {}",
            self.checked,
            self.reevaluated,
            self.mismatches.len()
        );
        for m in self.mismatches.iter().take(SHOWN) {
            println!("  mismatch: {m}");
        }
    }
}

/// Check one answer against the problem it should solve. Returns
/// whether it was re-materialized.
fn check_answer(problem: &Problem, ok: &SolveOk, reeval: bool) -> Result<bool, String> {
    let solution = Solution::from_tuples(
        ok.deleted
            .iter()
            .map(|&(r, i)| TupleId::new(RelationId(r), i)),
    );
    let close = |c: f64| (c - ok.cost).abs() <= 1e-9 * c.abs().max(1.0);
    catch_unwind(AssertUnwindSafe(|| {
        if !solution.is_feasible(problem) {
            return Err("ΔD leaves part of ΔV standing".to_string());
        }
        let side_effect = solution.side_effect(problem);
        if !close(side_effect) {
            return Err(format!(
                "reported cost {} but side-effect is {side_effect}",
                ok.cost
            ));
        }
        if reeval {
            let again = solution.verify_by_reevaluation(problem);
            if !close(again) {
                return Err(format!(
                    "reported cost {} but re-materialized side-effect is {again}",
                    ok.cost
                ));
            }
        }
        Ok(reeval)
    }))
    .unwrap_or_else(|_| Err("checking the answer panicked (corrupt ΔD?)".to_string()))
}

pub fn check(engine: &Engine, served: &Served) -> Verdict {
    let mut v = Verdict {
        solves: Counts::default(),
        writes: Counts::default(),
        checked: 0,
        reevaluated: 0,
        mismatches: Vec::new(),
        failed: 0,
    };

    // Solve answers, grouped by the epoch they were computed on.
    let mut by_epoch: BTreeMap<u64, Vec<(&SolveRec, &SolveOk)>> = BTreeMap::new();
    for s in &served.solves {
        v.solves.sent += 1;
        match &s.resp {
            Response::Ok(ok) => {
                v.solves.ok += 1;
                v.solves.degraded += u64::from(ok.degraded);
                by_epoch.entry(ok.epoch).or_default().push((s, ok));
            }
            Response::Overloaded { .. } => v.solves.overloaded += 1,
            Response::DeadlineExceeded { .. } => v.solves.deadline += 1,
            Response::Error { .. } => v.solves.error += 1,
            other => {
                v.solves.error += 1;
                v.mismatches.push(format!("solve answered with {other:?}"));
            }
        }
    }

    let mut state = engine.clone();
    let mut epoch = 1u64;
    let mut check_epoch = |v: &mut Verdict, state: &Engine, epoch: u64| {
        for (s, ok) in by_epoch.remove(&epoch).unwrap_or_default() {
            let owned;
            let problem = if s.req.deletions.is_empty() {
                state.problem()
            } else {
                match state.with_delta(&ids(&s.req.deletions)) {
                    Ok(p) => {
                        owned = p;
                        &owned
                    }
                    Err(e) => {
                        v.mismatches
                            .push(format!("request ΔV rejected locally: {e}"));
                        continue;
                    }
                }
            };
            let reeval = v.checked.is_multiple_of(REEVAL_EVERY);
            v.checked += 1;
            match check_answer(problem, ok, reeval) {
                Ok(r) => v.reevaluated += usize::from(r),
                Err(m) => v.mismatches.push(format!("epoch {epoch}: {m}")),
            }
        }
    };
    check_epoch(&mut v, &state, epoch);

    for w in &served.writes {
        v.writes.sent += 1;
        let Response::DeltaPublished {
            epoch: got,
            deleted,
            restored,
            overdeleted,
            rederived,
            ..
        } = w.resp
        else {
            v.writes.error += 1;
            continue;
        };
        v.writes.ok += 1;
        epoch += 1;
        if got != epoch {
            v.mismatches
                .push(format!("write published epoch {got}, expected {epoch}"));
        }
        let batch = DeltaBatch {
            delete: ids(&w.deletes),
            restore: ids(&w.restores),
        };
        match state.apply(&batch) {
            Ok(r) => {
                let local = [r.deleted, r.restored, r.overdeleted, r.rederived].map(|n| n as u64);
                let remote = [deleted, restored, overdeleted, rederived];
                if local != remote {
                    v.mismatches.push(format!(
                        "epoch {epoch}: write reported (deleted, restored, overdeleted, rederived) = {remote:?}, local replay gives {local:?}"
                    ));
                }
            }
            Err(e) => v
                .mismatches
                .push(format!("write batch rejected locally: {e}")),
        }
        check_epoch(&mut v, &state, epoch);
    }
    for (e, answers) in by_epoch {
        v.mismatches.push(format!(
            "{} answers at epoch {e}, which no write published",
            answers.len()
        ));
    }

    cross_check(&mut v, &served.stats);
    let wrong = v.mismatches.len();
    v.failed = (v.solves.sent - v.solves.ok + v.writes.sent - v.writes.ok) as usize + wrong;
    v
}

/// The client's counts must agree with the daemon's own counters over
/// the timed phase (the closing `stats` request counts itself).
fn cross_check(v: &mut Verdict, stats: &BTreeMap<String, u64>) {
    let (s, w) = (&v.solves, &v.writes);
    let expected = [
        ("serve.requests", s.sent + w.sent + 1),
        ("serve.ok", s.ok),
        ("serve.degraded", s.degraded),
        ("serve.overloaded", s.overloaded),
        ("serve.deadline_exceeded", s.deadline),
        ("serve.errors", s.error + w.error),
        ("serve.delta_publishes", w.ok),
    ];
    for (name, want) in expected {
        let got = stats.get(name).copied().unwrap_or(0);
        if got != want {
            v.mismatches.push(format!(
                "daemon counter {name} = {got}, client counted {want}"
            ));
        }
    }
}
