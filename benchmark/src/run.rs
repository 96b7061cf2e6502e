//! The measurement procedure: what one `--workload W --trace T` run does,
//! in which order, and how its metrics are derived.
//!
//! Timings are taken around the single `adapter::run` call of a
//! repetition; digests, conservation checks and fidelity statistics are
//! computed between repetitions, outside every timed interval.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::adapter::{self, CellRun, Exec, Facts, Fidelity, Mode, Scale, Workload};
use crate::alloc::{self, MemStats};
use crate::checks;
use crate::clock::{self, ClockCost, Stopwatch};
use crate::isolated;
use crate::metrics;
use crate::stats::{median, summary, Summary};
use crate::traced::{KindStats, TraceSink, BUCKETS, CALLBACKS};

/// Cells whose steady window is black-holed at the baseline. The check
/// still runs on them; its failure is printed as `known_defect` and not
/// counted, so that `failed` stays 0 until something else breaks.
const KNOWN_DEFECTS: [(&str, &str); 1] = [(
    "fig5_6_simultaneous_startxfred",
    "FredCore resets a flow's qlen only after a forward that found the queue empty; once every \
     flow has reached the strike threshold each packet is dropped and the reset is unreachable",
)];

/// The disciplines whose cells carry a sweep's fidelity figures: the two
/// that aim at weighted max-min shares.
const WEIGHTED: [&str; 2] = ["corelite", "csfq"];

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub nproc: usize,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The sample behind a timing over repetitions.
    pub summary: Option<Summary>,
}

/// A phase of the run, kept in memory and written to `trace.json`.
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub rep: usize,
    pub start_secs: f64,
    pub end_secs: f64,
}

/// One callback group of one kind, raw and clock-corrected.
pub struct CallbackTrace {
    pub calls: u64,
    pub raw_ns: u64,
    pub corrected_ns: f64,
    pub hist: [u64; BUCKETS],
}

pub struct RunOutput {
    pub workload: &'static str,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    /// Raw values of every repetition, by metric name.
    pub reps: Vec<(&'static str, Vec<f64>)>,
    pub spans: Vec<Span>,
    /// The traced repetition's aggregates, attached to its span.
    pub kinds: Vec<(String, Vec<CallbackTrace>)>,
    pub traced_span: Option<usize>,
}

struct Spans {
    epoch: Stopwatch,
    list: Vec<Span>,
}

/// The id of the span that covers the whole run.
const ROOT: usize = 0;

impl Spans {
    fn new() -> Self {
        Spans {
            epoch: clock::start(),
            list: vec![Span {
                id: ROOT,
                parent: None,
                name: "run",
                rep: 0,
                start_secs: 0.0,
                end_secs: 0.0,
            }],
        }
    }

    /// Runs `f` as a span and returns its result and duration in seconds.
    fn timed<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        rep: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64, usize) {
        let start_secs = self.epoch.elapsed_secs();
        let out = f();
        let end_secs = self.epoch.elapsed_secs();
        let id = self.list.len();
        self.list.push(Span {
            id,
            parent,
            name,
            rep,
            start_secs,
            end_secs,
        });
        (out, end_secs - start_secs, id)
    }
}

/// One repetition: the runs and the host time of the one call.
struct Rep {
    runs: Vec<CellRun>,
    wall_secs: f64,
    cpu_secs: f64,
    /// Its `scenarios.run` span, the parent of the spans inspecting it.
    span: usize,
    number: usize,
}

/// Host time of the fastest repetition of one variant.
struct Timing {
    wall_secs: f64,
    cpu_secs: f64,
    /// Sum of the cells' own wall time over threads x repetition wall.
    efficiency: f64,
}

/// Batches the set-up time is measured in.
const SETUP_BATCHES: usize = 20;

/// What the checks derived from one repetition.
struct Inspection {
    facts: Vec<Facts>,
    fidelity: Vec<Fidelity>,
    digest_secs: f64,
    report_secs: f64,
}

impl Inspection {
    fn events(&self) -> u64 {
        self.facts.iter().map(|f| f.events).sum()
    }

    fn flow_total(&self, column: usize) -> u64 {
        self.facts
            .iter()
            .flat_map(|f| &f.flows)
            .map(|fl| fl[column])
            .sum()
    }

    /// Data packets serialised onto final-hop links, duplicates removed.
    /// Link counters survive slot recycling; per-flow ones do not.
    fn pkts(&self) -> u64 {
        let final_hop: u64 = self.facts.iter().map(|f| f.final_hop_pkts).sum();
        final_hop.saturating_sub(self.flow_total(adapter::FLOW_DUPLICATE))
    }

    /// Mean of `figure` over the cells that carry the fidelity figures:
    /// the only cell, or a sweep's [`WEIGHTED`] ones.
    fn fidelity_mean(&self, figure: fn(&Fidelity) -> f64) -> f64 {
        let sweep = self.fidelity.len() > 1;
        let cells: Vec<f64> = self
            .fidelity
            .iter()
            .filter(|f| !sweep || WEIGHTED.contains(&f.discipline))
            .map(figure)
            .collect();
        cells.iter().sum::<f64>() / cells.len() as f64
    }

    /// Share of flows that delivered at least one packet: of the retired
    /// churn flows where there is churn, else of the long-lived flows in
    /// the steady window.
    fn served_frac(&self) -> f64 {
        let churn: Vec<_> = self.facts.iter().filter_map(|f| f.churn).collect();
        if churn.is_empty() {
            let expected: usize = self.fidelity.iter().map(|f| f.expected_live).sum();
            let dead: usize = self.fidelity.iter().map(|f| f.dead.len()).sum();
            (expected - dead) as f64 / expected as f64
        } else {
            let retired: u64 = churn.iter().map(|c| c[adapter::CHURN_RETIRED]).sum();
            let completed: u64 = churn.iter().map(|c| c[adapter::CHURN_COMPLETED]).sum();
            completed as f64 / retired as f64
        }
    }

    /// Flow-table slots resident at the peak, over the largest cell.
    fn peak_slots(&self) -> u64 {
        self.facts
            .iter()
            .map(|f| {
                f.churn
                    .map_or(f.static_flows as u64, |c| c[adapter::CHURN_PEAK_SLOTS])
            })
            .max()
            .unwrap_or(1)
    }
}

#[derive(Default)]
struct Checker {
    /// The first repetition's digest, with and without the event count.
    reference: Option<[u64; 2]>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    fn note(&mut self, line: String) {
        if !self.notes.contains(&line) {
            self.notes.push(line);
        }
    }

    /// Counts and checks the operations of one repetition. A digest that
    /// differs from the run's first is an identity violation: an error,
    /// not a counted failure. A `probed` repetition may have processed
    /// telemetry-only events, so its event count is not compared.
    fn inspect(
        &mut self,
        spans: &mut Spans,
        w: &Workload,
        rep: &Rep,
        what: &str,
        probed: bool,
    ) -> Result<Inspection, String> {
        let ((facts, digests), digest_secs, _) =
            spans.timed("bench.digest", Some(rep.span), rep.number, || {
                let facts: Vec<Facts> = w
                    .cells
                    .iter()
                    .zip(&rep.runs)
                    .map(|(cell, run)| adapter::facts(cell, run))
                    .collect();
                let digests = [true, false].map(|events| checks::sim_digest(&facts, events));
                (facts, digests)
            });
        let reference = *self.reference.get_or_insert(digests);
        let i = usize::from(probed);
        if reference[i] != digests[i] {
            return Err(format!(
                "{}: sim_digest of the {what} is {:#018x}, the run's first was {:#018x}",
                w.name, digests[i], reference[i]
            ));
        }
        let (fidelity, report_secs, _) =
            spans.timed("scenarios.report", Some(rep.span), rep.number, || {
                rep.runs
                    .iter()
                    .map(adapter::fidelity)
                    .collect::<Vec<Fidelity>>()
            });
        for (f, fid) in facts.iter().zip(&fidelity) {
            self.attempted += 1;
            let mut broken = checks::conservation(f, adapter::link_bytes_per_sec());
            if fid.expected_live > 0 && fid.dead.len() == fid.expected_live {
                match KNOWN_DEFECTS.iter().find(|(label, _)| *label == f.label) {
                    Some((label, why)) => {
                        self.note(format!("known_defect {label} delivers nothing: {why}"))
                    }
                    None => broken.push(format!(
                        "{}: no long-lived flow delivers in the steady window",
                        f.label
                    )),
                }
            } else if !fid.dead.is_empty() {
                // Behaviour, not failure: it moves `served_frac`.
                self.note(format!(
                    "starved {}: {} of {} long-lived flows deliver nothing in the steady window",
                    f.label,
                    fid.dead.len(),
                    fid.expected_live
                ));
            }
            if !broken.is_empty() {
                self.failed += 1;
                broken
                    .into_iter()
                    .for_each(|b| self.note(format!("FAIL {b}")));
            }
        }
        Ok(Inspection {
            facts,
            fidelity,
            digest_secs,
            report_secs,
        })
    }
}

struct Session<'a> {
    name: &'static str,
    opts: &'a Options,
    spans: Spans,
    check: Checker,
    reps_done: usize,
}

impl Session<'_> {
    fn workload(&self) -> Workload {
        adapter::workload(self.name, self.opts.seed, self.opts.scale)
            .expect("the caller resolved the name")
    }

    fn rep(
        &mut self,
        w: &Workload,
        mode: Mode,
        sink: Option<&TraceSink>,
        serial_sweep: bool,
    ) -> Rep {
        self.reps_done += 1;
        let number = self.reps_done;
        let ((runs, wall_secs, cpu_secs), _, span) =
            self.spans.timed("scenarios.run", Some(ROOT), number, || {
                let cpu0 = clock::cpu_secs();
                let t = clock::start();
                let runs = adapter::run(w, mode, sink, serial_sweep);
                let wall_secs = t.elapsed_secs();
                (runs, wall_secs, clock::cpu_secs() - cpu0)
            });
        Rep {
            runs,
            wall_secs,
            cpu_secs,
            span,
            number,
        }
    }

    fn inspect(
        &mut self,
        w: &Workload,
        rep: &Rep,
        what: &str,
        probed: bool,
    ) -> Result<Inspection, String> {
        self.check.inspect(&mut self.spans, w, rep, what, probed)
    }

    /// Runs `w` with the heap counted, then checks it. The first
    /// repetition of a run: it also warms caches and the allocator.
    fn memory_rep(&mut self, w: &Workload, what: &str) -> Result<(Inspection, MemStats), String> {
        let (rep, mem) = alloc::measure(|| self.rep(w, Mode::Default, None, true));
        Ok((self.inspect(w, &rep, what, false)?, mem))
    }

    /// Seconds to build `w` and hand back an empty report: `w` at horizon
    /// zero, run back to back for `budget_secs` in [`SETUP_BATCHES`]
    /// batches. Returns each batch's mean per run.
    fn setup_secs(&mut self, w: &Workload, budget_secs: f64) -> Vec<f64> {
        let w0 = Workload {
            exec: w.exec,
            ..self.workload()
        }
        .zero_horizon();
        let (times, _, _) = self.spans.timed("scenarios.build", Some(ROOT), 0, || {
            let build = || drop(adapter::run(&w0, Mode::Default, None, false));
            build(); // the first build grows the allocator's arenas
            (0..SETUP_BATCHES)
                .map(|_| {
                    let t = clock::start();
                    let mut builds = 0u32;
                    loop {
                        build();
                        builds += 1;
                        let secs = t.elapsed_secs();
                        if secs >= budget_secs / SETUP_BATCHES as f64 {
                            break secs / f64::from(builds);
                        }
                    }
                })
                .collect::<Vec<f64>>()
        });
        times
    }

    /// The fastest of [`Session::variant_reps`] checked repetitions of
    /// `w` under `mode`.
    fn fastest(&mut self, w: &Workload, mode: Mode, what: &str) -> Result<Timing, String> {
        let mut best: Option<Timing> = None;
        for _ in 0..self.variant_reps() {
            let rep = self.rep(w, mode, None, false);
            self.inspect(w, &rep, what, mode == Mode::Probed)?;
            let cells_ns: u64 = rep.runs.iter().map(|r| r.wall_ns).sum();
            let busy = w.threads(self.opts.nproc) as f64 * rep.wall_secs;
            if best.as_ref().is_none_or(|b| rep.wall_secs < b.wall_secs) {
                best = Some(Timing {
                    wall_secs: rep.wall_secs,
                    cpu_secs: rep.cpu_secs,
                    efficiency: ns_to_secs(cells_ns as f64) / busy,
                });
            }
        }
        Ok(best.expect("at least one repetition"))
    }

    /// Repetitions per variant of a `--trace 1` run.
    fn variant_reps(&self) -> usize {
        if self.opts.scale == Scale::Smoke {
            1
        } else {
            3
        }
    }

    fn finish(
        self,
        w: &Workload,
        trace: bool,
        metrics: Vec<Metric>,
        reps: Vec<(&'static str, Vec<f64>)>,
    ) -> RunOutput {
        let mut spans = self.spans;
        spans.list[ROOT].end_secs = spans.epoch.elapsed_secs();
        let mut notes = self.check.notes;
        if let Some(rho) = w.offered_rho {
            notes.push(format!("offered_rho {rho} per uplink"));
        }
        RunOutput {
            workload: self.name,
            trace,
            attempted: self.check.attempted,
            failed: self.check.failed,
            digest: self.check.reference.map_or(0, |r| r[0]),
            metrics,
            notes,
            reps,
            spans: spans.list,
            kinds: Vec::new(),
            traced_span: None,
        }
    }
}

/// A timing over repetitions. Every repetition of a run executes the same
/// simulation (the digest proves it), so what differs between them is
/// machine noise, and on a shared host that only ever adds time: the
/// metric is the fastest repetition (`Summary::min`; `max` for a rate).
/// The median and quartiles travel with it.
fn of_reps(name: &str, unit: &'static str, values: &[f64], best: fn(&Summary) -> f64) -> Metric {
    let s = summary(values);
    Metric {
        name: name.to_owned(),
        unit,
        value: s.as_ref().map_or(f64::NAN, best),
        summary: s,
    }
}

fn exact(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        value,
        summary: None,
    }
}

fn session<'a>(name: &str, opts: &'a Options) -> Result<Session<'a>, String> {
    let &(name, _) = adapter::WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    Ok(Session {
        name,
        opts,
        spans: Spans::new(),
        check: Checker::default(),
        reps_done: 0,
    })
}

/// The `--trace 0` run: every end-to-end metric, tracing off.
pub fn end_to_end(name: &str, opts: &Options) -> Result<RunOutput, String> {
    let started = clock::start();
    let mut s = session(name, opts)?;
    let w = s.workload();
    // A sharded workload first runs its serial twin: the reference the
    // sharded digests must equal.
    if let Exec::Sharded(_) = w.exec {
        let twin = s.workload().serial_twin();
        let rep = s.rep(&twin, Mode::Default, None, false);
        s.inspect(&twin, &rep, "serial twin", false)?;
    }
    let (first, mem) = s.memory_rep(&w, "memory repetition")?;
    let setup = s.setup_secs(&w, opts.seconds * 0.08);

    let min_reps = if opts.scale == Scale::Smoke { 2 } else { 3 };
    let (mut wall, mut cpu, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    while wall.len() < min_reps || started.elapsed_secs() + median(&wall) <= opts.seconds {
        let rep = s.rep(&w, Mode::Default, None, false);
        let ins = s.inspect(&w, &rep, "repetition", false)?;
        wall.push(rep.wall_secs);
        cpu.push(rep.cpu_secs);
        rate.push(ins.pkts() as f64 / rep.wall_secs);
    }

    let metrics = vec![
        of_reps("setup_s", "s", &setup, |s| s.min),
        of_reps("wall_s", "s", &wall, |s| s.min),
        of_reps("cpu_s", "s", &cpu, |s| s.min),
        of_reps("pkts_per_s", "pkt/s", &rate, |s| s.max),
        exact("peak_live_bytes", "bytes", mem.peak_live_bytes as f64),
        exact("jain", "ratio", first.fidelity_mean(|f| f.jain)),
        exact(
            "maxmin_rel_err",
            "ratio",
            first.fidelity_mean(|f| f.maxmin_rel_err),
        ),
        exact("served_frac", "ratio", first.served_frac()),
    ];
    let reps = vec![
        ("setup_s", setup),
        ("wall_s", wall),
        ("cpu_s", cpu),
        ("pkts_per_s", rate),
    ];
    Ok(s.finish(&w, false, metrics, reps))
}

fn ns_to_secs(ns: f64) -> f64 {
    ns * 1e-9
}

fn fastest_of(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn corrected(stats: &KindStats, cost: ClockCost) -> Vec<CallbackTrace> {
    stats
        .iter()
        .map(|c| CallbackTrace {
            calls: c.calls,
            raw_ns: c.total_ns,
            corrected_ns: (c.total_ns as f64 - c.calls as f64 * cost.gap_ns).max(0.0),
            hist: c.hist,
        })
        .collect()
}

/// The `--trace 1` run: every per-layer metric.
pub fn per_layer(name: &str, opts: &Options) -> Result<RunOutput, String> {
    let cost = clock::calibrate(200_000);
    let mut s = session(name, opts)?;
    let w = s.workload();
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        v.insert(name.to_owned(), value);
    };

    // The serial twin of a sharded workload: digest reference and the
    // base of every `netsim.shard.*` ratio.
    let mut twin_base = None;
    if let Exec::Sharded(_) = w.exec {
        let twin = s.workload().serial_twin();
        let (_, mem) = s.memory_rep(&twin, "serial twin's memory repetition")?;
        let timing = s.fastest(&twin, Mode::Default, "serial twin")?;
        let setup_secs = fastest_of(&s.setup_secs(&twin, opts.seconds * 0.02));
        twin_base = Some((timing, mem.peak_live_bytes, setup_secs));
    }

    let (first, mem) = s.memory_rep(&w, "memory repetition")?;
    let events = first.events() as f64;
    let pkts = first.pkts() as f64;

    // The bare repetitions: the base of every share and ratio below.
    let bare = s.fastest(&w, Mode::Default, "bare repetition")?;
    let (wall_secs, cpu_secs) = (bare.wall_secs, bare.cpu_secs);

    // The traced repetitions, each into its own sink; the fastest counts.
    let mut traced_best: Option<(Rep, TraceSink)> = None;
    for _ in 0..s.variant_reps() {
        let sink: TraceSink = Arc::new(Mutex::new(BTreeMap::new()));
        let mut traced = s.rep(&w, Mode::Default, Some(&sink), false);
        s.inspect(&w, &traced, "traced repetition", false)?;
        // The logics flush into the sink when their networks drop.
        traced.runs.clear();
        if traced_best
            .as_ref()
            .is_none_or(|(b, _)| traced.wall_secs < b.wall_secs)
        {
            traced_best = Some((traced, sink));
        }
    }
    let (traced, sink) = traced_best.expect("at least one repetition");
    let traced_span = traced.span;
    let (traced_wall_secs, traced_cpu_secs) = (traced.wall_secs, traced.cpu_secs);
    let kinds: Vec<(String, Vec<CallbackTrace>)> = std::mem::take(
        &mut *sink
            .lock()
            .map_err(|_| "a traced logic panicked".to_owned())?,
    )
    .into_iter()
    .map(|(kind, stats)| (kind, corrected(&stats, cost)))
    .collect();
    let mut logic_ns = 0.0;
    for (kind, callbacks) in &kinds {
        let calls: u64 = callbacks.iter().map(|c| c.calls).sum();
        let kind_ns: f64 = callbacks.iter().map(|c| c.corrected_ns).sum();
        logic_ns += kind_ns;
        set(&format!("{kind}.calls"), calls as f64);
        set(
            &format!("{kind}.ns_per_call"),
            kind_ns / calls.max(1) as f64,
        );
        set(&format!("{kind}.share"), ns_to_secs(kind_ns) / cpu_secs);
        for (c, callback) in callbacks.iter().zip(CALLBACKS) {
            set(
                &format!("{kind}.{callback}_ns"),
                c.corrected_ns / c.calls.max(1) as f64,
            );
        }
    }
    let logic_secs = ns_to_secs(logic_ns);
    if logic_secs > traced_cpu_secs {
        return Err(format!(
            "{name}: corrected logic time {logic_secs} s exceeds the traced repetition's \
             {traced_cpu_secs} CPU s"
        ));
    }
    // What the wrapper cannot see: queue, dispatch, links, monitors,
    // lifecycle bookkeeping, shard exchange. Shares are of CPU time, which
    // is wall time on the serial workloads.
    set(
        "netsim.engine.ns_per_event",
        (cpu_secs - logic_secs) * 1e9 / events,
    );
    set("netsim.engine.share", 1.0 - logic_secs / cpu_secs);
    set("bench.clock_ns", cost.pair_ns);
    set("bench.trace_overhead_ratio", traced_wall_secs / wall_secs);

    set("netsim.events", events);
    set("netsim.events_per_pkt", events / pkts);
    let hops: u64 = first
        .facts
        .iter()
        .flat_map(|f| &f.links)
        .map(|l| l[adapter::LINK_FORWARDED_PKTS])
        .sum();
    set("netsim.hops", hops as f64);
    set("netsim.ns_per_event", wall_secs * 1e9 / events);
    set(
        "netsim.drops.tail",
        first.flow_total(adapter::FLOW_TAIL_DROPS) as f64,
    );
    set(
        "netsim.drops.policy",
        first.flow_total(adapter::FLOW_POLICY_DROPS) as f64,
    );
    set(
        "netsim.dups",
        first.flow_total(adapter::FLOW_DUPLICATE) as f64,
    );
    set("netsim.allocs_per_event", mem.allocs as f64 / events);
    set(
        "netsim.bytes_per_active_flow",
        mem.peak_live_bytes as f64 / first.peak_slots() as f64,
    );
    set("scenarios.run", wall_secs);
    set(
        "fairness.reference.s",
        first.fidelity.iter().map(|f| f.reference_secs).sum(),
    );
    set("scenarios.report.s", first.report_secs);
    set("bench.digest.s", first.digest_secs);

    // Each public switch: same inputs, same digest, fastest repetition.
    for (metric, mode, what) in [
        (
            "sim-core.queue.heap_ratio",
            Mode::HeapQueue,
            "heap-queue repetition",
        ),
        (
            "netsim.dispatch.per_packet_ratio",
            Mode::PerPacketDispatch,
            "per-packet repetition",
        ),
        (
            "netsim.telemetry.probe_ratio",
            Mode::Probed,
            "probed repetition",
        ),
    ] {
        set(metric, s.fastest(&w, mode, what)?.wall_secs / wall_secs);
    }

    let setup_secs = fastest_of(&s.setup_secs(&w, opts.seconds * 0.02));
    set("scenarios.build", setup_secs);

    if let Some((twin, twin_peak_bytes, twin_setup_secs)) = twin_base {
        let per_shard = &first.facts[0].per_shard_events;
        let total: u64 = per_shard.iter().sum();
        let busiest = per_shard.iter().copied().max().unwrap_or(0);
        set("netsim.shard.wall_ratio", wall_secs / twin.wall_secs);
        set("netsim.shard.cpu_ratio", cpu_secs / twin.cpu_secs);
        set(
            "netsim.shard.mem_ratio",
            mem.peak_live_bytes as f64 / twin_peak_bytes as f64,
        );
        set("netsim.shard.setup_ratio", setup_secs / twin_setup_secs);
        set("netsim.shard.event_inflation", total as f64 / events);
        set(
            "netsim.shard.imbalance",
            busiest as f64 * per_shard.len() as f64 / total as f64,
        );
    }
    if w.exec == Exec::Sweep {
        set("scenarios.exec.efficiency", bare.efficiency);
    }

    let ((), _, _) = s.spans.timed("isolated", Some(ROOT), 0, || {
        let arrivals = if opts.scale == Scale::Smoke {
            2_000
        } else {
            100_000
        };
        for (metric, value) in isolated::run_all(opts.seconds / 68.0, arrivals) {
            v.insert(metric.to_owned(), value);
        }
    });

    let metrics = metrics::per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = v.get(&name).copied().unwrap_or(0.0);
            exact(&name, unit, value)
        })
        .collect();
    let mut out = s.finish(&w, true, metrics, Vec::new());
    out.kinds = kinds;
    out.traced_span = Some(traced_span);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64) -> Options {
        Options {
            seed,
            seconds: 0.5,
            scale: Scale::Smoke,
            nproc: 2,
        }
    }

    fn digest(w: &Workload, mode: Mode, sink: Option<&TraceSink>) -> u64 {
        digest_of(w, mode, sink, true)
    }

    fn digest_of(w: &Workload, mode: Mode, sink: Option<&TraceSink>, events: bool) -> u64 {
        let runs = adapter::run(w, mode, sink, false);
        let facts: Vec<Facts> = w
            .cells
            .iter()
            .zip(&runs)
            .map(|(cell, run)| adapter::facts(cell, run))
            .collect();
        assert!(
            facts.iter().all(|f| f.events > 1_000),
            "the smoke run barely ran"
        );
        checks::sim_digest(&facts, events)
    }

    /// Repeat, traced, heap, per-packet, probed and 2-shard runs of one
    /// simulation agree; another seed is another simulation.
    fn one_digest_on_every_run_path(name: &str) {
        let build = |seed| adapter::workload(name, seed, Scale::Smoke).unwrap();
        let w = build(1);
        let base = digest(&w, Mode::Default, None);
        assert_eq!(base, digest(&w, Mode::Default, None), "repeat");
        let sink = TraceSink::default();
        assert_eq!(base, digest(&w, Mode::Default, Some(&sink)), "traced");
        assert!(!sink.lock().unwrap().is_empty(), "the tracer saw no logic");
        assert_eq!(base, digest(&w, Mode::HeapQueue, None), "heap queue");
        assert_eq!(
            base,
            digest(&w, Mode::PerPacketDispatch, None),
            "per-packet"
        );
        assert_eq!(base, digest(&w, Mode::Probed, None), "probed");
        let sharded = Workload {
            exec: Exec::Sharded(2),
            ..build(1)
        };
        assert_eq!(base, digest(&sharded, Mode::Default, None), "2 shards");
        assert_eq!(
            base,
            digest(&sharded, Mode::HeapQueue, None),
            "2 shards, heap"
        );
        assert_ne!(base, digest(&build(2), Mode::Default, None), "another seed");
    }

    #[test]
    fn smoke_chain_has_one_digest_on_every_run_path() {
        one_digest_on_every_run_path("chain_corelite");
    }

    #[test]
    fn smoke_k16_has_one_digest_on_every_run_path() {
        one_digest_on_every_run_path("k16_churn");
    }

    #[test]
    fn a_probe_adds_events_to_csfq_and_changes_nothing_else() {
        let w = adapter::workload("discipline_sweep", 1, Scale::Smoke).unwrap();
        assert_ne!(
            digest(&w, Mode::Default, None),
            digest(&w, Mode::Probed, None),
            "CSFQ no longer arms its sampling timer under a probe: compare probed runs in full"
        );
        assert_eq!(
            digest_of(&w, Mode::Default, None, false),
            digest_of(&w, Mode::Probed, None, false)
        );
    }

    #[test]
    fn traced_and_bare_reports_are_equal_field_for_field() {
        let w = adapter::workload("ft_transports", 1, Scale::Smoke).unwrap();
        let bare = adapter::run(&w, Mode::Default, None, false);
        let sink = TraceSink::default();
        let traced = adapter::run(&w, Mode::Default, Some(&sink), false);
        // `TracedLogic::report` forwards the inner logic's report, so the
        // whole `SimReport` (per-logic series and counters included)
        // renders identically.
        assert_eq!(
            format!("{:?}", bare[0].result.report),
            format!("{:?}", traced[0].result.report)
        );
        drop(traced);
        let sink = sink.lock().unwrap();
        let kinds: Vec<&str> = sink.keys().map(String::as_str).collect();
        assert_eq!(kinds, ["corelite.core", "corelite.edge", "corelite.gbn"]);
        assert!(
            sink["corelite.gbn"][2].calls > 0,
            "acks reach the gbn edges as control"
        );
    }

    #[test]
    fn a_run_prints_exactly_the_tables_metrics_and_attribution_closes() {
        for name in ["k16_churn_shard2", "discipline_sweep"] {
            let out = end_to_end(name, &smoke(1)).unwrap();
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
            let table: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.0).collect();
            assert_eq!(names, table);
            assert!(out
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0));
            assert_eq!(out.failed, 0, "{:?}", out.notes);

            let out = per_layer(name, &smoke(1)).unwrap();
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
            let table: Vec<String> = metrics::per_layer().into_iter().map(|m| m.0).collect();
            assert_eq!(names, table);
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            let value = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value;
            let shares: f64 = metrics::KINDS
                .iter()
                .map(|k| value(&format!("{k}.share")))
                .sum();
            assert!((shares + value("netsim.engine.share") - 1.0).abs() < 0.01);
            assert!(value("bench.clock_ns") > 0.0 && value("bench.trace_overhead_ratio") > 0.0);
            assert_eq!(out.failed, 0, "{:?}", out.notes);
        }
    }

    #[test]
    fn the_fred_cell_is_a_known_defect_not_a_failure() {
        let out = end_to_end("discipline_sweep", &smoke(1)).unwrap();
        assert!(
            out.notes
                .iter()
                .any(|n| n.starts_with("known_defect fig5_6_simultaneous_startxfred")),
            "FRED delivers on the chain now: remove it from KNOWN_DEFECTS ({:?})",
            out.notes
        );
    }
}
