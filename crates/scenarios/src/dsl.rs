//! A tiny text format for describing experiments, used by the
//! `corelite-sim` CLI.
//!
//! One directive per line; `#` starts a comment. Example:
//!
//! ```text
//! # three flows on the paper topology
//! name     my_experiment
//! seed     7
//! horizon  120
//! flow     route=0-1 weight=2
//! flow     route=0-3 weight=1 start=10 stop=60
//! flow     route=1-2 weight=3 min_rate=50
//! ```
//!
//! `route=A-B` means the flow enters the core chain at `C{A+1}` and exits
//! after `C{B+1}` (see [`crate::topology::Route`]); `start`/`stop` are seconds (a missing
//! `stop` keeps the flow alive to the horizon). For churn, give a flow
//! several activation periods with `active=START..STOP` attributes
//! (`active=0..60 active=65.. ` — an open end keeps it running):
//!
//! ```text
//! flow route=0-1 weight=2 active=0..60 active=65..
//! ```
//!
//! A `transport=` attribute picks the ingress sender: the default
//! open-loop `limd` rate controller, or a closed-loop go-back-N sender
//! clocked by cumulative acks — `gbn` (window-LIMD congestion control)
//! or `reno` (slow start + AIMD):
//!
//! ```text
//! flow route=0-2 weight=2 transport=reno
//! ```
//!
//! A `topology` directive selects the core network (default
//! `topology paper` — the Figure-2 chain):
//!
//! ```text
//! topology chain 6        # a 6-core chain
//! topology parking_lot 4  # 4 congested hops
//! topology fat_tree       # 4 leaves x 2 spines
//! flow path=0,4,3 weight=2  # explicit core path (fat-tree needs one)
//! ```
//!
//! `route=A-B` shorthand works on any chain topology; non-chain
//! topologies need explicit `path=` core lists. Every flow's path is
//! validated against the topology's links after parsing.
//!
//! A `fault { ... }` block injects dirty-network conditions (see
//! [`netsim::FaultPlan`]); one fault directive per line, times in
//! seconds, link/core numbers as in the `topology` directive:
//!
//! ```text
//! fault {
//!     control_loss  0.2        # lose 20% of control messages
//!     control_delay 0.05 0.01  # +50 ms, up to 10 ms jitter
//!     marker_loss   1 0.5      # strip half the markers on core link 1
//!     flap          0 10 12    # core link 0 down during [10 s, 12 s)
//!     pause         2 30 31    # core 2's control plane pauses [30, 31)
//! }
//! ```
//!
//! Link and core indices are validated against the topology after
//! parsing, like flow paths.
//!
//! A `churn { ... }` block installs a dynamic flow-arrival process (see
//! [`crate::runner::ScenarioChurn`]); a scenario with a churn block may
//! omit static `flow` directives entirely:
//!
//! ```text
//! churn {
//!     arrivals 20          # Poisson arrival rate, flows per second
//!     size     50          # mean flow size, packets (Pareto)
//!     rate     100         # nominal send rate, pkt/s
//!     route    0-1         # route template (repeatable)
//!     path     0,4,3       # explicit core path template (repeatable)
//!     weights  1 2 4       # weight classes drawn uniformly
//!     window   0 60        # arrivals during [0 s, 60 s) (default: whole run)
//!     linger   1           # slot drain delay, seconds
//!     shape    1.8         # Pareto tail index
//!     max_arrivals 1000    # cap on total arrivals
//! }
//! ```
//!
//! Churn route templates are validated against the topology exactly like
//! static flow paths.
//!
//! A `shards` directive runs the scenario on the sharded parallel engine
//! with that many workers (`shards 1`, the default, is the serial
//! engine). Results are byte-identical at every shard count, so the knob
//! only changes wall-clock behaviour; `corelite-sim --shards N`
//! overrides it from the command line:
//!
//! ```text
//! shards 4
//! ```

use std::fmt;

use netsim::fault::FaultWindow;
use netsim::ids::{LinkId, NodeId};
use netsim::{FaultPlan, Transport};
use sim_core::time::{SimDuration, SimTime};

use crate::runner::{Scenario, ScenarioChurn, ScenarioFlow};
use crate::topology::{CorePath, TopologySpec};

/// A parse failure, with the offending 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScenarioError {
    /// 1-based line of the failure.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseScenarioError {}

/// Parses the scenario DSL (see the module docs).
///
/// # Errors
///
/// Returns a [`ParseScenarioError`] naming the offending line for unknown
/// directives, malformed values, or missing required fields.
pub fn parse_scenario(text: &str) -> Result<Scenario, ParseScenarioError> {
    let mut name: Option<String> = None;
    let mut seed = 0u64;
    let mut shards: usize = 1;
    let mut horizon: Option<f64> = None;
    let mut topology: Option<TopologySpec> = None;
    let mut flows: Vec<(usize, ScenarioFlow)> = Vec::new();
    let mut faults = FaultPlan::default();
    // `(line, kind, index)` of every fault directive that names a link or
    // core — validated against the topology once it is known.
    let mut fault_indices: Vec<(usize, FaultIndex, usize)> = Vec::new();
    let mut fault_block_open: Option<usize> = None;
    let mut churn: Option<ChurnDraft> = None;
    let mut churn_block_open: Option<usize> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| ParseScenarioError {
            line: line_no,
            message,
        };
        if fault_block_open.is_some() {
            if line == "}" {
                fault_block_open = None;
            } else if let Some(named) = parse_fault_directive(line, line_no, &mut faults)? {
                fault_indices.push(named);
            }
            continue;
        }
        if churn_block_open.is_some() {
            if line == "}" {
                churn_block_open = None;
            } else {
                let draft = churn.as_mut().expect("open block implies a draft");
                parse_churn_directive(line, line_no, draft)?;
            }
            continue;
        }
        let (directive, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match directive {
            "name" => name = Some(rest.to_owned()),
            "seed" => {
                seed = rest
                    .parse()
                    .map_err(|_| err(format!("invalid seed {rest:?}")))?;
            }
            "shards" => {
                shards = rest
                    .parse()
                    .map_err(|_| err(format!("invalid shards {rest:?}")))?;
                if shards == 0 {
                    return Err(err("shards must be at least 1".into()));
                }
            }
            "horizon" => {
                let h: f64 = rest
                    .parse()
                    .map_err(|_| err(format!("invalid horizon {rest:?}")))?;
                if h <= 0.0 || h.is_nan() {
                    return Err(err("horizon must be positive".into()));
                }
                horizon = Some(h);
            }
            "flow" => flows.push((line_no, parse_flow(rest, line_no)?)),
            "fault" => {
                if rest != "{" {
                    return Err(err(format!("expected `fault {{`, got `fault {rest}`")));
                }
                fault_block_open = Some(line_no);
            }
            "churn" => {
                if rest != "{" {
                    return Err(err(format!("expected `churn {{`, got `churn {rest}`")));
                }
                if churn.is_some() {
                    return Err(err("duplicate `churn {` block".into()));
                }
                churn = Some(ChurnDraft::new(line_no));
                churn_block_open = Some(line_no);
            }
            "topology" => {
                if topology.is_some() {
                    return Err(err("duplicate `topology` directive".into()));
                }
                topology = Some(parse_topology(rest, line_no)?);
            }
            other => return Err(err(format!("unknown directive {other:?}"))),
        }
    }

    if let Some(open) = fault_block_open {
        return Err(ParseScenarioError {
            line: open,
            message: "unclosed `fault {` block".into(),
        });
    }
    if let Some(open) = churn_block_open {
        return Err(ParseScenarioError {
            line: open,
            message: "unclosed `churn {` block".into(),
        });
    }
    let horizon = horizon.ok_or(ParseScenarioError {
        line: 0,
        message: "missing `horizon` directive".into(),
    })?;
    if flows.is_empty() && churn.is_none() {
        return Err(ParseScenarioError {
            line: 0,
            message: "no `flow` directives (and no `churn` block)".into(),
        });
    }
    let churn = churn.map(ChurnDraft::finish).transpose()?;
    let topology = topology.unwrap_or_else(TopologySpec::paper_chain);
    // Paths were only range-checked during parsing; check them against
    // the topology's actual links now that it is known. Churn route
    // templates get exactly the same validation as static flow paths.
    let churn_routes = churn
        .iter()
        .flat_map(|c| c.routes.iter().map(|&(line, ref path)| (line, path)));
    for (line, path) in flows
        .iter()
        .map(|&(line, ref f)| (line, &f.path))
        .chain(churn_routes)
    {
        for hop in path.0.windows(2) {
            if hop[0] >= topology.core_count || hop[1] >= topology.core_count {
                return Err(ParseScenarioError {
                    line,
                    message: format!(
                        "core {} out of range for topology `{}` ({} cores)",
                        hop[0].max(hop[1]),
                        topology.name,
                        topology.core_count
                    ),
                });
            }
            if topology.link_index(hop[0], hop[1]).is_none() {
                return Err(ParseScenarioError {
                    line,
                    message: format!(
                        "hop {}->{} is not a link of topology `{}`",
                        hop[0], hop[1], topology.name
                    ),
                });
            }
        }
    }
    // Same late validation for fault targets.
    for &(line, kind, index) in &fault_indices {
        let (what, limit) = match kind {
            FaultIndex::Link => ("link", topology.link_count()),
            FaultIndex::Core => ("core", topology.core_count),
        };
        if index >= limit {
            return Err(ParseScenarioError {
                line,
                message: format!(
                    "{what} {index} out of range for topology `{}` ({limit} {what}s)",
                    topology.name
                ),
            });
        }
    }
    // `Scenario.name` is `&'static str` for table labels; leak the parsed
    // name (a CLI parses one scenario per process).
    let name: &'static str = Box::leak(name.unwrap_or_else(|| "cli".into()).into_boxed_str());
    let mut scenario = Scenario::on(
        topology,
        name,
        flows.into_iter().map(|(_, f)| f).collect(),
        SimTime::from_secs_f64(horizon),
        seed,
    )
    .with_faults(faults)
    .with_shards(shards);
    if let Some(c) = churn {
        scenario = scenario.with_churn(c.spec);
    }
    Ok(scenario)
}

/// A `churn { ... }` block under construction, with line-tagged routes
/// for late validation against the topology.
#[derive(Debug)]
struct ChurnDraft {
    open_line: usize,
    arrivals: Option<f64>,
    size: Option<f64>,
    rate: Option<f64>,
    routes: Vec<(usize, CorePath)>,
    weights: Option<Vec<u32>>,
    window: Option<(f64, f64)>,
    linger: Option<f64>,
    shape: Option<f64>,
    max_arrivals: Option<u64>,
}

/// A finished churn block: the spec to install, plus line-tagged routes
/// for validation against the (possibly later-declared) topology.
#[derive(Debug)]
struct ParsedChurn {
    routes: Vec<(usize, CorePath)>,
    spec: ScenarioChurn,
}

impl ChurnDraft {
    fn new(open_line: usize) -> Self {
        ChurnDraft {
            open_line,
            arrivals: None,
            size: None,
            rate: None,
            routes: Vec::new(),
            weights: None,
            window: None,
            linger: None,
            shape: None,
            max_arrivals: None,
        }
    }

    fn finish(self) -> Result<ParsedChurn, ParseScenarioError> {
        let err = |message: String| ParseScenarioError {
            line: self.open_line,
            message,
        };
        let arrivals = self
            .arrivals
            .ok_or_else(|| err("churn block needs an `arrivals` rate".into()))?;
        let size = self
            .size
            .ok_or_else(|| err("churn block needs a mean `size`".into()))?;
        let rate = self
            .rate
            .ok_or_else(|| err("churn block needs a nominal `rate`".into()))?;
        if self.routes.is_empty() {
            return Err(err(
                "churn block needs at least one `route` or `path`".into()
            ));
        }
        let mut spec = ScenarioChurn::new(arrivals, size, rate);
        for (_, path) in &self.routes {
            spec = spec.route(path.clone());
        }
        if let Some(weights) = self.weights {
            spec = spec.weights(weights);
        }
        if let Some((from, until)) = self.window {
            spec = spec.window(SimTime::from_secs_f64(from), SimTime::from_secs_f64(until));
        }
        if let Some(linger) = self.linger {
            spec.linger_secs = linger;
        }
        if let Some(shape) = self.shape {
            spec.pareto_shape = shape;
        }
        spec.max_arrivals = self.max_arrivals;
        Ok(ParsedChurn {
            routes: self.routes,
            spec,
        })
    }
}

/// Parses one directive inside a `churn { ... }` block into `draft`.
fn parse_churn_directive(
    line: &str,
    line_no: usize,
    draft: &mut ChurnDraft,
) -> Result<(), ParseScenarioError> {
    let err = |message: String| ParseScenarioError {
        line: line_no,
        message,
    };
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let expect_args = |n: usize| -> Result<(), ParseScenarioError> {
        if tokens.len() - 1 != n {
            return Err(err(format!(
                "`{}` takes {n} argument{}, got {}",
                tokens[0],
                if n == 1 { "" } else { "s" },
                tokens.len() - 1
            )));
        }
        Ok(())
    };
    let positive = |v: &str, what: &str| -> Result<f64, ParseScenarioError> {
        let n: f64 = v
            .parse()
            .map_err(|_| err(format!("invalid {what} {v:?}")))?;
        if !n.is_finite() || n <= 0.0 {
            return Err(err(format!("{what} must be finite and positive, got {n}")));
        }
        Ok(n)
    };
    match tokens[0] {
        "arrivals" => {
            expect_args(1)?;
            draft.arrivals = Some(positive(tokens[1], "arrival rate")?);
        }
        "size" => {
            expect_args(1)?;
            draft.size = Some(positive(tokens[1], "mean flow size")?);
        }
        "rate" => {
            expect_args(1)?;
            draft.rate = Some(positive(tokens[1], "nominal rate")?);
        }
        "route" => {
            expect_args(1)?;
            let (a, b) = tokens[1]
                .split_once('-')
                .ok_or_else(|| err(format!("route must be A-B, got {:?}", tokens[1])))?;
            let a: usize = a
                .parse()
                .map_err(|_| err(format!("invalid route start {a:?}")))?;
            let b: usize = b
                .parse()
                .map_err(|_| err(format!("invalid route end {b:?}")))?;
            if a >= b {
                return Err(err(format!("route {a}-{b} out of range (need A < B)")));
            }
            draft
                .routes
                .push((line_no, CorePath::new((a..=b).collect())));
        }
        "path" => {
            expect_args(1)?;
            let cores: Vec<usize> = tokens[1]
                .split(',')
                .map(|c| {
                    c.parse()
                        .map_err(|_| err(format!("invalid path core {c:?}")))
                })
                .collect::<Result<_, _>>()?;
            if cores.len() < 2 {
                return Err(err(format!(
                    "path needs at least two cores, got {:?}",
                    tokens[1]
                )));
            }
            draft.routes.push((line_no, CorePath::new(cores)));
        }
        "weights" => {
            if tokens.len() < 2 {
                return Err(err("`weights` needs at least one weight class".into()));
            }
            let weights: Vec<u32> = tokens[1..]
                .iter()
                .map(|w| {
                    w.parse::<u32>()
                        .ok()
                        .filter(|&w| w > 0)
                        .ok_or_else(|| err(format!("invalid weight {w:?}")))
                })
                .collect::<Result<_, _>>()?;
            draft.weights = Some(weights);
        }
        "window" => {
            expect_args(2)?;
            let from: f64 = tokens[1]
                .parse()
                .map_err(|_| err(format!("invalid window start {:?}", tokens[1])))?;
            let until = positive(tokens[2], "window end")?;
            if !from.is_finite() || from < 0.0 || until <= from {
                return Err(err(format!("window {from}..{until} ends before it starts")));
            }
            draft.window = Some((from, until));
        }
        "linger" => {
            expect_args(1)?;
            draft.linger = Some(positive(tokens[1], "linger")?);
        }
        "shape" => {
            expect_args(1)?;
            let shape = positive(tokens[1], "pareto shape")?;
            if shape <= 1.0 {
                return Err(err(format!(
                    "pareto shape must exceed 1 for a finite mean, got {shape}"
                )));
            }
            draft.shape = Some(shape);
        }
        "max_arrivals" => {
            expect_args(1)?;
            let n: u64 = tokens[1]
                .parse()
                .map_err(|_| err(format!("invalid max_arrivals {:?}", tokens[1])))?;
            if n == 0 {
                return Err(err("max_arrivals must be positive".into()));
            }
            draft.max_arrivals = Some(n);
        }
        other => {
            return Err(err(format!(
                "unknown churn directive {other:?} (expected arrivals, size, rate, \
                 route, path, weights, window, linger, shape, or max_arrivals)"
            )))
        }
    }
    Ok(())
}

/// The largest number a fault directive may carry: as seconds, a little
/// under the `u64` nanosecond clock's 584 years.
const MAX_SECS: f64 = 1.8e10;

/// Which kind of entity a fault directive indexed, for late validation.
#[derive(Debug, Clone, Copy)]
enum FaultIndex {
    Link,
    Core,
}

/// Parses one directive inside a `fault { ... }` block into `faults`.
/// Returns the named link/core index, if the directive has one, for
/// validation against the topology.
fn parse_fault_directive(
    line: &str,
    line_no: usize,
    faults: &mut FaultPlan,
) -> Result<Option<(usize, FaultIndex, usize)>, ParseScenarioError> {
    let err = |message: String| ParseScenarioError {
        line: line_no,
        message,
    };
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let expect_args = |n: usize| -> Result<(), ParseScenarioError> {
        if tokens.len() - 1 != n {
            return Err(err(format!(
                "`{}` takes {n} argument{}, got {}",
                tokens[0],
                if n == 1 { "" } else { "s" },
                tokens.len() - 1
            )));
        }
        Ok(())
    };
    let number = |v: &str, what: &str| -> Result<f64, ParseScenarioError> {
        let n: f64 = v
            .parse()
            .map_err(|_| err(format!("invalid {what} {v:?}")))?;
        // The upper bound keeps seconds convertible to simulator time, so
        // no directive can reach a panic in `SimTime` or `FaultWindow`.
        if !(0.0..=MAX_SECS).contains(&n) {
            return Err(err(format!(
                "{what} must be between 0 and {MAX_SECS:e}, got {v}"
            )));
        }
        Ok(n)
    };
    let probability = |v: &str, what: &str| -> Result<f64, ParseScenarioError> {
        let p = number(v, what)?;
        if p > 1.0 {
            return Err(err(format!("{what} must be in [0, 1], got {p}")));
        }
        Ok(p)
    };
    let index = |v: &str, what: &str| -> Result<usize, ParseScenarioError> {
        v.parse().map_err(|_| err(format!("invalid {what} {v:?}")))
    };
    let window = |a: &str, b: &str| -> Result<FaultWindow, ParseScenarioError> {
        let from = SimTime::from_secs_f64(number(a, "window start")?);
        let until = SimTime::from_secs_f64(number(b, "window end")?);
        if until <= from {
            return Err(err(format!("window {a}..{b} ends before it starts")));
        }
        Ok(FaultWindow::new(from, until))
    };
    match tokens[0] {
        "control_loss" => {
            expect_args(1)?;
            faults.control_loss = probability(tokens[1], "control loss probability")?;
            Ok(None)
        }
        "control_delay" => {
            if tokens.len() < 2 || tokens.len() > 3 {
                return Err(err("`control_delay` takes DELAY [JITTER] in seconds".into()));
            }
            faults.control_delay = SimDuration::from_secs_f64(number(tokens[1], "control delay")?);
            if let Some(j) = tokens.get(2) {
                faults.control_jitter = SimDuration::from_secs_f64(number(j, "control jitter")?);
            }
            Ok(None)
        }
        "marker_loss" => {
            expect_args(2)?;
            let link = index(tokens[1], "link index")?;
            let p = probability(tokens[2], "marker loss probability")?;
            faults.marker_loss.push((LinkId::from_index(link), p));
            Ok(Some((line_no, FaultIndex::Link, link)))
        }
        "flap" => {
            expect_args(3)?;
            let link = index(tokens[1], "link index")?;
            faults
                .flaps
                .push((LinkId::from_index(link), window(tokens[2], tokens[3])?));
            Ok(Some((line_no, FaultIndex::Link, link)))
        }
        "pause" => {
            expect_args(3)?;
            let core = index(tokens[1], "core index")?;
            faults
                .pauses
                .push((NodeId::from_index(core), window(tokens[2], tokens[3])?));
            Ok(Some((line_no, FaultIndex::Core, core)))
        }
        other => Err(err(format!(
            "unknown fault directive {other:?} (expected control_loss, \
             control_delay, marker_loss, flap, or pause)"
        ))),
    }
}

fn parse_topology(rest: &str, line: usize) -> Result<TopologySpec, ParseScenarioError> {
    let err = |message: String| ParseScenarioError { line, message };
    let mut parts = rest.split_whitespace();
    let kind = parts.next().unwrap_or("");
    let arg = parts.next();
    if parts.next().is_some() {
        return Err(err(format!("too many arguments to `topology {kind}`")));
    }
    let parse_arg = |what: &str| -> Result<usize, ParseScenarioError> {
        let v = arg.ok_or_else(|| err(format!("`topology {kind}` needs a {what}")))?;
        let n: usize = v
            .parse()
            .map_err(|_| err(format!("invalid {what} {v:?}")))?;
        if n < if kind == "chain" { 2 } else { 1 } {
            return Err(err(format!("{what} {n} too small for `topology {kind}`")));
        }
        Ok(n)
    };
    match kind {
        "paper" => Ok(TopologySpec::paper_chain()),
        "chain" => Ok(TopologySpec::chain(parse_arg("core count")?)),
        "parking_lot" => Ok(TopologySpec::parking_lot(parse_arg("hop count")?)),
        "fat_tree" => {
            if arg.is_some() {
                return Err(err("`topology fat_tree` takes no argument".into()));
            }
            Ok(TopologySpec::fat_tree())
        }
        other => Err(err(format!(
            "unknown topology {other:?} (expected paper, chain, parking_lot, or fat_tree)"
        ))),
    }
}

fn parse_flow(rest: &str, line: usize) -> Result<ScenarioFlow, ParseScenarioError> {
    let err = |message: String| ParseScenarioError { line, message };
    let mut path: Option<CorePath> = None;
    let mut weight = 1u32;
    let mut min_rate = 0.0f64;
    let mut start: Option<f64> = None;
    let mut stop: Option<f64> = None;
    let mut activations: Vec<(SimTime, Option<SimTime>)> = Vec::new();
    let mut transport = Transport::default();
    for kv in rest.split_whitespace() {
        let (key, value) = kv
            .split_once('=')
            .ok_or_else(|| err(format!("expected key=value, got {kv:?}")))?;
        match key {
            "route" => {
                let (a, b) = value
                    .split_once('-')
                    .ok_or_else(|| err(format!("route must be A-B, got {value:?}")))?;
                let a: usize = a
                    .parse()
                    .map_err(|_| err(format!("invalid route start {a:?}")))?;
                let b: usize = b
                    .parse()
                    .map_err(|_| err(format!("invalid route end {b:?}")))?;
                if a >= b {
                    return Err(err(format!("route {a}-{b} out of range (need A < B)")));
                }
                path = Some(CorePath::new((a..=b).collect()));
            }
            "path" => {
                let cores: Vec<usize> = value
                    .split(',')
                    .map(|c| {
                        c.parse()
                            .map_err(|_| err(format!("invalid path core {c:?}")))
                    })
                    .collect::<Result<_, _>>()?;
                if cores.len() < 2 {
                    return Err(err(format!("path needs at least two cores, got {value:?}")));
                }
                path = Some(CorePath::new(cores));
            }
            "weight" => {
                weight = value
                    .parse()
                    .map_err(|_| err(format!("invalid weight {value:?}")))?;
                if weight == 0 {
                    return Err(err("weight must be positive".into()));
                }
            }
            "min_rate" => {
                min_rate = value
                    .parse()
                    .map_err(|_| err(format!("invalid min_rate {value:?}")))?;
                if min_rate < 0.0 {
                    return Err(err("min_rate must be non-negative".into()));
                }
            }
            "start" => {
                start = Some(
                    value
                        .parse()
                        .map_err(|_| err(format!("invalid start {value:?}")))?,
                );
            }
            "stop" => {
                stop = Some(
                    value
                        .parse()
                        .map_err(|_| err(format!("invalid stop {value:?}")))?,
                );
            }
            "active" => {
                let (a, b) = value
                    .split_once("..")
                    .ok_or_else(|| err(format!("active must be START..STOP, got {value:?}")))?;
                let a: f64 = a
                    .parse()
                    .map_err(|_| err(format!("invalid activation start {a:?}")))?;
                let b: Option<f64> = if b.is_empty() {
                    None
                } else {
                    Some(
                        b.parse()
                            .map_err(|_| err(format!("invalid activation stop {b:?}")))?,
                    )
                };
                if let Some(b) = b {
                    if b <= a {
                        return Err(err(format!("activation {a}..{b} ends before it starts")));
                    }
                }
                activations.push((SimTime::from_secs_f64(a), b.map(SimTime::from_secs_f64)));
            }
            "transport" => {
                transport = match value {
                    "limd" => Transport::Limd,
                    "gbn" => Transport::Gbn,
                    "reno" => Transport::Reno,
                    other => {
                        return Err(err(format!(
                            "unknown transport {other:?} (expected limd, gbn, or reno)"
                        )))
                    }
                };
            }
            other => return Err(err(format!("unknown flow attribute {other:?}"))),
        }
    }
    let path = path.ok_or_else(|| err("flow needs route=A-B or path=C0,C1,...".into()))?;
    if let Some(stop) = stop {
        let from = start.unwrap_or(0.0);
        if stop <= from {
            return Err(err(format!("stop {stop} must be after start {from}")));
        }
    }
    if activations.is_empty() {
        activations.push((
            SimTime::from_secs_f64(start.unwrap_or(0.0)),
            stop.map(SimTime::from_secs_f64),
        ));
    } else if start.is_some() || stop.is_some() {
        // Presence, not value, decides the conflict: an explicit
        // `start=0` alongside `active=..` ranges is just as ambiguous
        // as a nonzero one.
        return Err(err(
            "use either start/stop or active=.. ranges, not both".into()
        ));
    }
    Ok(ScenarioFlow {
        path,
        weight,
        min_rate,
        activations,
        transport,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Route;

    const GOOD: &str = "\
# demo
name demo
seed 9
horizon 30
flow route=0-1 weight=2
flow route=0-3 weight=1 start=5 stop=20 min_rate=10
";

    #[test]
    fn parses_a_full_scenario() {
        let s = parse_scenario(GOOD).unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!(s.seed, 9);
        assert_eq!(s.horizon, SimTime::from_secs(30));
        assert_eq!(s.flows.len(), 2);
        assert_eq!(s.topology, crate::topology::TopologySpec::paper_chain());
        assert_eq!(s.flows[0].path, Route::new(0, 1).into());
        assert_eq!(s.flows[0].weight, 2);
        assert_eq!(s.flows[1].min_rate, 10.0);
        assert_eq!(
            s.flows[1].activations,
            vec![(SimTime::from_secs(5), Some(SimTime::from_secs(20)))]
        );
    }

    #[test]
    fn transport_attribute_parses_and_defaults() {
        let s = parse_scenario(
            "horizon 10\nflow route=0-1 transport=reno\nflow route=0-1 transport=gbn\n\
             flow route=0-1 transport=limd\nflow route=0-1\n",
        )
        .unwrap();
        assert_eq!(s.flows[0].transport, Transport::Reno);
        assert_eq!(s.flows[1].transport, Transport::Gbn);
        assert_eq!(s.flows[2].transport, Transport::Limd);
        assert_eq!(s.flows[3].transport, Transport::Limd);
        let e = parse_scenario("horizon 10\nflow route=0-1 transport=tcp\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown transport"), "{}", e.message);
    }

    #[test]
    fn shards_directive_selects_the_sharded_engine() {
        let s = parse_scenario("horizon 10\nshards 4\nflow route=0-1\n").unwrap();
        assert_eq!(s.shards, 4);
        // Default is the serial engine.
        let s = parse_scenario("horizon 10\nflow route=0-1\n").unwrap();
        assert_eq!(s.shards, 1);
        for bad in ["shards 0", "shards -1", "shards x"] {
            let e = parse_scenario(&format!("horizon 10\n{bad}\nflow route=0-1\n")).unwrap_err();
            assert_eq!(e.line, 2, "{bad}");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let s = parse_scenario("horizon 10 # trailing\n\n# full line\nflow route=0-1\n").unwrap();
        assert_eq!(s.flows.len(), 1);
        assert_eq!(s.flows[0].weight, 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_scenario("horizon 10\nbogus directive\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
        assert!(e.to_string().starts_with("line 2"));
    }

    #[test]
    fn missing_horizon_rejected() {
        let e = parse_scenario("flow route=0-1\n").unwrap_err();
        assert!(e.message.contains("horizon"));
    }

    #[test]
    fn missing_flows_rejected() {
        let e = parse_scenario("horizon 5\n").unwrap_err();
        assert!(e.message.contains("flow"));
    }

    #[test]
    fn bad_route_rejected() {
        for bad in ["route=3-1", "route=0-9", "route=x-1", "route=01"] {
            let e = parse_scenario(&format!("horizon 5\nflow {bad}\n")).unwrap_err();
            assert_eq!(e.line, 2, "{bad}");
        }
    }

    #[test]
    fn topology_directive_selects_the_core_network() {
        let s = parse_scenario("topology chain 6\nhorizon 10\nflow route=0-5\n").unwrap();
        assert_eq!(s.topology.core_count, 6);
        assert_eq!(s.flows[0].path.0, vec![0, 1, 2, 3, 4, 5]);
        let s = parse_scenario("topology fat_tree\nhorizon 10\nflow path=0,4,3\n").unwrap();
        assert_eq!(s.topology.name, "fat_tree");
        assert_eq!(s.flows[0].path.0, vec![0, 4, 3]);
    }

    #[test]
    fn paths_are_validated_against_the_topology() {
        // route=0-5 is fine on a 6-core chain but not on the paper chain.
        let e = parse_scenario("horizon 10\nflow route=0-5\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("out of range"), "{}", e.message);
        // A leaf-to-leaf hop skips the spine: not a fat-tree link.
        let e = parse_scenario("topology fat_tree\nhorizon 10\nflow path=0,3\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("not a link"), "{}", e.message);
    }

    #[test]
    fn bad_topology_directives_rejected() {
        for bad in [
            "topology mesh",
            "topology chain",
            "topology chain x",
            "topology chain 1",
            "topology fat_tree 3",
            "topology paper extra stuff",
        ] {
            let e = parse_scenario(&format!("{bad}\nhorizon 5\nflow route=0-1\n")).unwrap_err();
            assert_eq!(e.line, 1, "{bad}");
        }
        let e = parse_scenario("topology paper\ntopology paper\nhorizon 5\nflow route=0-1\n")
            .unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn inverted_activation_rejected() {
        let e = parse_scenario("horizon 5\nflow route=0-1 start=4 stop=2\n").unwrap_err();
        assert!(e.message.contains("after start"));
    }

    #[test]
    fn active_ranges_support_churn() {
        let s = parse_scenario(
            "horizon 100
flow route=0-1 active=0..60 active=65..
",
        )
        .unwrap();
        assert_eq!(
            s.flows[0].activations,
            vec![
                (SimTime::ZERO, Some(SimTime::from_secs(60))),
                (SimTime::from_secs(65), None),
            ]
        );
    }

    #[test]
    fn active_and_start_stop_are_exclusive() {
        let e = parse_scenario(
            "horizon 100
flow route=0-1 start=5 active=0..60
",
        )
        .unwrap_err();
        assert!(e.message.contains("not both"));
    }

    #[test]
    fn inverted_active_range_rejected() {
        let e = parse_scenario(
            "horizon 100
flow route=0-1 active=60..60
",
        )
        .unwrap_err();
        assert!(e.message.contains("ends before"));
    }

    #[test]
    fn unknown_flow_attribute_rejected() {
        let e = parse_scenario("horizon 5\nflow route=0-1 color=red\n").unwrap_err();
        assert!(e.message.contains("color"));
    }

    #[test]
    fn fault_block_parses_every_directive() {
        let s = parse_scenario(
            "horizon 30
flow route=0-1
fault {
    control_loss  0.2   # comments still work
    control_delay 0.05 0.01
    marker_loss   1 0.5
    flap          0 10 12
    pause         2 20 21
}
",
        )
        .unwrap();
        let expected = FaultPlan::new()
            .control_loss(0.2)
            .control_delay(SimDuration::from_millis(50), SimDuration::from_millis(10))
            .marker_loss(LinkId::from_index(1), 0.5)
            .flap(
                LinkId::from_index(0),
                SimTime::from_secs(10),
                SimTime::from_secs(12),
            )
            .pause(
                NodeId::from_index(2),
                SimTime::from_secs(20),
                SimTime::from_secs(21),
            );
        assert_eq!(s.faults, expected);
    }

    #[test]
    fn scenarios_without_faults_stay_clean() {
        let s = parse_scenario(GOOD).unwrap();
        assert!(s.faults.is_empty());
    }

    #[test]
    fn unclosed_fault_block_rejected() {
        let e =
            parse_scenario("horizon 5\nflow route=0-1\nfault {\ncontrol_loss 0.1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unclosed"), "{}", e.message);
    }

    #[test]
    fn malformed_fault_directives_rejected() {
        for (bad, needle) in [
            ("fault", "expected `fault {`"),
            ("fault on", "expected `fault {`"),
            ("fault {\nwiggle 1 2\n}", "unknown fault directive"),
            ("fault {\ncontrol_loss 1.5\n}", "must be in [0, 1]"),
            ("fault {\ncontrol_loss\n}", "takes 1 argument"),
            ("fault {\nflap 0 12 10\n}", "ends before it starts"),
            ("fault {\npause 0 5 5\n}", "ends before it starts"),
            // Equal after rounding to nanoseconds, and past the clock:
            // both must be parse errors, never `FaultPlan` panics.
            ("fault {\nflap 0 1 1.0000000000001\n}", "before it starts"),
            ("fault {\npause 0 1 1e300\n}", "must be between 0 and"),
            ("fault {\ncontrol_delay inf\n}", "must be between 0 and"),
            ("fault {\nmarker_loss x 0.5\n}", "invalid link index"),
        ] {
            let e = parse_scenario(&format!("horizon 5\nflow route=0-1\n{bad}\n")).unwrap_err();
            assert!(e.message.contains(needle), "{bad}: {}", e.message);
        }
    }

    #[test]
    fn churn_block_parses_every_directive() {
        let s = parse_scenario(
            "horizon 60
flow route=0-1 weight=2
churn {
    arrivals 20      # comments still work
    size     50
    rate     100
    route    0-1
    path     1,2,3
    weights  1 2 4
    window   5 30
    linger   2
    shape    1.5
    max_arrivals 500
}
",
        )
        .unwrap();
        let c = s.churn.expect("churn installed");
        assert_eq!(c.arrival_rate, 20.0);
        assert_eq!(c.mean_size_pkts, 50.0);
        assert_eq!(c.nominal_rate_pps, 100.0);
        assert_eq!(c.routes.len(), 2);
        assert_eq!(c.routes[0].0, vec![0, 1]);
        assert_eq!(c.routes[1].0, vec![1, 2, 3]);
        assert_eq!(c.weights, vec![1, 2, 4]);
        assert_eq!(
            c.window,
            Some((SimTime::from_secs(5), SimTime::from_secs(30)))
        );
        assert_eq!(c.linger_secs, 2.0);
        assert_eq!(c.pareto_shape, 1.5);
        assert_eq!(c.max_arrivals, Some(500));
    }

    #[test]
    fn pure_churn_scenarios_need_no_static_flows() {
        let s = parse_scenario(
            "horizon 60
churn {
    arrivals 10
    size 20
    rate 100
    route 0-3
}
",
        )
        .unwrap();
        assert!(s.flows.is_empty());
        let c = s.churn.expect("churn installed");
        assert_eq!(c.window, None, "default window covers the whole run");
        assert_eq!(c.weights, vec![1]);
    }

    #[test]
    fn churn_routes_validated_against_topology() {
        let e =
            parse_scenario("horizon 60\nchurn {\narrivals 10\nsize 20\nrate 100\nroute 0-5\n}\n")
                .unwrap_err();
        assert_eq!(e.line, 6);
        assert!(e.message.contains("out of range"), "{}", e.message);
        let e = parse_scenario(
            "topology fat_tree\nhorizon 60\nchurn {\narrivals 10\nsize 20\nrate 100\npath 0,3\n}\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 7);
        assert!(e.message.contains("not a link"), "{}", e.message);
    }

    #[test]
    fn malformed_churn_blocks_rejected() {
        for (bad, needle) in [
            ("churn", "expected `churn {`"),
            ("churn on", "expected `churn {`"),
            ("churn {\narrivals 10\nsize 20\nrate 100\nroute 0-1\n}\nchurn {\narrivals 1\nsize 1\nrate 1\nroute 0-1\n}", "duplicate `churn {`"),
            ("churn {\nwiggle 1\n}", "unknown churn directive"),
            ("churn {\nsize 20\nrate 100\nroute 0-1\n}", "needs an `arrivals`"),
            ("churn {\narrivals 10\nrate 100\nroute 0-1\n}", "needs a mean `size`"),
            ("churn {\narrivals 10\nsize 20\nroute 0-1\n}", "needs a nominal `rate`"),
            ("churn {\narrivals 10\nsize 20\nrate 100\n}", "at least one `route`"),
            ("churn {\narrivals 0\n}", "must be finite and positive"),
            ("churn {\nshape 0.9\n}", "must exceed 1"),
            ("churn {\nwindow 30 5\n}", "ends before it starts"),
            ("churn {\nroute 3-1\n}", "need A < B"),
            ("churn {\nweights 1 0\n}", "invalid weight"),
            ("churn {\nmax_arrivals 0\n}", "must be positive"),
        ] {
            let e = parse_scenario(&format!("horizon 5\nflow route=0-1\n{bad}\n")).unwrap_err();
            assert!(e.message.contains(needle), "{bad}: {}", e.message);
        }
    }

    #[test]
    fn unclosed_churn_block_rejected() {
        let e = parse_scenario("horizon 5\nchurn {\narrivals 10\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unclosed"), "{}", e.message);
    }

    #[test]
    fn fault_targets_validated_against_topology() {
        // The paper chain has 3 core links and 4 cores.
        let e = parse_scenario("horizon 5\nflow route=0-1\nfault {\nflap 3 1 2\n}\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("link 3 out of range"), "{}", e.message);
        let e = parse_scenario("horizon 5\nflow route=0-1\nfault {\npause 4 1 2\n}\n").unwrap_err();
        assert!(e.message.contains("core 4 out of range"), "{}", e.message);
        // A longer chain makes the same indices valid.
        let s = parse_scenario(
            "topology chain 6\nhorizon 5\nflow route=0-5\nfault {\nflap 3 1 2\npause 4 1 2\n}\n",
        )
        .unwrap();
        let window = FaultWindow::new(SimTime::from_secs(1), SimTime::from_secs(2));
        assert_eq!(s.faults.flaps, vec![(LinkId::from_index(3), window)]);
        assert_eq!(s.faults.pauses, vec![(NodeId::from_index(4), window)]);
    }
}
