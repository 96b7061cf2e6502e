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
//! after `C{B+1}` (see [`crate::topology::Route`]); `start`/`stop` are
//! seconds, sugar for one `active=START..STOP` window (a missing `stop`
//! keeps the flow alive to the horizon). The `min_rate` contracts active
//! at any one instant must fit each core link's capacity. For churn,
//! give a flow several activation periods (`active=65..` — an open end
//! keeps it running):
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
//! topologies need explicit `path=` core lists.
//!
//! A `fault { ... }` block injects dirty-network conditions (see
//! [`netsim::FaultPlan`]); one fault directive per line, link/core
//! numbers as in the `topology` directive:
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
//! In a scenario with a churn block, `pause_churn R FROM UNTIL` pauses
//! the control plane of churn route `R`'s ingress edge instead: its
//! flows' starts and stops wait for the pause's end.
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
//!     path     1,2,3       # explicit core path template (repeatable)
//!     weights  1 2 4       # weight classes drawn uniformly
//!     window   0 60        # arrivals during [0 s, 60 s) (default: whole run)
//!     linger   1           # slot drain delay, seconds
//!     shape    1.8         # Pareto tail index
//!     max_arrivals 1000    # cap on total arrivals
//! }
//! ```
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
//!
//! # Values
//!
//! Every value, in every block, goes through one of these converters, so
//! a value the simulator cannot represent is a parse error naming its
//! line — never a panic or a hang at run time.
//!
//! | kind | accepts | used by |
//! |---|---|---|
//! | `secs` | finite seconds in `0..=1.8e10` (under the `u64` nanosecond clock's 584 years) | `horizon` (at least 1 ns), `control_delay`, `linger` |
//! | `interval` | two `secs`, the end after the start once both are rounded to nanoseconds | `start`/`stop`, `active=` (whose end may be open), `window`, `flap`, `pause`, `pause_churn` |
//! | `rate` | finite, per second, at most `1e9` (a mean gap of at least the clock's 1 ns); positive, except that `min_rate` may be 0 | `min_rate=`, `arrivals`, `rate` |
//! | `probability` | `0..=1` | `control_loss`, `marker_loss` |
//! | `count` | an integer from 1 (`weight`: up to `u32::MAX`) | `weight=`, `weights`, `max_arrivals`, `shards` (at most the scenario's nodes: its cores plus two edges per flow and per churn route) |
//! | `index` | an integer below 2^20; checked against the topology once it is known | `marker_loss`, `flap` (link), `pause` (core), `pause_churn` (churn route), `topology chain`/`parking_lot` sizes |
//! | `core_path` | `A-B` (`A < B`) or `C0,C1,…`: two or more cores, none twice, every hop a link of the topology | `route=`/`path=`, churn `route`/`path` |
//!
//! Besides these, `seed` is any `u64`, churn `size` any finite positive
//! number and churn `shape` any finite number above 1.

use std::fmt;
use std::ops::{Bound, RangeBounds};
use std::str::FromStr;

use netsim::fault::FaultWindow;
use netsim::ids::{LinkId, NodeId};
use netsim::{FaultPlan, Transport};
use sim_core::time::{SimDuration, SimTime};

use crate::runner::{Scenario, ScenarioChurn, ScenarioFlow};
use crate::topology::{CorePath, TopologySpec, LINK_CAPACITY_PPS};

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

type Parsed<T> = Result<T, ParseScenarioError>;

/// The largest `secs` value.
const MAX_SECS: f64 = 1.8e10;
/// The largest `rate`: a faster process's gaps would round to 0 ns.
const MAX_RATE: f64 = 1e9;
/// The bound on an `index`. No topology the DSL builds has this many
/// cores or links, and it keeps `route=A-B`, which expands to the cores
/// `A..=B` before the topology is known, a small allocation.
const MAX_INDEX: usize = 1 << 20;

/// The one constructor of a [`ParseScenarioError`].
fn fail(line: usize, message: String) -> ParseScenarioError {
    ParseScenarioError { line, message }
}

/// One directive or `key=value` attribute: its line and its tokens, the
/// name first. The value converters hang off it, so every error they
/// raise names the line.
struct Args<'a> {
    line: usize,
    tokens: Vec<&'a str>,
}

impl Args<'_> {
    fn fail(&self, message: String) -> ParseScenarioError {
        fail(self.line, message)
    }

    /// Checks that `min..=max` arguments follow the name.
    fn arity(&self, min: usize, max: usize) -> Parsed<()> {
        let got = self.tokens.len() - 1;
        if (min..=max).contains(&got) {
            return Ok(());
        }
        let takes = match (min, max) {
            (1, 1) => "1 argument".into(),
            (1, usize::MAX) => "at least 1 argument".into(),
            _ if min == max => format!("{min} arguments"),
            _ => format!("{min} to {max} arguments"),
        };
        Err(self.fail(format!("`{}` takes {takes}, got {got}", self.tokens[0])))
    }

    /// A number in `range`; out of it, an error saying what it `must` do.
    fn number(&self, v: &str, what: &str, range: impl RangeBounds<f64>, must: &str) -> Parsed<f64> {
        let n: f64 = v
            .parse()
            .map_err(|_| self.fail(format!("invalid {what} {v:?}")))?;
        if !range.contains(&n) {
            return Err(self.fail(format!("{what} must {must}, got {v}")));
        }
        Ok(n)
    }

    /// `secs`: the number read, and the span of the clock it rounds to.
    fn secs(&self, v: &str, what: &str) -> Parsed<(f64, SimDuration)> {
        let must = format!("be between 0 and {MAX_SECS:e}");
        let s = self.number(v, what, 0.0..=MAX_SECS, &must)?;
        Ok((s, SimDuration::from_secs_f64(s)))
    }

    /// `interval`: a window `[from, until)` that still holds an instant
    /// after both ends are rounded to nanoseconds.
    fn interval(&self, from: &str, until: &str, what: &str) -> Parsed<(SimTime, SimTime)> {
        let start = SimTime::ZERO + self.secs(from, &format!("{what} start"))?.1;
        let stop = SimTime::ZERO + self.secs(until, &format!("{what} end"))?.1;
        if stop <= start {
            return Err(self.fail(format!(
                "{what} {from}..{until} ends before it starts: \
                 the end must come after start, to the nanosecond"
            )));
        }
        Ok((start, stop))
    }

    /// A flow activation: an `interval`, or from `from` on when `until`
    /// is `None`.
    fn activation(&self, from: &str, until: Option<&str>) -> Parsed<(SimTime, Option<SimTime>)> {
        match until {
            None => Ok((SimTime::ZERO + self.secs(from, "activation start")?.1, None)),
            Some(until) => {
                let (start, stop) = self.interval(from, until, "activation")?;
                Ok((start, Some(stop)))
            }
        }
    }

    /// `rate`, per second; zero only where `may_be_zero`.
    fn rate(&self, v: &str, what: &str, may_be_zero: bool) -> Parsed<f64> {
        let (low, sign) = if may_be_zero {
            (Bound::Included(0.0), "non-negative")
        } else {
            (Bound::Excluded(0.0), "positive")
        };
        let must = format!("be finite and {sign}, at most {MAX_RATE:e}/s");
        self.number(v, what, (low, Bound::Included(MAX_RATE)), &must)
    }

    fn probability(&self, v: &str, what: &str) -> Parsed<f64> {
        self.number(v, what, 0.0..=1.0, "be in [0, 1]")
    }

    fn integer<T: FromStr>(&self, v: &str, what: &str) -> Parsed<T> {
        v.parse()
            .map_err(|_| self.fail(format!("invalid {what} {v:?}")))
    }

    /// `count`: a positive integer of type `T`.
    fn count<T: FromStr + Default + PartialEq>(&self, v: &str, what: &str) -> Parsed<T> {
        let n: T = self.integer(v, what)?;
        if n == T::default() {
            return Err(self.fail(format!("invalid {what} {v:?}: must be positive")));
        }
        Ok(n)
    }

    fn index(&self, v: &str, what: &str) -> Parsed<usize> {
        let i: usize = self.integer(v, what)?;
        if i >= MAX_INDEX {
            return Err(self.fail(format!("{what} {i} out of range (need below {MAX_INDEX})")));
        }
        Ok(i)
    }

    /// `core_path`, written as `route` (`A-B`) or as `path` (`C0,C1,…`).
    fn core_path(&self, form: &str, v: &str) -> Parsed<CorePath> {
        let cores: Vec<usize> = if form == "route" {
            let (a, b) = v
                .split_once('-')
                .ok_or_else(|| self.fail(format!("route must be A-B, got {v:?}")))?;
            let a = self.index(a, "route start")?;
            let b = self.index(b, "route end")?;
            if a >= b {
                return Err(self.fail(format!("route {a}-{b} out of range (need A < B)")));
            }
            (a..=b).collect()
        } else {
            v.split(',')
                .map(|c| self.index(c, "path core"))
                .collect::<Parsed<_>>()?
        };
        if cores.len() < 2 {
            return Err(self.fail(format!("path needs at least two cores, got {v:?}")));
        }
        let mut sorted = cores.clone();
        sorted.sort_unstable();
        if let Some(twice) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(self.fail(format!("path {v} visits core {} twice", twice[0])));
        }
        Ok(CorePath::new(cores))
    }
}

/// What the topology must vouch for once it is known: it may be declared
/// after the flows, churn routes and faults that name its parts.
enum Target {
    Path(CorePath),
    Link(usize),
    Core(usize),
    /// A churn route's ingress, paused over the window.
    ChurnIngress(usize, FaultWindow),
}

/// An open `{ ... }` block: a fault block writes straight into the plan,
/// a churn block fills in its process and hands it over at `}`.
enum Block {
    Fault,
    Churn(ScenarioChurn),
}

/// Parses the scenario DSL (see the module docs).
///
/// # Errors
///
/// Returns a [`ParseScenarioError`] naming the offending line for unknown
/// directives, malformed values, or missing required fields.
pub fn parse_scenario(text: &str) -> Result<Scenario, ParseScenarioError> {
    let mut name: Option<String> = None;
    let mut seed = 0u64;
    let mut shards = (0, 1usize);
    let mut horizon: Option<SimTime> = None;
    let mut topology: Option<TopologySpec> = None;
    let mut flows: Vec<ScenarioFlow> = Vec::new();
    let mut flow_lines = Vec::new();
    let mut faults = FaultPlan::default();
    let mut churn: Option<ScenarioChurn> = None;
    let mut open: Option<(usize, Block)> = None;
    let mut targets: Vec<(usize, Target)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let a = Args {
            line: idx + 1,
            tokens: line.split_whitespace().collect(),
        };
        if let Some((start, mut block)) = open.take() {
            if line != "}" {
                match &mut block {
                    Block::Fault => fault_directive(&a, &mut faults, &mut targets)?,
                    Block::Churn(c) => churn_directive(&a, c, &mut targets)?,
                }
                open = Some((start, block));
            } else if let Block::Churn(c) = block {
                churn = Some(finish_churn(start, c)?);
            }
            continue;
        }
        match a.tokens[0] {
            "name" => name = Some(line["name".len()..].trim().to_owned()),
            "seed" => {
                a.arity(1, 1)?;
                seed = a.integer(a.tokens[1], "seed")?;
            }
            "shards" => {
                a.arity(1, 1)?;
                shards = (a.line, a.count(a.tokens[1], "shards")?);
            }
            "horizon" => {
                a.arity(1, 1)?;
                let span = a.secs(a.tokens[1], "horizon")?.1;
                if span.is_zero() {
                    return Err(a.fail("horizon must be positive, to the nanosecond".into()));
                }
                horizon = Some(SimTime::ZERO + span);
            }
            "flow" => {
                let flow = parse_flow(&a)?;
                targets.push((a.line, Target::Path(flow.path.clone())));
                flow_lines.push(a.line);
                flows.push(flow);
            }
            kind @ ("fault" | "churn") => {
                if a.tokens[1..] != ["{"] {
                    return Err(a.fail(format!("expected `{kind} {{`, got `{line}`")));
                }
                let block = if kind == "fault" {
                    Block::Fault
                } else if churn.is_none() {
                    Block::Churn(ScenarioChurn::new(0.0, 0.0, 0.0))
                } else {
                    return Err(a.fail("duplicate `churn {` block".into()));
                };
                open = Some((a.line, block));
            }
            "topology" => {
                if topology.is_some() {
                    return Err(a.fail("duplicate `topology` directive".into()));
                }
                topology = Some(parse_topology(&a)?);
            }
            other => return Err(a.fail(format!("unknown directive {other:?}"))),
        }
    }

    if let Some((start, block)) = open {
        let kind = match block {
            Block::Fault => "fault",
            Block::Churn(_) => "churn",
        };
        return Err(fail(start, format!("unclosed `{kind} {{` block")));
    }
    let horizon = horizon.ok_or_else(|| fail(0, "missing `horizon` directive".into()))?;
    if flows.is_empty() && churn.is_none() {
        return Err(fail(
            0,
            "no `flow` directives (and no `churn` block)".into(),
        ));
    }
    let topology = topology.unwrap_or_else(TopologySpec::paper_chain);
    let routes = churn.as_ref().map_or(0, |c| c.routes.len());
    check_against(&topology, routes, &targets, &flow_lines, &flows)?;
    for target in &targets {
        if let (_, Target::ChurnIngress(route, window)) = *target {
            let node = Scenario::churn_ingress(topology.core_count, flows.len(), route);
            faults.pauses.push((node, window));
        }
    }
    // A partition deals whole nodes: shards beyond them would be empty.
    let nodes = topology.core_count + 2 * (flows.len() + routes);
    if shards.1 > nodes {
        return Err(fail(
            shards.0,
            format!("shards {} exceeds the scenario's {nodes} nodes", shards.1),
        ));
    }
    // `Scenario.name` is `&'static str` for table labels; leak the parsed
    // name (a CLI parses one scenario per process).
    let name: &'static str = Box::leak(name.unwrap_or_else(|| "cli".into()).into_boxed_str());
    let mut scenario = Scenario::on(topology, name, flows, horizon, seed)
        .with_faults(faults)
        .with_shards(shards.1);
    if let Some(c) = churn {
        scenario = scenario.with_churn(c);
    }
    Ok(scenario)
}

/// The one pass over everything the topology must vouch for: every
/// index and hop names a part of it (a churn route index, one of the
/// `routes` churn routes), and at no instant do the `flow`s' contracts
/// (declared on `lines`) reserve more of a core link than its capacity,
/// which the max-min reference would find infeasible.
fn check_against(
    topology: &TopologySpec,
    routes: usize,
    targets: &[(usize, Target)],
    lines: &[usize],
    flows: &[ScenarioFlow],
) -> Parsed<()> {
    let range = |what: &str, i: usize, limit: usize| {
        (i >= limit).then(|| {
            format!(
                "{what} {i} out of range for topology `{}` ({limit} {what}s)",
                topology.name
            )
        })
    };
    for (line, target) in targets {
        let problem = match target {
            Target::Link(i) => range("link", *i, topology.link_count()),
            Target::Core(i) => range("core", *i, topology.core_count),
            Target::ChurnIngress(i, _) => (*i >= routes)
                .then(|| format!("churn route {i} out of range ({routes} churn routes)")),
            Target::Path(path) => path
                .0
                .iter()
                .find_map(|&c| range("core", c, topology.core_count))
                .or_else(|| {
                    let hop = path
                        .0
                        .windows(2)
                        .find(|h| topology.link_index(h[0], h[1]).is_none())?;
                    Some(format!(
                        "hop {}->{} is not a link of topology `{}`",
                        hop[0], hop[1], topology.name
                    ))
                }),
        };
        if let Some(message) = problem {
            return Err(fail(*line, message));
        }
    }
    let contracted: Vec<_> = lines
        .iter()
        .zip(flows)
        .filter(|(_, f)| f.min_rate > 0.0)
        .map(|(&line, f)| (line, f, f.path.link_indices(topology)))
        .collect();
    // The reservation on a link only grows when a contract starts.
    for (line, f, links) in &contracted {
        for &(t, _) in &f.activations {
            for link in links {
                let reserved: f64 = contracted
                    .iter()
                    .filter(|(_, g, crossed)| crossed.contains(link) && g.is_active_at(t))
                    .map(|(_, g, _)| g.min_rate)
                    .sum();
                if reserved > LINK_CAPACITY_PPS {
                    let over = format!("above its capacity of {LINK_CAPACITY_PPS} pkt/s");
                    let sum = format!("min_rate contracts on link {link} sum to {reserved} pkt/s");
                    return Err(fail(*line, format!("{sum} at {t}, {over}")));
                }
            }
        }
    }
    Ok(())
}

/// Checks, at its `}`, that a churn block said everything it must.
fn finish_churn(open: usize, c: ScenarioChurn) -> Parsed<ScenarioChurn> {
    // The block opened with all three numbers 0; once given, each is
    // positive.
    let missing = [
        (
            c.arrival_rate <= 0.0,
            "churn block needs an `arrivals` rate",
        ),
        (c.mean_size_pkts <= 0.0, "churn block needs a mean `size`"),
        (
            c.nominal_rate_pps <= 0.0,
            "churn block needs a nominal `rate`",
        ),
        (
            c.routes.is_empty(),
            "churn block needs at least one `route` or `path`",
        ),
    ];
    match missing.into_iter().find(|&(missing, _)| missing) {
        Some((_, message)) => Err(fail(open, message.into())),
        None => Ok(c),
    }
}

/// Parses one directive inside a `churn { ... }` block into `c`.
fn churn_directive(
    a: &Args,
    c: &mut ScenarioChurn,
    targets: &mut Vec<(usize, Target)>,
) -> Parsed<()> {
    let v = a.tokens.get(1).copied().unwrap_or("");
    match a.tokens[0] {
        "arrivals" => {
            a.arity(1, 1)?;
            c.arrival_rate = a.rate(v, "arrival rate", false)?;
        }
        "size" => {
            a.arity(1, 1)?;
            let positive = (Bound::Excluded(0.0), Bound::Included(f64::MAX));
            c.mean_size_pkts = a.number(v, "mean flow size", positive, "be finite and positive")?;
        }
        "rate" => {
            a.arity(1, 1)?;
            c.nominal_rate_pps = a.rate(v, "nominal rate", false)?;
        }
        form @ ("route" | "path") => {
            a.arity(1, 1)?;
            let path = a.core_path(form, v)?;
            targets.push((a.line, Target::Path(path.clone())));
            c.routes.push(path);
        }
        "weights" => {
            a.arity(1, usize::MAX)?;
            c.weights = a.tokens[1..]
                .iter()
                .map(|w| a.count(w, "weight"))
                .collect::<Parsed<_>>()?;
        }
        "window" => {
            a.arity(2, 2)?;
            c.window = Some(a.interval(v, a.tokens[2], "window")?);
        }
        "linger" => {
            a.arity(1, 1)?;
            c.linger_secs = a.secs(v, "linger")?.0;
        }
        "shape" => {
            a.arity(1, 1)?;
            let above_one = (Bound::Excluded(1.0), Bound::Included(f64::MAX));
            c.pareto_shape =
                a.number(v, "pareto shape", above_one, "exceed 1 for a finite mean")?;
        }
        "max_arrivals" => {
            a.arity(1, 1)?;
            c.max_arrivals = Some(a.count(v, "max_arrivals")?);
        }
        other => {
            return Err(a.fail(format!(
                "unknown churn directive {other:?} (expected arrivals, size, rate, \
                 route, path, weights, window, linger, shape, or max_arrivals)"
            )))
        }
    }
    Ok(())
}

/// Parses one directive inside a `fault { ... }` block into `faults`.
fn fault_directive(
    a: &Args,
    faults: &mut FaultPlan,
    targets: &mut Vec<(usize, Target)>,
) -> Parsed<()> {
    let v = a.tokens.get(1).copied().unwrap_or("");
    match a.tokens[0] {
        "control_loss" => {
            a.arity(1, 1)?;
            faults.control_loss = a.probability(v, "control loss probability")?;
        }
        "control_delay" => {
            a.arity(1, 2)?;
            faults.control_delay = a.secs(v, "control delay")?.1;
            if let Some(j) = a.tokens.get(2) {
                faults.control_jitter = a.secs(j, "control jitter")?.1;
            }
        }
        "marker_loss" => {
            a.arity(2, 2)?;
            let link = a.index(v, "link index")?;
            let p = a.probability(a.tokens[2], "marker loss probability")?;
            faults.marker_loss.push((LinkId::from_index(link), p));
            targets.push((a.line, Target::Link(link)));
        }
        kind @ ("flap" | "pause" | "pause_churn") => {
            a.arity(3, 3)?;
            let (from, until) = a.interval(a.tokens[2], a.tokens[3], "window")?;
            let window = FaultWindow::new(from, until);
            match kind {
                "flap" => {
                    let link = a.index(v, "link index")?;
                    faults.flaps.push((LinkId::from_index(link), window));
                    targets.push((a.line, Target::Link(link)));
                }
                "pause" => {
                    let core = a.index(v, "core index")?;
                    faults.pauses.push((NodeId::from_index(core), window));
                    targets.push((a.line, Target::Core(core)));
                }
                // Its node is known once the flows are: see `parse_scenario`.
                _ => {
                    let route = a.index(v, "churn route index")?;
                    targets.push((a.line, Target::ChurnIngress(route, window)));
                }
            }
        }
        other => {
            return Err(a.fail(format!(
                "unknown fault directive {other:?} (expected control_loss, \
                 control_delay, marker_loss, flap, pause, or pause_churn)"
            )))
        }
    }
    Ok(())
}

fn parse_topology(a: &Args) -> Parsed<TopologySpec> {
    let kind = a.tokens.get(1).copied().unwrap_or("");
    let size = |what: &str, min: usize| -> Parsed<usize> {
        a.arity(2, 2)?;
        let n = a.index(a.tokens[2], what)?;
        if n < min {
            return Err(a.fail(format!("{what} {n} too small for `topology {kind}`")));
        }
        Ok(n)
    };
    match kind {
        "paper" | "fat_tree" => {
            a.arity(1, 1)?;
            Ok(if kind == "paper" {
                TopologySpec::paper_chain()
            } else {
                TopologySpec::fat_tree()
            })
        }
        "chain" => Ok(TopologySpec::chain(size("core count", 2)?)),
        "parking_lot" => Ok(TopologySpec::parking_lot(size("hop count", 1)?)),
        other => Err(a.fail(format!(
            "unknown topology {other:?} (expected paper, chain, parking_lot, or fat_tree)"
        ))),
    }
}

fn parse_flow(a: &Args) -> Parsed<ScenarioFlow> {
    let mut path: Option<CorePath> = None;
    let mut weight = 1u32;
    let mut min_rate = 0.0f64;
    let (mut start, mut stop) = (None, None);
    let mut activations: Vec<(SimTime, Option<SimTime>)> = Vec::new();
    let mut transport = Transport::default();
    for kv in &a.tokens[1..] {
        let (key, value) = kv
            .split_once('=')
            .ok_or_else(|| a.fail(format!("expected key=value, got {kv:?}")))?;
        match key {
            "route" | "path" => path = Some(a.core_path(key, value)?),
            "weight" => weight = a.count(value, "weight")?,
            "min_rate" => min_rate = a.rate(value, "min_rate", true)?,
            "start" => start = Some(value),
            "stop" => stop = Some(value),
            "active" => {
                let (from, until) = value
                    .split_once("..")
                    .ok_or_else(|| a.fail(format!("active must be START..STOP, got {value:?}")))?;
                activations.push(a.activation(from, Some(until).filter(|u| !u.is_empty()))?);
            }
            "transport" => {
                transport = match value {
                    "limd" => Transport::Limd,
                    "gbn" => Transport::Gbn,
                    "reno" => Transport::Reno,
                    other => {
                        return Err(a.fail(format!(
                            "unknown transport {other:?} (expected limd, gbn, or reno)"
                        )))
                    }
                };
            }
            other => return Err(a.fail(format!("unknown flow attribute {other:?}"))),
        }
    }
    let path = path.ok_or_else(|| a.fail("flow needs route=A-B or path=C0,C1,...".into()))?;
    if start.is_some() || stop.is_some() {
        // Presence, not value, decides the conflict: an explicit
        // `start=0` alongside `active=..` ranges is just as ambiguous
        // as a nonzero one.
        if !activations.is_empty() {
            return Err(a.fail("use either start/stop or active=.. ranges, not both".into()));
        }
        activations.push(a.activation(start.unwrap_or("0"), stop)?);
    }
    if activations.is_empty() {
        activations.push((SimTime::ZERO, None));
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

    #[test]
    fn pause_churn_pauses_a_churn_route_ingress() {
        let text = "horizon 5\nflow route=0-1\nfault {\npause_churn 1 1 2\n}\n\
                    churn {\narrivals 1\nsize 10\nrate 100\nroute 0-1\nroute 2-3\n}\n";
        let s = parse_scenario(text).unwrap();
        let window = FaultWindow::new(SimTime::from_secs(1), SimTime::from_secs(2));
        // Four cores, the flow's two edges, the first route's two: CE2.
        assert_eq!(s.faults.pauses, vec![(NodeId::from_index(8), window)]);
        let e = parse_scenario(&text.replace("pause_churn 1", "pause_churn 2")).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(
            e.message
                .contains("churn route 2 out of range (2 churn routes)"),
            "{}",
            e.message
        );
    }

    /// The parser-side inputs that crashed or hung a run before ISSUE 26:
    /// each is now an error naming its line.
    #[test]
    fn inputs_that_crashed_or_hung_a_run_are_line_numbered_errors() {
        let churn = |directive: &str| {
            format!(
                "horizon 5\nchurn {{\narrivals 10\nsize 20\nrate 100\nroute 0-1\n{directive}\n}}\n"
            )
        };
        for (text, line, needle) in [
            (
                "horizon inf\nflow route=0-1\n".to_owned(),
                1,
                "horizon must be between 0 and",
            ),
            (
                "horizon 1e300\nflow route=0-1\n".into(),
                1,
                "horizon must be between 0 and",
            ),
            (
                "horizon 5\nflow route=0-1 start=-1\n".into(),
                2,
                "activation start must be",
            ),
            (
                "horizon 5\nflow route=0-1 start=nan\n".into(),
                2,
                "activation start must be",
            ),
            (
                "horizon 5\nflow route=0-1 active=0..1e300\n".into(),
                2,
                "activation end must be",
            ),
            (
                "horizon 5\nflow route=0-1 start=1 stop=1.0000000000001\n".into(),
                2,
                "to the nanosecond",
            ),
            (
                "topology fat_tree\nhorizon 5\nflow path=0,4,0\n".into(),
                3,
                "visits core 0 twice",
            ),
            (
                "horizon 5\nflow route=0-1 min_rate=inf\n".into(),
                2,
                "min_rate must be finite",
            ),
            (
                "horizon 5\nflow route=0-1 min_rate=1e12\n".into(),
                2,
                "at most 1e9/s",
            ),
            (
                "horizon 5\nshards 4294967296\nflow route=0-1\n".into(),
                2,
                "exceeds the scenario's 6 nodes",
            ),
            (churn("linger 1e300"), 7, "linger must be between 0 and"),
            (churn("arrivals 1e12"), 7, "at most 1e9/s"),
        ] {
            let e = parse_scenario(&text).unwrap_err();
            assert_eq!(e.line, line, "{text}");
            assert!(e.message.contains(needle), "{text}: {}", e.message);
        }
    }
}
