//! The flow sets and activation schedules behind every evaluation figure.

use corelite::CoreliteConfig;
use csfq::CsfqConfig;
use netsim::Transport;
use sim_core::time::SimTime;

use crate::discipline::{Corelite, Csfq, Discipline};
use crate::runner::{Scenario, ScenarioFlow};
use crate::topology::{Route, TopologySpec};

/// The seed of every table binary's runs (`figures`, `compare`, …): the
/// paper's year, ICDCS 2000.
pub const SEED: u64 = 20000;

/// §4.1 (Figures 3 and 4): 20 flows with the paper's weights; flows 1, 9,
/// 10, 11 and 16 live only during `[250 s, 500 s)`, all others during
/// `[0 s, 750 s)`. Expected allotted rates per unit weight: 33.33 pkt/s
/// while 15 units of weight share each link, 25 pkt/s while all 20 do.
pub fn fig3_4(seed: u64) -> Scenario {
    let late = [1, 9, 10, 11, 16];
    let flows = (1..=20)
        .map(|i| ScenarioFlow {
            transport: Default::default(),
            path: Route::of_paper_flow(i).into(),
            weight: Route::paper_weight(i),
            min_rate: 0.0,
            activations: if late.contains(&i) {
                vec![(SimTime::from_secs(250), Some(SimTime::from_secs(500)))]
            } else {
                vec![(SimTime::ZERO, Some(SimTime::from_secs(750)))]
            },
        })
        .collect();
    Scenario::paper(
        "fig3_4_network_dynamics",
        flows,
        SimTime::from_secs(800),
        seed,
    )
}

/// §4.2 (Figures 5 and 6): flows 1–10 of the paper topology start
/// simultaneously with weights `⌈i/2⌉` (1, 1, 2, 2, 3, 3, 4, 4, 5, 5).
/// The bottleneck is C1–C2 with total weight 30 ⇒ 16.67 pkt/s per unit
/// weight.
pub fn fig5_6(seed: u64) -> Scenario {
    let flows = (1..=10)
        .map(|i| ScenarioFlow {
            transport: Default::default(),
            path: Route::of_paper_flow(i).into(),
            weight: (i as u32).div_ceil(2),
            min_rate: 0.0,
            activations: vec![(SimTime::ZERO, None)],
        })
        .collect();
    Scenario::paper(
        "fig5_6_simultaneous_start",
        flows,
        SimTime::from_secs(80),
        seed,
    )
}

/// The §4.3 weights: flows 1, 11, 16 have weight 1; flows 5, 10, 15
/// weight 3; all others weight 2.
fn staggered_weight(i: usize) -> u32 {
    match i {
        1 | 11 | 16 => 1,
        5 | 10 | 15 => 3,
        _ => 2,
    }
}

/// §4.3 (Figures 7 and 8): 20 flows enter one second apart in ascending
/// order and stay for the rest of the run.
pub fn fig7_8(seed: u64) -> Scenario {
    let flows = (1..=20)
        .map(|i| ScenarioFlow {
            transport: Default::default(),
            path: Route::of_paper_flow(i).into(),
            weight: staggered_weight(i),
            min_rate: 0.0,
            activations: vec![(SimTime::from_secs((i - 1) as u64), None)],
        })
        .collect();
    Scenario::paper(
        "fig7_8_staggered_start",
        flows,
        SimTime::from_secs(80),
        seed,
    )
}

/// §4.3 (Figures 9 and 10): flows start one second apart, live for 60
/// seconds, stop one second apart, and restart 5 seconds after stopping —
/// flows are simultaneously entering and leaving during `[65 s, 80 s]`.
pub fn fig9_10(seed: u64) -> Scenario {
    let flows = (1..=20)
        .map(|i| {
            let start = (i - 1) as u64;
            let stop = start + 60;
            let restart = stop + 5;
            ScenarioFlow {
                transport: Default::default(),
                path: Route::of_paper_flow(i).into(),
                weight: staggered_weight(i),
                min_rate: 0.0,
                activations: vec![
                    (SimTime::from_secs(start), Some(SimTime::from_secs(stop))),
                    (SimTime::from_secs(restart), None),
                ],
            }
        })
        .collect();
    Scenario::paper("fig9_10_churn", flows, SimTime::from_secs(160), seed)
}

/// Closed-loop-vs-open-loop fairness on the paper chain: the ten
/// fig5/6 flows (weights `⌈i/2⌉`), but every even-numbered flow runs
/// the ack-clocked Reno go-back-N transport while odd ones keep the
/// paper's open-loop LIMD edge. The weighted max-min reference is
/// unchanged — 16.67 pkt/s per unit weight at the C1–C2 bottleneck —
/// so any gap between cohorts is the transports', not the topology's.
pub fn mixed_transports(seed: u64) -> Scenario {
    let flows = (1..=10)
        .map(|i| ScenarioFlow {
            path: Route::of_paper_flow(i).into(),
            weight: (i as u32).div_ceil(2),
            min_rate: 0.0,
            activations: vec![(SimTime::ZERO, None)],
            transport: if i % 2 == 0 {
                Transport::Reno
            } else {
                Transport::Limd
            },
        })
        .collect();
    Scenario::paper(
        "mixed_transports_chain",
        flows,
        SimTime::from_secs(80),
        seed,
    )
}

/// All three transports contending on the 4×2 fat-tree: leaf 0 sends
/// to each other leaf through spine 0, leaf 1 to each other leaf
/// through spine 1 — so each group of three flows shares its
/// leaf-to-spine uplink (weights 1, 2, 3 ⇒ 83.3/166.7/250 pkt/s
/// shares), and every group mixes all three transports (rotated
/// between groups so each transport sees each weight). The non-chain
/// case for mixed-transport fairness.
pub fn mixed_transports_fat_tree(seed: u64) -> Scenario {
    let transports = [Transport::Limd, Transport::Gbn, Transport::Reno];
    let groups = [(0usize, 0usize, 0usize), (1, 1, 1)]; // (src leaf, spine, transport rotation)
    let flows = groups
        .iter()
        .flat_map(|&(src, spine, rot)| {
            (0..TopologySpec::FAT_TREE_LEAVES)
                .filter(move |&dst| dst != src)
                .enumerate()
                .map(move |(k, dst)| ScenarioFlow {
                    path: TopologySpec::fat_tree_path(src, dst, spine),
                    weight: k as u32 + 1,
                    min_rate: 0.0,
                    activations: vec![(SimTime::ZERO, None)],
                    transport: transports[(k + rot) % transports.len()],
                })
        })
        .collect();
    Scenario::on(
        TopologySpec::fat_tree(),
        "mixed_transports_fat_tree",
        flows,
        SimTime::from_secs(80),
        seed,
    )
}

/// One evaluation figure of the paper (Figures 3–10; 1 and 2 are
/// diagrams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperFigure {
    /// Corelite instantaneous rate under network dynamics (§4.1).
    Fig3,
    /// Corelite cumulative service under network dynamics (§4.1).
    Fig4,
    /// Corelite instantaneous rate, simultaneous start (§4.2).
    Fig5,
    /// CSFQ instantaneous rate, simultaneous start (§4.2).
    Fig6,
    /// Corelite instantaneous rate, staggered start (§4.3).
    Fig7,
    /// CSFQ instantaneous rate, staggered start (§4.3).
    Fig8,
    /// Corelite instantaneous rate under churn (§4.3).
    Fig9,
    /// CSFQ instantaneous rate under churn (§4.3).
    Fig10,
}

impl PaperFigure {
    /// All evaluation figures in paper order.
    pub const ALL: [PaperFigure; 8] = [
        PaperFigure::Fig3,
        PaperFigure::Fig4,
        PaperFigure::Fig5,
        PaperFigure::Fig6,
        PaperFigure::Fig7,
        PaperFigure::Fig8,
        PaperFigure::Fig9,
        PaperFigure::Fig10,
    ];

    /// Lowercase identifier (`"fig3"`, ...).
    pub fn name(&self) -> &'static str {
        match self {
            PaperFigure::Fig3 => "fig3",
            PaperFigure::Fig4 => "fig4",
            PaperFigure::Fig5 => "fig5",
            PaperFigure::Fig6 => "fig6",
            PaperFigure::Fig7 => "fig7",
            PaperFigure::Fig8 => "fig8",
            PaperFigure::Fig9 => "fig9",
            PaperFigure::Fig10 => "fig10",
        }
    }

    /// Parses `"fig3"`-style names.
    pub fn from_name(name: &str) -> Option<PaperFigure> {
        PaperFigure::ALL.into_iter().find(|f| f.name() == name)
    }

    /// The scenario this figure runs.
    pub fn scenario(&self, seed: u64) -> Scenario {
        match self {
            PaperFigure::Fig3 | PaperFigure::Fig4 => fig3_4(seed),
            PaperFigure::Fig5 | PaperFigure::Fig6 => fig5_6(seed),
            PaperFigure::Fig7 | PaperFigure::Fig8 => fig7_8(seed),
            PaperFigure::Fig9 | PaperFigure::Fig10 => fig9_10(seed),
        }
    }

    /// The discipline this figure plots, with the paper's default
    /// parameters.
    pub fn discipline(&self) -> Box<dyn Discipline> {
        match self {
            PaperFigure::Fig3
            | PaperFigure::Fig4
            | PaperFigure::Fig5
            | PaperFigure::Fig7
            | PaperFigure::Fig9 => Box::new(Corelite::new(CoreliteConfig::default())),
            PaperFigure::Fig6 | PaperFigure::Fig8 | PaperFigure::Fig10 => {
                Box::new(Csfq::new(CsfqConfig::default()))
            }
        }
    }

    /// True when the figure plots cumulative service rather than
    /// instantaneous rate.
    pub fn is_cumulative(&self) -> bool {
        matches!(self, PaperFigure::Fig4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_schedule_matches_paper() {
        let s = fig3_4(1);
        assert_eq!(s.flows.len(), 20);
        // Flow 9 (index 8) lives only in [250, 500).
        assert_eq!(
            s.flows[8].activations,
            vec![(SimTime::from_secs(250), Some(SimTime::from_secs(500)))]
        );
        assert_eq!(s.active_at(SimTime::from_secs(100)).len(), 15);
        assert_eq!(s.active_at(SimTime::from_secs(300)).len(), 20);
        assert_eq!(s.active_at(SimTime::from_secs(600)).len(), 15);
        assert_eq!(s.active_at(SimTime::from_secs(760)).len(), 0);
    }

    #[test]
    fn fig3_expected_rates_match_paper_numbers() {
        let s = fig3_4(1);
        // All flows active: 25 pkt/s per unit weight.
        let mid = s.expected_rates_at(SimTime::from_secs(300));
        assert!((mid[4] - 75.0).abs() < 1e-6, "flow 5 {}", mid[4]);
        assert!((mid[0] - 25.0).abs() < 1e-6, "flow 1 {}", mid[0]);
        assert!((mid[1] - 50.0).abs() < 1e-6, "flow 2 {}", mid[1]);
        // Subset active: 33.33 pkt/s per unit weight.
        let early = s.expected_rates_at(SimTime::from_secs(100));
        assert!((early[4] - 99.999).abs() < 0.01, "flow 5 {}", early[4]);
        assert!((early[1] - 66.666).abs() < 0.01, "flow 2 {}", early[1]);
        assert_eq!(early[0], 0.0);
    }

    #[test]
    fn fig5_weights_are_ceil_i_over_2() {
        let s = fig5_6(1);
        let weights: Vec<u32> = s.flows.iter().map(|f| f.weight).collect();
        assert_eq!(weights, vec![1, 1, 2, 2, 3, 3, 4, 4, 5, 5]);
        // Bottleneck C1-C2 (weight 30): 16.67 per unit weight.
        let expect = s.expected_rates_at(SimTime::from_secs(10));
        assert!((expect[9] - 5.0 * 500.0 / 30.0).abs() < 1e-6);
        assert!((expect[6] - 4.0 * 500.0 / 30.0).abs() < 1e-6);
    }

    #[test]
    fn fig7_flows_start_one_second_apart() {
        let s = fig7_8(1);
        assert_eq!(s.active_at(SimTime::from_secs_f64(0.5)).len(), 1);
        assert_eq!(s.active_at(SimTime::from_secs_f64(10.5)).len(), 11);
        assert_eq!(s.active_at(SimTime::from_secs(50)).len(), 20);
        assert_eq!(s.flows[9].weight, 3); // §4.3: flow 10 has weight 3
    }

    #[test]
    fn fig9_flows_restart_after_five_seconds() {
        let s = fig9_10(1);
        // Flow 1: [0, 60) then [65, ∞).
        assert_eq!(
            s.flows[0].activations,
            vec![
                (SimTime::ZERO, Some(SimTime::from_secs(60))),
                (SimTime::from_secs(65), None)
            ]
        );
        // At t = 62.5 flow 1 is off but flow 20 (started t=19, stops t=79)
        // is still on.
        let active = s.active_at(SimTime::from_secs_f64(62.5));
        assert!(!active.contains(&0));
        assert!(active.contains(&19));
    }

    #[test]
    fn figure_lookup_round_trips() {
        for f in PaperFigure::ALL {
            assert_eq!(PaperFigure::from_name(f.name()), Some(f));
        }
        assert_eq!(PaperFigure::from_name("fig99"), None);
        assert!(PaperFigure::Fig4.is_cumulative());
        assert!(!PaperFigure::Fig3.is_cumulative());
    }

    #[test]
    fn disciplines_alternate_corelite_csfq() {
        assert_eq!(PaperFigure::Fig5.discipline().name(), "corelite");
        assert_eq!(PaperFigure::Fig6.discipline().name(), "csfq");
        assert_eq!(PaperFigure::Fig9.discipline().name(), "corelite");
        assert_eq!(PaperFigure::Fig10.discipline().name(), "csfq");
    }
}
