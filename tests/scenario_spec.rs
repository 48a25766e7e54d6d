//! The scenario DSL's contract: specs round-trip through JSON
//! bit-identically, malformed experiments are rejected with a typed
//! error naming the offending field, and every checked-in spec under
//! `scenarios/` (the CI matrix) parses, validates, and plans.

use mdn_core::scenario::{
    run, AppSpec, EmissionSpec, EmitSpec, ExpectSpec, FaultSpec, ScenarioBuilder, ScenarioError,
    ScenarioSpec, TrafficSpec,
};
use mdn_obs::Registry;
use proptest::prelude::*;

/// A spec that strays from the defaults in every block, so the
/// round-trip exercises the whole tree, not just the overlay's no-op
/// path.
fn golden() -> ScenarioSpec {
    let mut spec = ScenarioSpec::leaf_spine_hall(3, 2, 8, 5);
    spec.name = "golden".into();
    spec.seed = 77;
    spec.sample_rate = 48_000;
    spec.window_ms = 250;
    spec.hall.ambient_spl = Some(48.5);
    spec.hall.gc = false;
    spec.selfheal.threads = 4;
    spec.emissions = EmissionSpec {
        pattern: "explicit".into(),
        offset_ms: 40,
        duration_ms: 120,
        slot: None,
        explicit: vec![
            EmitSpec {
                window: 0,
                permil: 250,
                dev: 2,
                slot: 1,
                dur_ms: 90,
            },
            EmitSpec {
                window: 4,
                permil: 0,
                dev: 17,
                slot: 7,
                dur_ms: 60,
            },
        ],
    };
    spec.traffic = TrafficSpec {
        topology: "leaf_spine".into(),
        spines: 2,
        leaves: 8,
        pps: 120.5,
        size: 640,
        stagger_ms: 10,
        ..TrafficSpec::default()
    };
    spec.faults = vec![
        FaultSpec {
            kind: "mic_dead".into(),
            cell: Some(1),
            at_ms: 300,
            radius_m: 2.5,
            ..FaultSpec::default()
        },
        FaultSpec {
            kind: "music".into(),
            cell: Some(0),
            at_ms: 250,
            until_ms: Some(1000),
            level_db: Some(92.0),
            tempo_bpm: 180.0,
            notes: vec![440.0, 660.0],
            ..FaultSpec::default()
        },
        FaultSpec {
            kind: "link_flap".into(),
            leaf: Some(3),
            at_ms: 500,
            until_ms: Some(750),
            ..FaultSpec::default()
        },
    ];
    spec.apps = vec![AppSpec {
        at_ms: 100,
        token: 9,
    }];
    spec.output.bench_json = Some("results/golden.json".into());
    spec.output.trace_cap = Some(4096);
    spec.expect = ExpectSpec {
        min_availability: Some(0.9),
        replans: Some(1),
        replanned_cell: Some(1),
        drops: Some(true),
        ..ExpectSpec::default()
    };
    spec
}

/// spec → JSON → spec is the identity, and the re-serialized text is
/// byte-identical — nothing is lost, reordered, or defaulted away.
#[test]
fn golden_spec_round_trips_bit_identically() {
    let spec = golden();
    spec.validate().expect("golden spec validates");
    let json = spec.to_json();
    let back = ScenarioSpec::from_json(&json).expect("reparse");
    assert_eq!(back, spec, "round-trip changed the spec");
    assert_eq!(back.to_json(), json, "round-trip changed the JSON text");
}

/// A default spec round-trips too (the all-defaults overlay).
#[test]
fn default_spec_round_trips() {
    let spec = ScenarioSpec::default();
    let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
    assert_eq!(back, spec);
}

/// A typo'd knob must not silently run the default experiment.
#[test]
fn unknown_keys_are_hard_errors() {
    for text in [
        r#"{"windoes": 4}"#,
        r#"{"hall": {"cels": 2}}"#,
        r#"{"expect": {"min_avalability": 0.9}}"#,
    ] {
        match ScenarioSpec::from_json(text) {
            Err(ScenarioError::Parse(_)) => {}
            other => panic!("typo in {text} not rejected as a parse error: {other:?}"),
        }
    }
}

/// The rejection table: each structural violation is refused with the
/// offending field's dotted path.
#[test]
fn validation_rejects_malformed_specs_by_field() {
    type Mutation = Box<dyn Fn(&mut ScenarioSpec)>;
    let mutations: Vec<(&str, Mutation)> = vec![
        ("windows", Box::new(|s| s.windows = 0)),
        ("window_ms", Box::new(|s| s.window_ms = 0)),
        ("hall.cells", Box::new(|s| s.hall.cells = 0)),
        ("hall.ambient", Box::new(|s| s.hall.ambient = "cave".into())),
        ("hall.speaker", Box::new(|s| s.hall.speaker = "horn".into())),
        // Overlapping cells: racks spaced wider than the cell pitch.
        (
            "hall.cell.cell_pitch_m",
            Box::new(|s| {
                s.hall.cell.rack_spacing_m = 7.0;
                s.hall.cell.cell_pitch_m = 6.5;
            }),
        ),
        (
            "emissions.pattern",
            Box::new(|s| s.emissions.pattern = "sometimes".into()),
        ),
        (
            "emissions.duration_ms",
            Box::new(|s| s.emissions.duration_ms = 0),
        ),
        // Slot outside the per-switch set.
        ("emissions.slot", Box::new(|s| s.emissions.slot = Some(99))),
        (
            "emissions.explicit",
            Box::new(|s| {
                s.emissions.pattern = "explicit".into();
                s.emissions.explicit = vec![EmitSpec {
                    window: 99,
                    permil: 0,
                    dev: 0,
                    slot: 0,
                    dur_ms: 50,
                }];
            }),
        ),
        (
            "traffic.topology",
            Box::new(|s| s.traffic.topology = "ring".into()),
        ),
        (
            "traffic.pps",
            Box::new(|s| {
                s.traffic.topology = "pair".into();
                s.traffic.pps = 0.0;
            }),
        ),
        (
            "faults[0]",
            Box::new(|s| {
                s.faults = vec![FaultSpec {
                    kind: "earthquake".into(),
                    at_ms: 100,
                    ..FaultSpec::default()
                }]
            }),
        ),
        (
            "faults[0]",
            Box::new(|s| {
                s.faults = vec![FaultSpec {
                    kind: "mic_dead".into(),
                    cell: Some(99),
                    at_ms: 100,
                    ..FaultSpec::default()
                }]
            }),
        ),
        (
            "faults[0]",
            Box::new(|s| {
                s.faults = vec![FaultSpec {
                    kind: "noise_burst".into(),
                    at_ms: 500,
                    until_ms: Some(400),
                    ..FaultSpec::default()
                }]
            }),
        ),
        (
            "faults[0]",
            Box::new(|s| {
                s.faults = vec![FaultSpec {
                    kind: "speaker_dropout".into(),
                    at_ms: 100,
                    ..FaultSpec::default()
                }]
            }),
        ),
        // A fault landing at the horizon: validated specs must never
        // reach the builder's fault-window panic.
        (
            "faults[0]",
            Box::new(|s| {
                s.faults = vec![FaultSpec {
                    kind: "noise_burst".into(),
                    at_ms: s.window_ms * s.windows,
                    ..FaultSpec::default()
                }]
            }),
        ),
        // link_flap without a fabric to flap.
        (
            "faults[0]",
            Box::new(|s| {
                s.faults = vec![FaultSpec {
                    kind: "link_flap".into(),
                    leaf: Some(0),
                    at_ms: 100,
                    until_ms: Some(200),
                    ..FaultSpec::default()
                }]
            }),
        ),
        (
            "apps[0]",
            Box::new(|s| {
                s.apps = vec![AppSpec {
                    at_ms: 10_000_000,
                    token: 0,
                }]
            }),
        ),
    ];
    for (field, mutate) in mutations {
        let mut spec = ScenarioSpec::small_hall(2, 2, 3, "office");
        mutate(&mut spec);
        match spec.validate() {
            Err(ScenarioError::Invalid { field: got, .. }) => assert!(
                got.contains(field),
                "expected rejection naming `{field}`, got `{got}`"
            ),
            other => panic!("mutation of `{field}` not rejected: {other:?}"),
        }
    }
}

/// Slots the speaker cannot drive are refused by the planner, not
/// silently dropped: a 100-cell hall needs sub-bands past the cheap
/// testbed speaker's ceiling, so planning it without ultrasound
/// hardware must fail.
#[test]
fn planner_rejects_slots_outside_the_speaker_band() {
    let mut spec = ScenarioSpec::leaf_spine_hall(100, 2, 8, 2);
    spec.hall.speaker = "cheap".into();
    match ScenarioBuilder::new(&spec).map(|_| ()) {
        Err(ScenarioError::Plan(_)) => {}
        other => panic!("cheap-speaker 100-cell hall not rejected by the planner: {other:?}"),
    }
}

/// Every checked-in spec — the CI scenario matrix — parses, validates,
/// and plans. A spec that rots in the repo fails here first.
#[test]
fn all_checked_in_scenarios_parse_validate_and_plan() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("scenarios/ exists") {
        let path = entry.expect("read scenarios/").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let spec = ScenarioSpec::load(path.to_str().unwrap())
            .unwrap_or_else(|e| panic!("{path:?} failed to parse: {e}"));
        ScenarioBuilder::new(&spec)
            .unwrap_or_else(|e| panic!("{path:?} failed to validate/plan: {e}"));
        seen += 1;
    }
    assert!(seen >= 8, "scenario matrix shrank to {seen} specs");
}

/// One structure-aware edit of a checked-in spec, aimed at the edges
/// `validate` has to police.
#[derive(Debug, Clone)]
enum Edit {
    /// Move fault `fault` (modulo the fault count) to `at`, lifting at
    /// `until` (`None` = never).
    FaultTimes {
        fault: usize,
        at: Edge,
        until: Option<Edge>,
    },
    /// Insert a fault of `FAULT_KINDS[kind]` at `at`, lifting at `until`.
    Insert {
        kind: usize,
        at: Edge,
        until: Option<Edge>,
    },
    /// Shrink the hall to one cell.
    OneCell,
    /// Set `selfheal.threads`.
    Threads(usize),
}

/// A fault time at one of the horizon's edges.
#[derive(Debug, Clone, Copy)]
enum Edge {
    Zero,
    LastMs,
    Horizon,
}

impl Edge {
    fn ms(self, horizon: u64) -> u64 {
        match self {
            Edge::Zero => 0,
            Edge::LastMs => horizon - 1,
            Edge::Horizon => horizon,
        }
    }
}

const FAULT_KINDS: [&str; 6] = [
    "mic_dead",
    "speaker_dropout",
    "speaker_degraded",
    "noise_burst",
    "music",
    "link_flap",
];

fn edge() -> impl Strategy<Value = Edge> {
    prop_oneof![Just(Edge::Zero), Just(Edge::LastMs), Just(Edge::Horizon)]
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0usize..4, edge(), prop::option::of(edge()))
            .prop_map(|(fault, at, until)| Edit::FaultTimes { fault, at, until }),
        (0usize..FAULT_KINDS.len(), edge(), prop::option::of(edge()))
            .prop_map(|(kind, at, until)| Edit::Insert { kind, at, until }),
        Just(Edit::OneCell),
        prop_oneof![Just(0usize), Just(1), Just(4)].prop_map(Edit::Threads),
    ]
}

/// The checked-in specs, cut to at most 4 windows, 4 cells, a 2 × 4
/// leaf-spine fabric and a 20 ms controller linger, so a debug build runs
/// each in well under a second.
/// Fault, app and cell references are pulled inside the cut, so the cut
/// spec still validates and every edit starts from a runnable spec.
fn cut_specs() -> Vec<(String, ScenarioSpec)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/ exists")
        .map(|e| e.expect("read scenarios/").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let mut spec = ScenarioSpec::load(path.to_str().unwrap()).expect("spec parses");
            spec.windows = spec.windows.min(4);
            spec.hall.cells = spec.hall.cells.min(4);
            spec.traffic.spines = spec.traffic.spines.min(2);
            spec.traffic.leaves = spec.traffic.leaves.min(4);
            spec.output = Default::default();
            spec.controller.linger_ms = spec.controller.linger_ms.min(20);
            let horizon = spec.window_ms * spec.windows;
            for f in &mut spec.faults {
                f.at_ms = f.at_ms.min(horizon - 1);
                f.until_ms = f.until_ms.map(|u| u.min(horizon));
                f.cell = f.cell.map(|c| c.min(spec.hall.cells - 1));
                f.leaf = f.leaf.map(|l| l.min(spec.traffic.leaves - 1));
            }
            spec.apps.retain(|a| a.at_ms < horizon);
            spec.validate()
                .unwrap_or_else(|e| panic!("{name} cut to size no longer validates: {e}"));
            (name, spec)
        })
        .collect()
}

fn apply(spec: &mut ScenarioSpec, edit: &Edit) {
    let horizon = spec.window_ms * spec.windows;
    match *edit {
        Edit::FaultTimes { fault, at, until } => {
            let n = spec.faults.len();
            if let Some(f) = spec.faults.get_mut(fault % n.max(1)) {
                f.at_ms = at.ms(horizon);
                f.until_ms = until.map(|u| u.ms(horizon));
            }
        }
        Edit::Insert { kind, at, until } => spec.faults.push(FaultSpec {
            kind: FAULT_KINDS[kind].into(),
            at_ms: at.ms(horizon),
            until_ms: until.map(|u| u.ms(horizon)),
            cell: Some(0),
            device: Some("c0-s0".into()),
            level_db: Some(20.0),
            leaf: Some(0),
            ..FaultSpec::default()
        }),
        Edit::OneCell => spec.hall.cells = 1,
        Edit::Threads(t) => spec.selfheal.threads = t,
    }
}

/// The random edits below rarely land a valid insertion of every kind, so
/// pin one: each of the six fault kinds, inserted at time 0 and at the
/// horizon's last millisecond into the leaf-spine spec, validates and runs.
#[test]
fn every_fault_kind_at_the_horizon_edges_runs() {
    let (_, base) = cut_specs()
        .into_iter()
        .find(|(name, _)| name == "link_flap.json")
        .expect("link_flap.json is checked in");
    for kind in 0..FAULT_KINDS.len() {
        for at in [Edge::Zero, Edge::LastMs] {
            let mut spec = base.clone();
            let edit = Edit::Insert {
                kind,
                at,
                until: Some(Edge::Horizon),
            };
            apply(&mut spec, &edit);
            spec.validate()
                .unwrap_or_else(|e| panic!("{edit:?} should validate: {e}"));
            let run = std::panic::catch_unwind(|| run(&spec, &Registry::new()));
            assert!(run.is_ok(), "{edit:?} panicked after validating");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Validate ⇒ no panic: every checked-in spec, cut to size and edited
    /// at fault-time edges (0, horizon − 1, horizon), with inserted faults
    /// of every kind, one cell, or 0/1/4 shard threads, either fails
    /// `validate` or runs to `Ok` or a typed `ScenarioError`.
    #[test]
    fn validated_specs_never_panic(
        edits in prop::collection::vec(prop::collection::vec(edit(), 1..3), 16..17),
    ) {
        let specs = cut_specs();
        prop_assert!(specs.len() <= edits.len(), "one edit list per checked-in spec");
        for ((name, mut spec), edits) in specs.into_iter().zip(&edits) {
            for e in edits {
                apply(&mut spec, e);
            }
            if spec.validate().is_err() {
                continue;
            }
            let run = std::panic::catch_unwind(|| run(&spec, &Registry::new()));
            prop_assert!(run.is_ok(), "{name} with {edits:?} panicked after validating");
        }
    }
}
