//! The repository benchmark: end-to-end and per-layer metrics of the
//! scenario harness, over the workload specs in `workloads/`.
//!
//! ```text
//! mdn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload:
//!
//! 1. `scenario::run` is repeated with a disabled `Registry` (no metrics,
//!    no tracing) until `--seconds` have passed. Medians over those runs
//!    give `realtime_factor` and `peak_rss_mb`; `miss_frac` is simulated
//!    and identical across them.
//! 2. Between those runs, set-up (`ScenarioBuilder::new` + `build`) is
//!    timed repeatedly; the median is `setup_s`.
//! 3. A traced run (`Registry::with_trace`) and an acoustic replay in the
//!    batch idiom of `scenario::run_batch` check the outputs: both must
//!    reproduce the untraced run's simulated statistics exactly.
//! 4. With `--trace 1`, the traced run's registry snapshot, the replay's
//!    spans and a bed-only re-render give the per-layer metrics.
//!
//! Everything is measured from outside the crates: spans are timed here,
//! around calls to public functions, and counts are read from the
//! outcome and from the registry the program already publishes into.
//! The last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. An operation is one scenario
//! execution (a timed run, the traced run or the replay); it fails when
//! it breaks a correctness check, and then no metrics are reported.

use mdn_acoustics::scene::Scene;
use mdn_audio::signal::Window;
use mdn_core::scenario::{self, ScenarioBuilder, ScenarioOutcome, ScenarioSpec, WindowReport};
use mdn_obs::{Registry, Snapshot};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workload specs, by name. Each pins `selfheal.threads` so the
/// work per run does not depend on the host's core count.
const WORKLOADS: &[(&str, &str)] = &[
    ("hall_steady", include_str!("../workloads/hall_steady.json")),
    ("fabric_soak", include_str!("../workloads/fabric_soak.json")),
    (
        "chaos_datacenter",
        include_str!("../workloads/chaos_datacenter.json"),
    ),
];

/// Timed runs per invocation, at least, whatever `--seconds` says: the
/// medians need a middle.
const MIN_RUNS: usize = 3;
/// Set-up repetitions per invocation, at least.
const SETUP_MIN_REPS: usize = 7;
/// Before each timed run, set-up is repeated (at least once) while this
/// slice lasts. Spreading the repetitions over the whole invocation
/// keeps a short burst of host noise from deciding their median.
const SETUP_SLICE: Duration = Duration::from_millis(250);
/// Span capacity of the traced run's trace ring.
const TRACE_CAPACITY: usize = 1 << 16;

/// `--seed` when none is given: the seed the benchmark was tuned with.
/// README.md records a second, held-out seed for confirming claims.
const DEFAULT_SEED: u64 = 2018;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad("a non-negative number of seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

/// The named workload's spec, seeded from `--seed`.
fn load_spec(name: &str, seed: u64) -> Result<ScenarioSpec, String> {
    let (_, text) = WORKLOADS.iter().find(|(n, _)| *n == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!(
            "unknown workload `{name}` (expected one of {})",
            names.join("|")
        )
    })?;
    let mut spec = ScenarioSpec::from_json(text).map_err(|e| format!("{name}: {e}"))?;
    if !matches!(spec.emissions.pattern.as_str(), "rotate" | "all") {
        return Err(format!(
            "{name}: the benchmark models only the rotate and all emission patterns"
        ));
    }
    spec.seed = seed;
    Ok(spec)
}

/// The emissions `spec` schedules in window `t` as `(at, device, slot,
/// duration)`, in the order `scenario::run` fires them. The workloads
/// use the `rotate` and `all` patterns only.
fn schedule(
    spec: &ScenarioSpec,
    names: &[Vec<String>],
    t: u64,
) -> Vec<(Duration, String, usize, Duration)> {
    let e = &spec.emissions;
    let at = spec.window() * t as u32 + Duration::from_millis(e.offset_ms);
    let dur = Duration::from_millis(e.duration_ms);
    let slots = spec.hall.cell.slots_per_switch;
    match e.pattern.as_str() {
        "rotate" => names
            .iter()
            .enumerate()
            .map(|(c, cell)| {
                let j = (t as usize + c) % spec.hall.cell.switches_per_cell;
                (at, cell[j].clone(), t as usize % slots, dur)
            })
            .collect(),
        "all" => {
            let slot = e.slot.unwrap_or(t as usize % slots);
            names
                .iter()
                .flatten()
                .map(|n| (at, n.clone(), slot, dur))
                .collect()
        }
        other => unreachable!("load_spec admits no `{other}` pattern"),
    }
}

/// The simulated statistics of a run: a change that only speeds the
/// simulator up, or only observes it, must leave every one identical.
#[derive(Debug, Clone, PartialEq)]
struct Counts {
    events: u64,
    packets_delivered: u64,
    packets_dropped: u64,
    tones: u64,
    decoded: u64,
    replans: u64,
    misses: u64,
}

impl Counts {
    fn of(out: &ScenarioOutcome) -> Self {
        Self {
            events: out.events_total,
            packets_delivered: out.packets_delivered,
            packets_dropped: out.packets_dropped,
            tones: out.tone_events,
            decoded: out.windows.iter().map(|w| w.events.len() as u64).sum(),
            replans: out.replans.len() as u64,
            misses: out.windows.iter().map(|w| w.missed.len() as u64).sum(),
        }
    }
}

/// Correctness bookkeeping: one entry per operation, failed or not.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Record one operation that must pass every check in `problems`
    /// (a list of `(ok, description)`).
    fn operation(&mut self, what: &str, problems: &[(bool, String)]) {
        self.attempted += 1;
        let mut ok = true;
        for (pass, detail) in problems {
            if !pass {
                eprintln!("check failed ({what}): {detail}");
                ok = false;
            }
        }
        if !ok {
            self.failed += 1;
        }
    }
}

/// The checks every run of the spec must pass on its own: every
/// scheduled emission fires and plays.
fn outcome_checks(out: &ScenarioOutcome, scheduled: u64) -> Vec<(bool, String)> {
    vec![
        (
            out.tone_events == scheduled,
            format!(
                "tone_events {} != {scheduled} emissions scheduled",
                out.tone_events
            ),
        ),
        (
            out.expected_emissions == scheduled,
            format!(
                "expected_emissions {} != {scheduled} scheduled",
                out.expected_emissions
            ),
        ),
        (
            out.emit_failures == 0,
            format!("{} emissions failed to play", out.emit_failures),
        ),
    ]
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Reset the process's peak resident set size to its current one.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// The process's peak resident set size since the last reset, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("read status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Set-up phase timings, seconds, one entry per repetition.
#[derive(Default)]
struct SetupTimes {
    validate: Vec<f64>,
    plan: Vec<f64>,
    build: Vec<f64>,
    total: Vec<f64>,
}

impl SetupTimes {
    /// Time `spec.validate`, `ScenarioBuilder::new` (validate + plan) and
    /// `build` on a disabled registry, once.
    fn rep(&mut self, spec: &ScenarioSpec) -> Result<(), String> {
        let t = Instant::now();
        spec.validate().map_err(|e| e.to_string())?;
        let v = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let builder = ScenarioBuilder::new(spec).map_err(|e| e.to_string())?;
        let n = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let built = builder
            .build(&Registry::disabled())
            .map_err(|e| e.to_string())?;
        let b = t.elapsed().as_secs_f64();
        drop(built.agent);
        if let Some(controller) = built.controller {
            controller.shutdown();
        }
        self.validate.push(v);
        self.plan.push((n - v).max(0.0));
        self.build.push(b);
        self.total.push(n + b);
        Ok(())
    }

    /// Repeat set-up at least once, and again while [`SETUP_SLICE`] lasts.
    fn slice(&mut self, spec: &ScenarioSpec) -> Result<(), String> {
        let start = Instant::now();
        self.rep(spec)?;
        while start.elapsed() < SETUP_SLICE {
            self.rep(spec)?;
        }
        Ok(())
    }
}

/// One timed, untraced run.
struct TimedRun {
    wall: f64,
    peak_rss_mb: f64,
}

/// What the acoustic replay produced and how long its calls took.
struct Replay {
    windows: Vec<WindowReport>,
    scene: Scene,
    emit_s: f64,
    observe_s: f64,
    heal_pass_s: f64,
    cell_windows: u64,
    emit_failures: u64,
    replan_failures: u64,
}

/// Replay the spec's acoustics the way `scenario::run_batch` does —
/// emit each window's tones into the persistent scene, then observe and
/// heal — with a span around each call.
fn replay(spec: &ScenarioSpec, builder: &ScenarioBuilder) -> Result<Replay, String> {
    let mut scene = builder.scene(None).map_err(|e| e.to_string())?;
    let mut heal = builder.heal();
    // For the replan-failure counter, which only an enabled registry
    // keeps; its stage timers add one clock read per detector call.
    let registry = Registry::new();
    heal.attach_obs(&registry);
    let names = builder.device_names();
    let speaker = builder.speaker().cloned();
    let (mut emit_s, mut observe_s, mut heal_pass_s) = (0.0, 0.0, 0.0);
    let (mut cell_windows, mut emit_failures) = (0u64, 0u64);
    let mut windows = Vec::new();
    for t in 0..spec.windows {
        let mut expected = Vec::new();
        for (at, name, slot, dur) in schedule(spec, &names, t) {
            // Resolved from the current plan, as the loop does at fire time.
            let mut dev = heal
                .plan()
                .sounding_device(&name)
                .ok_or(format!("device {name} left the plan"))?;
            if let Some(sp) = &speaker {
                dev.speaker = sp.clone();
            }
            let t0 = Instant::now();
            let played = dev.emit_slot(&mut scene, slot, at, dur);
            emit_s += t0.elapsed().as_secs_f64();
            emit_failures += u64::from(played.is_err());
            expected.push(name);
        }
        let w = Window::new(spec.window() * t as u32, spec.window());
        cell_windows += heal.plan().cells().iter().filter(|c| c.alive).count() as u64;
        let t0 = Instant::now();
        let events = heal.observe_window(&scene, w);
        observe_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let r = heal.heal_pass(&scene, w, &expected, events);
        heal_pass_s += t0.elapsed().as_secs_f64();
        windows.push(WindowReport {
            window: w,
            events: r.events,
            heard: r.heard,
            missed: r.missed,
            replanned: r.replanned,
            recovered: r.recovered,
        });
    }
    let replan_failures = counter(&registry.snapshot(), "mdn_selfheal_replan_failures_total");
    Ok(Replay {
        windows,
        scene,
        emit_s,
        observe_s,
        heal_pass_s,
        cell_windows,
        emit_failures,
        replan_failures,
    })
}

/// Wall time of rendering every cell's mic for every window on the
/// emission-free scene, over the same on the replayed full scene: the
/// ambient bed's share of render. Bed and full renders alternate so
/// host drift hits both alike.
fn bed_share(spec: &ScenarioSpec, builder: &ScenarioBuilder, full: &Scene) -> Result<f64, String> {
    let bed = builder.scene(None).map_err(|e| e.to_string())?;
    let mics: Vec<_> = builder.plan().cells().iter().map(|c| c.mic_pos).collect();
    let (mut bed_s, mut full_s) = (0.0, 0.0);
    for t in 0..spec.windows {
        let w = Window::new(spec.window() * t as u32, spec.window());
        for &mic in &mics {
            let t0 = Instant::now();
            black_box(bed.render_window(mic, w));
            bed_s += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            black_box(full.render_window(mic, w));
            full_s += t0.elapsed().as_secs_f64();
        }
    }
    Ok(bed_s / full_s)
}

fn counter(snap: &Snapshot, key: &str) -> u64 {
    snap.counters.get(key).copied().unwrap_or(0)
}

/// Sum of every counter of family `name`, over all label sets.
fn counter_family(snap: &Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|(k, _)| k.as_str() == name || k.starts_with(&format!("{name}{{")))
        .map(|(_, v)| v)
        .sum()
}

/// `(count, sum in seconds)` of the histogram with the rendered key.
fn hist(snap: &Snapshot, key: &str) -> (u64, f64) {
    snap.histograms
        .get(key)
        .map_or((0, 0.0), |h| (h.count, h.sum as f64 / 1e9))
}

fn stage(snap: &Snapshot, stage: &str) -> (u64, f64) {
    hist(snap, &format!("mdn_stage_ns{{stage=\"{stage}\"}}"))
}

fn dispatch(snap: &Snapshot, kind: &str) -> (u64, f64) {
    hist(snap, &format!("mdn_net_dispatch_ns{{kind=\"{kind}\"}}"))
}

/// `num / den`, or `empty` when there is nothing to divide by.
fn ratio(num: f64, den: f64, empty: f64) -> f64 {
    if den == 0.0 {
        empty
    } else {
        num / den
    }
}

/// Named metrics with units, in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn count(&mut self, name: &'static str, value: u64) {
        self.add(name, value as f64, "count");
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn result_line(correct: bool, checks: &Checks, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.attempted,
        checks.failed,
        metrics.to_json()
    )
}

fn per_layer(
    spec: &ScenarioSpec,
    setup: &SetupTimes,
    traced: &ScenarioOutcome,
    snap: &Snapshot,
    replay: &Replay,
    bed_share: f64,
    trace_overhead: f64,
) -> Metrics {
    let mut m = Metrics::default();
    m.add("scenario.validate_s", median(&setup.validate), "s");
    m.add("cells.plan_s", median(&setup.plan), "s");
    m.add("scenario.build_s", median(&setup.build), "s");

    let (_, dispatch_s) = dispatch(snap, "all");
    m.count("net.events", traced.events_total);
    m.add("net.dispatch_s", dispatch_s, "cpu_s");
    m.add(
        "net.dispatch_ns_per_event",
        ratio(dispatch_s * 1e9, traced.events_total as f64, 0.0),
        "ns",
    );
    m.add("net.deliver_s", dispatch(snap, "deliver").1, "cpu_s");
    m.add("net.generate_s", dispatch(snap, "generate").1, "cpu_s");
    m.add("net.port_free_s", dispatch(snap, "port_free").1, "cpu_s");
    m.count("net.packets_delivered", traced.packets_delivered);
    m.count("net.packets_dropped", traced.packets_dropped);

    let cell_windows = replay.cell_windows as f64;
    let (renders, render_s) = stage(snap, "scene.render");
    m.count("acoustics.render_calls", renders);
    m.add(
        "acoustics.renders_per_cell_window",
        ratio(renders as f64, cell_windows, 0.0),
        "ratio",
    );
    m.add("acoustics.render_cpu_s", render_s, "cpu_s");
    m.count(
        "acoustics.emissions_mixed",
        counter(snap, "mdn_scene_emissions_total"),
    );
    m.count("acoustics.emissions_retired", traced.emissions_retired);
    m.add("acoustics.emit_s", replay.emit_s, "s");
    m.add("acoustics.bed_share", bed_share, "ratio");

    let (goertzels, goertzel_s) = stage(snap, "detect.goertzel_bank");
    m.count("detector.goertzel_calls", goertzels);
    m.add(
        "detector.goertzel_per_cell_window",
        ratio(goertzels as f64, cell_windows, 0.0),
        "ratio",
    );
    m.add("detector.goertzel_cpu_s", goertzel_s, "cpu_s");
    m.add(
        "detector.local_max_cpu_s",
        stage(snap, "detect.local_max").1,
        "cpu_s",
    );
    m.count("detector.frames", counter(snap, "mdn_detect_frames_total"));
    m.count(
        "detector.events_decoded",
        counter(snap, "mdn_events_decoded_total"),
    );

    let replans = counter(snap, "mdn_selfheal_replans_total");
    let failures = counter(snap, "mdn_selfheal_replan_failures_total");
    m.add("selfheal.observe_s", replay.observe_s, "s");
    m.add("selfheal.heal_pass_s", replay.heal_pass_s, "s");
    m.count(
        "selfheal.retunes",
        counter(snap, "mdn_selfheal_retunes_total"),
    );
    m.count("selfheal.replans", replans);
    m.count("selfheal.replan_failures", failures);
    // 1.0 when nothing was attempted, as availability is 1.0 when
    // nothing was scheduled.
    m.add(
        "selfheal.replan_success_ratio",
        ratio(replans as f64, (replans + failures) as f64, 1.0),
        "ratio",
    );
    m.count(
        "health.acoustic_deaths",
        counter(snap, "mdn_health_acoustic_deaths_total"),
    );
    m.count(
        "health.recoveries",
        counter(snap, "mdn_health_recoveries_total"),
    );

    m.add("eventloop.loop_s", traced.wall_seconds, "s");
    m.count("eventloop.cell_windows", replay.cell_windows);

    let pumps = if spec.controller.enabled {
        traced.app_events
    } else {
        0
    };
    m.count("ofbridge.pumps", pumps);
    m.count("ofbridge.packet_ins", traced.packet_ins);
    m.count("ofbridge.flow_mods", traced.flow_mods);
    m.count(
        "proto.ctrl_rx_messages",
        counter_family(snap, "mdn_ctrl_messages_rx_total"),
    );
    m.count(
        "proto.ctrl_tx_messages",
        counter_family(snap, "mdn_ctrl_messages_tx_total"),
    );

    m.add("obs.trace_overhead", trace_overhead, "ratio");
    m
}

fn bench(args: &Args) -> Result<(Checks, Option<Metrics>), String> {
    let spec = load_spec(&args.workload, args.seed)?;
    let builder = ScenarioBuilder::new(&spec).map_err(|e| e.to_string())?;
    let names = builder.device_names();
    let scheduled: u64 = (0..spec.windows)
        .map(|t| schedule(&spec, &names, t).len() as u64)
        .sum();
    let sim_s = spec.total().as_secs_f64();
    let mut checks = Checks::default();

    let mut setup = SetupTimes::default();
    let mut runs: Vec<TimedRun> = Vec::new();
    let mut first: Option<ScenarioOutcome> = None;
    let start = Instant::now();
    while runs.len() < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds {
        setup.slice(&spec)?;
        reset_peak_rss()?;
        let t = Instant::now();
        let out = scenario::run(&spec, &Registry::disabled()).map_err(|e| e.to_string())?;
        let wall = t.elapsed().as_secs_f64();
        let peak = peak_rss_mb()?;
        let counts = Counts::of(&out);
        let mut problems = outcome_checks(&out, scheduled);
        if let Some(f) = &first {
            let same = f.windows == out.windows && Counts::of(f) == counts;
            problems.push((same, format!("rerun of one seed diverged: {counts:?}")));
        }
        checks.operation("untraced run", &problems);
        runs.push(TimedRun {
            wall,
            peak_rss_mb: peak,
        });
        first.get_or_insert(out);
    }
    while setup.total.len() < SETUP_MIN_REPS {
        setup.rep(&spec)?;
    }
    let untraced = first.expect("at least one timed run");
    let untraced_counts = Counts::of(&untraced);
    let untraced_wall = median(&runs.iter().map(|r| r.wall).collect::<Vec<_>>());

    let registry = Registry::with_trace(TRACE_CAPACITY);
    let t = Instant::now();
    let traced = scenario::run(&spec, &registry).map_err(|e| e.to_string())?;
    let traced_wall = t.elapsed().as_secs_f64();
    let snap = registry.snapshot();
    let traced_counts = Counts::of(&traced);
    let failures = counter(&snap, "mdn_selfheal_replan_failures_total");
    let mut problems = outcome_checks(&traced, scheduled);
    problems.push((
        traced_counts == untraced_counts,
        format!("traced {traced_counts:?} != untraced {untraced_counts:?}"),
    ));
    checks.operation("traced run", &problems);

    let replay = replay(&spec, &builder)?;
    checks.operation(
        "acoustic replay",
        &[
            (
                replay.windows == untraced.windows,
                "replayed window reports differ from the run's (windowed != batch)".into(),
            ),
            (
                replay.replan_failures == failures,
                format!(
                    "replay made {} failed replans, the traced run {failures}",
                    replay.replan_failures
                ),
            ),
            (
                replay.emit_failures == 0,
                format!("{} replayed emissions failed to play", replay.emit_failures),
            ),
        ],
    );
    if checks.failed > 0 {
        return Ok((checks, None));
    }

    let metrics = if args.trace {
        let share = bed_share(&spec, &builder, &replay.scene)?;
        per_layer(
            &spec,
            &setup,
            &traced,
            &snap,
            &replay,
            share,
            traced_wall / untraced_wall - 1.0,
        )
    } else {
        let expected = untraced.expected_emissions as f64;
        let mut m = Metrics::default();
        m.add(
            "realtime_factor",
            median(&runs.iter().map(|r| sim_s / r.wall).collect::<Vec<_>>()),
            "sim_s/s",
        );
        m.add("setup_s", median(&setup.total), "s");
        m.add(
            "peak_rss_mb",
            median(&runs.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()),
            "MiB",
        );
        m.add(
            "miss_frac",
            ratio(untraced_counts.misses as f64, expected, 0.0),
            "ratio",
        );
        m
    };
    eprintln!(
        "{}: seed {} | {} timed runs, median wall {untraced_wall:.3} s for {sim_s} simulated s | {:?}",
        args.workload,
        args.seed,
        runs.len(),
        untraced_counts
    );
    Ok((checks, Some(metrics)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!(
                "usage: mdn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("mdn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok((checks, Some(metrics))) => {
            if metrics.0.iter().any(|(_, v, _)| !v.is_finite()) {
                eprintln!("mdn-perfbench: a metric is not a finite number");
                return ExitCode::FAILURE;
            }
            println!("{}", result_line(true, &checks, &metrics));
            ExitCode::SUCCESS
        }
        Ok((checks, None)) => {
            println!("{}", result_line(false, &checks, &Metrics::default()));
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("mdn-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
