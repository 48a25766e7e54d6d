//! Serve live observability over HTTP: run a small traced hall under the
//! unified loop, then expose the registry on the std-only scrape server.
//!
//! ```text
//! cargo run --release --example obs_serve
//! curl http://<addr>/metrics    # Prometheus text exposition
//! curl http://<addr>/snapshot   # JSON snapshot
//! curl "http://<addr>/trace?since=0"  # Chrome trace-event JSON
//! ```
//!
//! The hall is the `small_hall` scenario preset — two quiet cells of
//! 2×3 switches, every switch sounding every window — run end-to-end by
//! the scenario harness, with this example keeping the serve-after-run
//! lifecycle (the harness's own `obs_addr` output serves *during* a
//! run; this one stays up afterwards as a quiet server to curl).
//!
//! Environment:
//!
//! * `MDN_OBS_ADDR` — bind address (default `127.0.0.1:0`; the chosen
//!   port is printed as `OBS_ADDR=<addr>` so scripts can parse it).
//! * `MDN_OBS_SERVE_SECS` — how long to keep serving before a clean
//!   shutdown (default 2).

use mdn_core::scenario::{self, ScenarioSpec};
use mdn_obs::{ObsServer, Registry};
use std::time::Duration;

fn main() {
    let registry = Registry::with_trace(1 << 14);

    // A two-cell hall, every switch sounding every window, fully traced.
    let mut spec = ScenarioSpec::small_hall(2, 2, 3, "quiet");
    spec.name = "obs_serve".into();
    let outcome = scenario::run(&spec, &registry).expect("obs_serve scenario");
    println!(
        "ran {} windows: {} tones heard, {} trace spans recorded",
        spec.windows,
        outcome.heard_emissions,
        registry.trace().total()
    );

    let addr = std::env::var("MDN_OBS_ADDR").unwrap_or_else(|_| "127.0.0.1:0".into());
    let server = ObsServer::new(&registry, &registry.trace());
    let handle = server.serve(addr.as_str()).expect("bind obs server");
    // Machine-parseable first, human-friendly second.
    println!("OBS_ADDR={}", handle.addr());
    println!(
        "serving /metrics /snapshot /trace?since= on http://{}",
        handle.addr()
    );

    let hold = std::env::var("MDN_OBS_SERVE_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2u64);
    std::thread::sleep(Duration::from_secs(hold));
    handle.shutdown();
    println!("obs server stopped after {hold}s");
}
