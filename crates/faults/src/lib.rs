//! Deterministic fault injection ("failpoints") for crash-safety testing.
//!
//! Durable-state code paths — checkpoint writes, artifact emission,
//! interpreter resource accounting — declare **named sites** by calling
//! [`hit`]. A test or torture harness installs a [`Schedule`] that says
//! *inject a fault at the Nth hit of site S*; everything else returns
//! [`Fault::None`] and costs one relaxed atomic load.
//!
//! Three fault kinds model the ways durable state actually gets hurt:
//!
//! * [`FaultAction::Error`] — the operation reports failure (an injected
//!   `EIO`); callers must degrade or retry.
//! * [`FaultAction::ShortWrite`] — the write silently truncates to a
//!   prefix, modelling a torn write published by a crash or a lying disk;
//!   readers must detect it (CRC) instead of trusting the bytes.
//! * [`FaultAction::Abort`] — the process dies **at** the site
//!   ([`std::process::abort`]), modelling a kill -9 / OOM-kill / power
//!   loss at an arbitrary durable-state instant.
//!
//! Schedules are deterministic: a `(site, nth-hit, action)` triple fires
//! exactly once, and seed-driven generation ([`Schedule::seeded`]) makes a
//! whole torture sweep reproducible from one integer.
//!
//! # Build cost
//!
//! The crate has two personalities, chosen by the `enabled` cargo feature:
//!
//! * **feature off (default)** — [`hit`] is an inline `Fault::None`
//!   constant; no statics, no counters, no branches survive optimization.
//!   This is the configuration benchmarks and production builds use.
//! * **feature on** — sites consult a global registry. Unarmed (no
//!   schedule installed) the cost is a single relaxed atomic load per hit.
//!
//! Tests that need live failpoints enable the feature through their
//! `dev-dependencies`, so `cargo test` exercises injection while plain
//! `cargo build --release` compiles it out.
//!
//! # Examples
//!
//! ```
//! use faults::{Fault, FaultAction, Plan, Schedule};
//!
//! // Fire an error on the 2nd hit of "checkpoint.write".
//! let schedule = Schedule::new(vec![Plan {
//!     site: "checkpoint.write".to_owned(),
//!     hit: 2,
//!     action: FaultAction::Error,
//! }]);
//! faults::install(schedule);
//! if faults::compiled() {
//!     assert_eq!(faults::hit("checkpoint.write"), Fault::None);
//!     assert_eq!(faults::hit("checkpoint.write"), Fault::Error);
//!     assert_eq!(faults::hit("checkpoint.write"), Fault::None);
//! }
//! faults::clear();
//! ```

use std::fmt;
use std::str::FromStr;

/// What a scheduled fault does when its site+hit is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// The operation reports failure (injected I/O error).
    Error,
    /// The write keeps only this many bytes of its buffer (a torn write).
    ShortWrite(u64),
    /// The process aborts at the site.
    Abort,
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Error => f.write_str("err"),
            FaultAction::ShortWrite(keep) => write!(f, "short:{keep}"),
            FaultAction::Abort => f.write_str("abort"),
        }
    }
}

impl FromStr for FaultAction {
    type Err = ScheduleParseError;

    fn from_str(text: &str) -> Result<Self, ScheduleParseError> {
        if text == "err" {
            return Ok(FaultAction::Error);
        }
        if text == "abort" {
            return Ok(FaultAction::Abort);
        }
        if let Some(keep) = text.strip_prefix("short:") {
            let keep = keep
                .parse::<u64>()
                .map_err(|_| ScheduleParseError(format!("bad short-write length '{keep}'")))?;
            return Ok(FaultAction::ShortWrite(keep));
        }
        Err(ScheduleParseError(format!("unknown fault action '{text}'")))
    }
}

/// What [`hit`] tells the *caller* to do. `Abort` never reaches the caller
/// — the process dies inside [`hit`] — so the returned enum only has the
/// survivable outcomes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// No fault; proceed normally.
    None,
    /// Fail the operation as if the kernel returned an error.
    Error,
    /// Truncate the write to this many bytes and report success.
    ShortWrite(u64),
}

/// One scheduled injection: fire `action` on the `hit`-th (1-based) hit of
/// `site` in this process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// The named site, e.g. `"campaign.checkpoint.write"`.
    pub site: String,
    /// 1-based hit count at which the fault fires.
    pub hit: u64,
    /// What happens.
    pub action: FaultAction,
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}={}", self.site, self.hit, self.action)
    }
}

/// A malformed schedule string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleParseError(pub String);

impl fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault schedule: {}", self.0)
    }
}

impl std::error::Error for ScheduleParseError {}

/// A set of scheduled injections for one process lifetime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    plans: Vec<Plan>,
}

impl Schedule {
    /// A schedule from explicit plans.
    pub fn new(plans: Vec<Plan>) -> Self {
        Schedule { plans }
    }

    /// The scheduled plans.
    pub fn plans(&self) -> &[Plan] {
        &self.plans
    }

    /// `true` if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Parses `site@hit=action` entries separated by `;` (or `,`), e.g.
    /// `campaign.checkpoint.write@3=abort;campaign.artifact.write@1=short:7`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleParseError`] on malformed entries.
    pub fn parse(text: &str) -> Result<Self, ScheduleParseError> {
        let mut plans = Vec::new();
        for entry in text.split([';', ',']) {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (site_hit, action) = entry
                .split_once('=')
                .ok_or_else(|| ScheduleParseError(format!("missing '=' in '{entry}'")))?;
            let (site, hit) = site_hit
                .split_once('@')
                .ok_or_else(|| ScheduleParseError(format!("missing '@' in '{entry}'")))?;
            let hit = hit
                .parse::<u64>()
                .map_err(|_| ScheduleParseError(format!("bad hit count in '{entry}'")))?;
            if hit == 0 {
                return Err(ScheduleParseError(format!(
                    "hit counts are 1-based, got 0 in '{entry}'"
                )));
            }
            plans.push(Plan {
                site: site.trim().to_owned(),
                hit,
                action: action.trim().parse()?,
            });
        }
        Ok(Schedule { plans })
    }

    /// Renders the schedule in the [`Schedule::parse`] syntax.
    pub fn render(&self) -> String {
        self.plans
            .iter()
            .map(Plan::to_string)
            .collect::<Vec<_>>()
            .join(";")
    }

    /// A seed-driven schedule: `count` faults over `sites`, hit counts in
    /// `1..=max_hit`, actions drawn from {error, short write, abort}.
    /// Deterministic in `(seed, sites, count, max_hit)` — the basis of
    /// reproducible torture sweeps.
    pub fn seeded(seed: u64, sites: &[&str], count: usize, max_hit: u64) -> Self {
        if sites.is_empty() || max_hit == 0 {
            return Schedule::default();
        }
        let mut rng = SplitMix64::new(seed);
        let plans = (0..count)
            .map(|_| {
                let site = sites[(rng.next() % sites.len() as u64) as usize].to_owned();
                let hit = 1 + rng.next() % max_hit;
                let action = match rng.next() % 4 {
                    0 => FaultAction::Error,
                    // Short writes keep a pseudo-random prefix; 0 bytes
                    // (fully empty file) is a legal and nasty case.
                    1 => FaultAction::ShortWrite(rng.next() % 64),
                    _ => FaultAction::Abort,
                };
                Plan { site, hit, action }
            })
            .collect();
        Schedule { plans }
    }
}

/// A tiny deterministic generator (SplitMix64) so schedules need no
/// external RNG crate and never drift across toolchains.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Environment variable holding the process's fault schedule
/// ([`Schedule::parse`] syntax). Read by [`install_from_env`].
pub const SCHEDULE_ENV: &str = "RF_FAILPOINTS";

/// Environment variable naming a file to append one line per *fired*
/// fault (the recovery log's raw material). Read by [`install_from_env`].
pub const LOG_ENV: &str = "RF_FAULT_LOG";

/// `true` if this build compiled the failpoint machinery in.
#[inline]
pub const fn compiled() -> bool {
    cfg!(feature = "enabled")
}

#[cfg(feature = "enabled")]
mod armed {
    use super::{Fault, FaultAction, Schedule};
    use std::collections::HashMap;
    use std::io::Write;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    /// Fast-path gate: a site costs one relaxed load until a schedule is
    /// installed.
    static ARMED: AtomicBool = AtomicBool::new(false);

    struct Registry {
        schedule: Schedule,
        counters: HashMap<String, u64>,
        fired: Vec<String>,
        log_path: Option<PathBuf>,
    }

    static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

    pub fn install(schedule: Schedule, log_path: Option<PathBuf>) {
        let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        ARMED.store(
            !schedule.is_empty() || log_path.is_some(),
            Ordering::Release,
        );
        *guard = Some(Registry {
            schedule,
            counters: HashMap::new(),
            fired: Vec::new(),
            log_path,
        });
    }

    pub fn clear() {
        let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        ARMED.store(false, Ordering::Release);
        *guard = None;
    }

    pub fn fired() -> Vec<String> {
        let guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        guard.as_ref().map(|r| r.fired.clone()).unwrap_or_default()
    }

    pub fn hit(site: &str) -> Fault {
        if !ARMED.load(Ordering::Acquire) {
            return Fault::None;
        }
        let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        let Some(registry) = guard.as_mut() else {
            return Fault::None;
        };
        let count = registry.counters.entry(site.to_owned()).or_insert(0);
        *count += 1;
        let now = *count;
        let Some(plan) = registry
            .schedule
            .plans()
            .iter()
            .find(|plan| plan.site == site && plan.hit == now)
        else {
            return Fault::None;
        };
        let action = plan.action;
        let line = format!("fired {site}@{now}={action}");
        registry.fired.push(line.clone());
        if let Some(path) = registry.log_path.clone() {
            // Append and flush *before* a scheduled abort so the log shows
            // exactly which injection killed the process.
            if let Ok(mut file) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
            {
                let _ = writeln!(file, "{line}");
                let _ = file.sync_all();
            }
        }
        drop(guard); // never abort while holding the registry lock
        match action {
            FaultAction::Error => Fault::Error,
            FaultAction::ShortWrite(keep) => Fault::ShortWrite(keep),
            FaultAction::Abort => std::process::abort(),
        }
    }
}

/// Installs `schedule` as this process's fault plan (replacing any previous
/// one and resetting all hit counters). No-op without the `enabled`
/// feature.
pub fn install(schedule: Schedule) {
    install_logged(schedule, None);
}

/// [`install`], plus an append-only log file receiving one line per fired
/// fault (flushed before any scheduled abort).
pub fn install_logged(schedule: Schedule, log_path: Option<std::path::PathBuf>) {
    #[cfg(feature = "enabled")]
    armed::install(schedule, log_path);
    #[cfg(not(feature = "enabled"))]
    let _ = (schedule, log_path);
}

/// Installs the schedule named by [`SCHEDULE_ENV`] / [`LOG_ENV`], if set.
/// Returns the installed schedule (empty when the variable is unset).
///
/// # Errors
///
/// Returns [`ScheduleParseError`] if the environment variable is set but
/// malformed — a torture harness typo should fail loudly, not silently
/// run a fault-free campaign.
pub fn install_from_env() -> Result<Schedule, ScheduleParseError> {
    let schedule = match std::env::var(SCHEDULE_ENV) {
        Ok(text) => Schedule::parse(&text)?,
        Err(_) => Schedule::default(),
    };
    let log_path = std::env::var(LOG_ENV).ok().map(std::path::PathBuf::from);
    install_logged(schedule.clone(), log_path);
    Ok(schedule)
}

/// Clears the installed schedule and counters.
pub fn clear() {
    #[cfg(feature = "enabled")]
    armed::clear();
}

/// Lines describing every fault fired so far (`fired site@hit=action`).
pub fn fired() -> Vec<String> {
    #[cfg(feature = "enabled")]
    {
        armed::fired()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Vec::new()
    }
}

/// Declares a hit of `site`. Returns the fault the caller must emulate;
/// scheduled aborts terminate the process inside this call.
///
/// Without the `enabled` feature this is a constant [`Fault::None`] the
/// optimizer removes entirely.
#[inline]
pub fn hit(site: &str) -> Fault {
    #[cfg(feature = "enabled")]
    {
        armed::hit(site)
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = site;
        Fault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        let schedule = Schedule::parse("a.b@3=abort; c.d@1=err;e@2=short:17").unwrap();
        assert_eq!(
            schedule.plans(),
            &[
                Plan {
                    site: "a.b".into(),
                    hit: 3,
                    action: FaultAction::Abort
                },
                Plan {
                    site: "c.d".into(),
                    hit: 1,
                    action: FaultAction::Error
                },
                Plan {
                    site: "e".into(),
                    hit: 2,
                    action: FaultAction::ShortWrite(17)
                },
            ]
        );
        let rendered = schedule.render();
        assert_eq!(Schedule::parse(&rendered).unwrap(), schedule);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Schedule::parse("no-at-sign=err").is_err());
        assert!(Schedule::parse("site@0=err").is_err());
        assert!(Schedule::parse("site@1=frobnicate").is_err());
        assert!(Schedule::parse("site@x=err").is_err());
        assert!(Schedule::parse("site@1=short:abc").is_err());
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let sites = ["x.write", "x.rename"];
        let one = Schedule::seeded(7, &sites, 5, 40);
        let two = Schedule::seeded(7, &sites, 5, 40);
        assert_eq!(one, two);
        assert_eq!(one.plans().len(), 5);
        assert!(one
            .plans()
            .iter()
            .all(|plan| plan.hit >= 1 && plan.hit <= 40));
        let other = Schedule::seeded(8, &sites, 5, 40);
        assert_ne!(one, other, "different seeds should differ");
    }

    #[test]
    fn disabled_builds_never_fire() {
        if compiled() {
            return; // this test covers the compiled-out personality only
        }
        install(Schedule::parse("x@1=err").unwrap());
        assert_eq!(hit("x"), Fault::None);
        clear();
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn nth_hit_fires_exactly_once() {
        install(Schedule::parse("s@2=err;t@1=short:3").unwrap());
        assert_eq!(hit("s"), Fault::None);
        assert_eq!(hit("t"), Fault::ShortWrite(3));
        assert_eq!(hit("s"), Fault::Error);
        assert_eq!(hit("s"), Fault::None);
        assert_eq!(hit("t"), Fault::None);
        assert_eq!(fired().len(), 2);
        clear();
        assert_eq!(hit("s"), Fault::None);
    }
}
