//! Per-thread cycle tables for the §4 monitor's spin windows (DESIGN.md
//! §5.2).
//!
//! While a thread is postponed its peers usually spin on a flag that the
//! postponed thread would set, and the livelock monitor lets them spin for
//! up to [`crate::FuzzConfig::postpone_limit`] decisions. In such a window
//! no step changes state another thread reads, apart from the lock table:
//! [`Execution::effects`] stands still. Each spinning thread's next decision
//! is then a function of its own [`ThreadState`], so once that state
//! recurs the thread repeats the same cycle of decisions until the window
//! ends.
//!
//! [`Spin`] watches the decisions the scheduler loop interprets, finds each
//! participating thread's cycle with Brent's algorithm over state equality,
//! and keeps it as a table of per-decision rows: the state after the
//! decision, the statements it ran, and the monitors it acquired or
//! released. Once every participant that has run has a table, the loop in
//! [`crate::algorithm`] replays decisions from the tables: [`Spin`]
//! simulates monitor owners and enabledness, the loop makes the RNG draws,
//! and [`Spin::materialise`] writes the reached state back into the
//! execution whenever the loop needs a real one. When one thread stays the
//! lone candidate through a whole lap ([`Spin::solo_lap`]), the loop
//! replays many laps in one [`Spin::jump`].

use interp::{Execution, ObjId, ThreadId, ThreadState};
use std::sync::Arc;

/// Decisions a window must stay still before its threads are anchored.
/// Short effect-free stretches (a collection traversal between two
/// writes) then cost two comparisons per decision and no state copies,
/// while a spin window of `postpone_limit` (20,000) decisions loses 0.3%.
const SETTLE: u64 = 64;

/// Longest per-thread cycle looked for, in decisions of that thread. A
/// thread that has not repeated within it stops the window's recording
/// (the table-1 spin loops repeat within 7).
const MAX_PERIOD: usize = 64;

/// Most doublings of [`SETTLE`] (a wait of 4,096 decisions).
const MAX_BACKOFF: u32 = 8;

/// Most participants a window replays: candidate sets are bit masks.
const MAX_TRACKS: usize = 64;

/// One recorded decision of one thread. Monitors are named by their slot
/// in [`Spin::monitors`].
struct Row {
    /// The thread's state after the decision.
    state: Arc<ThreadState>,
    /// Statements the decision ran.
    steps: u64,
    /// Monitors whose owner the decision changed, with the new owner.
    locks: Box<[(usize, Option<ThreadId>)]>,
    /// The monitor that decides, after the decision, whether the thread is
    /// enabled ([`Execution::blocking_monitor`]).
    needs: Option<usize>,
    /// The decision moves a monitor that a postponed thread waits for, so
    /// replaying it could change that thread's enabledness.
    watched: bool,
}

enum Phase {
    /// Has not run since the window opened.
    Untouched,
    /// Looking for the period (Brent): the thread has made `lambda`
    /// decisions since `anchor`, which is re-taken whenever `lambda`
    /// reaches `power`. Nothing is copied per decision.
    Seeking {
        anchor: Arc<ThreadState>,
        power: usize,
        lambda: usize,
    },
    /// The thread's state recurs every `period` decisions: `rows` records
    /// one lap from `start`.
    Lapping {
        start: Arc<ThreadState>,
        period: usize,
    },
    /// `rows` is the cycle, and the thread's next decision is `rows[pos]`.
    Closed { pos: usize },
}

/// One participant of a window: a thread outside the postponed set that
/// is enabled or waits only for a monitor.
struct Track {
    thread: ThreadId,
    phase: Phase,
    rows: Vec<Row>,
    /// The monitor deciding whether the thread is enabled in its current
    /// (possibly replayed) state.
    needs: Option<usize>,
    /// Replayed decisions moved the thread since the last materialisation.
    moved: bool,
}

/// The spin-window detector and replay state of one trial scratch.
#[derive(Default)]
pub(crate) struct Spin {
    /// A window is open: `postponed` is non-empty and `effects` is the
    /// counter it opened at.
    open: bool,
    effects: u64,
    postponed: Vec<(ThreadId, u64)>,
    /// The decision count when the window opened.
    opened_at: u64,
    /// Doublings of [`SETTLE`] in force: each stalled window doubles the
    /// wait before the next one is anchored, and a replay resets it, so
    /// stretches of effect-free work that never repeats stop paying for
    /// the search.
    backoff: u32,
    /// The window cannot be replayed: a thread without a table ran, or a
    /// participant did not repeat within [`MAX_PERIOD`].
    stuck: bool,
    /// Participants by thread id; empty until the window settles.
    tracks: Vec<Track>,
    /// Participants seeking or lapping, and participants with a table.
    recording: usize,
    closed: usize,
    /// A table closed since the rows' `watched` flags were set.
    rebuild: bool,
    /// Every monitor a participant reads or moves, by slot, with its
    /// simulated owner while replaying.
    monitors: Vec<ObjId>,
    owners: Vec<Option<ThreadId>>,
    /// Enabled participants (bit `i` is track `i`) at the replayed
    /// loop-top, and after the decision [`Spin::plan`] prepared.
    candidates: u64,
    next: u64,
    /// Statements executed, replayed ones included.
    steps: u64,
    install: Vec<Arc<ThreadState>>,
    /// The owners a lap has moved so far ([`Spin::solo_lap`]).
    overlay: Vec<(usize, Option<ThreadId>)>,
}

impl Spin {
    /// Forgets the current window and its tables.
    pub(crate) fn close(&mut self) {
        self.open = false;
        self.stuck = false;
        self.tracks.clear();
        self.recording = 0;
        self.closed = 0;
        self.monitors.clear();
    }

    /// The slot of `obj` in [`Spin::monitors`].
    fn slot(monitors: &mut Vec<ObjId>, obj: ObjId) -> usize {
        match monitors.iter().position(|&known| known == obj) {
            Some(slot) => slot,
            None => {
                monitors.push(obj);
                monitors.len() - 1
            }
        }
    }

    /// Called at every interpreted loop-top, before anything else: opens a
    /// window when the postponed set or the effects counter changed,
    /// anchors the participants once it has been still for [`SETTLE`]
    /// decisions, and returns `true` when a replay can start here
    /// ([`Spin::begin`]).
    #[inline]
    pub(crate) fn at_loop_top(
        &mut self,
        exec: &Execution<'_>,
        postponed: &[(ThreadId, u64)],
        decisions: u64,
    ) -> bool {
        if postponed.is_empty() {
            if self.open {
                self.close();
            }
            return false;
        }
        if !self.open
            || exec.effects() != self.effects
            || self.postponed != postponed
            || exec.engine_error().is_some()
        {
            self.reopen(exec, postponed, decisions);
            false
        } else if self.recording == 0 && self.closed > 0 {
            self.begin(exec)
        } else {
            if self.tracks.is_empty()
                && !self.stuck
                && decisions - self.opened_at >= SETTLE << self.backoff
            {
                self.anchor(exec);
            }
            false
        }
    }

    #[inline(never)]
    fn reopen(&mut self, exec: &Execution<'_>, postponed: &[(ThreadId, u64)], decisions: u64) {
        self.close();
        // A poisoned machine is not stepped again: leave the window shut.
        self.open = exec.engine_error().is_none();
        self.effects = exec.effects();
        self.postponed.clear();
        self.postponed.extend_from_slice(postponed);
        self.opened_at = decisions;
    }

    /// Makes every thread outside the postponed set that is enabled or
    /// waits only for a monitor a participant.
    #[inline(never)]
    fn anchor(&mut self, exec: &Execution<'_>) {
        for thread in (0..exec.thread_count() as u32).map(ThreadId) {
            let needs = exec.blocking_monitor(thread);
            if (needs.is_some() || exec.is_enabled(thread))
                && !self.postponed.iter().any(|&(held, _)| held == thread)
            {
                self.tracks.push(Track {
                    thread,
                    phase: Phase::Untouched,
                    rows: Vec::new(),
                    needs: needs.map(|obj| Spin::slot(&mut self.monitors, obj)),
                    moved: false,
                });
            }
        }
        if self.tracks.is_empty() || self.tracks.len() > MAX_TRACKS {
            self.stall();
        }
    }

    /// Records that the loop interpreted an untargeted decision of
    /// `thread` that ran `steps` statements.
    #[inline]
    pub(crate) fn stepped(&mut self, exec: &Execution<'_>, thread: ThreadId, steps: u64) {
        if !self.tracks.is_empty() {
            self.record(exec, thread, steps);
        }
    }

    #[inline(never)]
    fn record(&mut self, exec: &Execution<'_>, thread: ThreadId, steps: u64) {
        if exec.effects() != self.effects {
            self.close();
            return;
        }
        let Some(track) = self.tracks.iter_mut().find(|track| track.thread == thread) else {
            self.stall();
            return;
        };
        let state = exec.thread_state(thread);
        match &mut track.phase {
            Phase::Untouched => {
                // Anchored only after an effect-free step.
                track.phase = Phase::Seeking {
                    anchor: Arc::clone(state),
                    power: 1,
                    lambda: 0,
                };
                self.recording += 1;
            }
            Phase::Seeking {
                anchor,
                power,
                lambda,
            } => {
                *lambda += 1;
                if **state == **anchor {
                    track.phase = Phase::Lapping {
                        start: Arc::clone(anchor),
                        period: *lambda,
                    };
                } else if *lambda == *power {
                    if *power >= MAX_PERIOD {
                        self.stall();
                        return;
                    }
                    *anchor = Arc::clone(state);
                    *power *= 2;
                    *lambda = 0;
                }
            }
            Phase::Lapping { start, period } => {
                let before = track.rows.last().map_or(&**start, |row| &*row.state);
                let monitors = &mut self.monitors;
                let released = before
                    .held
                    .iter()
                    .filter(|&&(obj, _)| state.hold_depth(obj) == 0)
                    .map(|&(obj, _)| (obj, None));
                let acquired = state
                    .held
                    .iter()
                    .filter(|&&(obj, _)| before.hold_depth(obj) == 0)
                    .map(|&(obj, _)| (obj, Some(thread)));
                let locks = released
                    .chain(acquired)
                    .map(|(obj, owner)| (Spin::slot(monitors, obj), owner))
                    .collect();
                let needs = exec
                    .blocking_monitor(thread)
                    .map(|obj| Spin::slot(monitors, obj));
                track.rows.push(Row {
                    state: Arc::clone(state),
                    steps,
                    locks,
                    needs,
                    watched: false,
                });
                if track.rows.len() == *period {
                    debug_assert!(**state == **start, "a lap did not return to its start");
                    track.phase = Phase::Closed { pos: 0 };
                    track.needs = needs;
                    self.recording -= 1;
                    self.closed += 1;
                    self.rebuild = true;
                }
            }
            Phase::Closed { pos } => {
                let row = &track.rows[*pos];
                debug_assert!(
                    **state == *row.state && steps == row.steps,
                    "a decision left its thread's cycle"
                );
                track.needs = row.needs;
                *pos = (*pos + 1) % track.rows.len();
            }
        }
    }

    /// Gives up on the current window until it closes.
    fn stall(&mut self) {
        self.backoff = (self.backoff + 1).min(MAX_BACKOFF);
        self.tracks.clear();
        self.recording = 0;
        self.closed = 0;
        self.stuck = true;
    }

    /// Prepares a replay at the current loop-top of an open window where
    /// no participant is looking for its period and some have a table.
    /// Returns `false` if it cannot start here: a postponed thread is
    /// disabled (the loop would prune it), or no participant is enabled.
    #[inline(never)]
    fn begin(&mut self, exec: &Execution<'_>) -> bool {
        if !self
            .postponed
            .iter()
            .all(|&(thread, _)| exec.is_enabled(thread))
        {
            return false;
        }
        if self.rebuild {
            self.rebuild = false;
            let watched: Vec<usize> = self
                .postponed
                .iter()
                .filter_map(|&(thread, _)| exec.blocking_monitor(thread))
                .map(|obj| Spin::slot(&mut self.monitors, obj))
                .collect();
            for row in self.tracks.iter_mut().flat_map(|track| &mut track.rows) {
                row.watched = row.locks.iter().any(|(slot, _)| watched.contains(slot));
            }
        }
        self.owners.clear();
        self.owners
            .extend(self.monitors.iter().map(|&obj| exec.monitor_owner(obj)));
        debug_assert!(self.tracks.iter().all(|track| match track.phase {
            Phase::Closed { pos } => {
                let last = (pos + track.rows.len() - 1) % track.rows.len();
                **exec.thread_state(track.thread) == *track.rows[last].state
            }
            _ => true,
        }));
        self.steps = exec.steps();
        self.backoff = 0;
        self.candidates = (0..self.tracks.len())
            .filter(|&track| self.is_enabled(track, self.tracks[track].needs, &[]))
            .fold(0, |mask, track| mask | 1 << track);
        debug_assert!(
            self.agrees_with(exec),
            "replay candidates disagree at a loop-top"
        );
        self.candidates != 0
    }

    /// Whether `track` is enabled when it needs the monitor `needs` and
    /// the owners are [`Spin::owners`] overlaid with `moved`.
    fn is_enabled(
        &self,
        track: usize,
        needs: Option<usize>,
        moved: &[(usize, Option<ThreadId>)],
    ) -> bool {
        let Some(slot) = needs else {
            return true;
        };
        let owner = match moved.iter().find(|(moved, _)| *moved == slot) {
            Some(&(_, owner)) => owner,
            None => self.owners[slot],
        };
        owner.is_none_or(|owner| owner == self.tracks[track].thread)
    }

    /// The size of the candidate set at the replayed loop-top.
    pub(crate) fn bound(&self) -> usize {
        self.candidates.count_ones() as usize
    }

    /// The `index`-th candidate (by thread id) at the replayed loop-top,
    /// as a track index.
    pub(crate) fn candidate(&self, index: usize) -> usize {
        let mut mask = self.candidates;
        for _ in 0..index {
            mask &= mask - 1;
        }
        mask.trailing_zeros() as usize
    }

    /// Statements executed so far, replayed ones included.
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// Prepares the decision `track` would replay next and the candidate
    /// set after it, and returns the decision's statement count. `None`
    /// if it cannot be replayed: the thread has no table, the decision
    /// moves a monitor a postponed thread waits for, or no participant
    /// would be enabled after it (the loop would then release a postponed
    /// thread).
    pub(crate) fn plan(&mut self, track: usize) -> Option<u64> {
        let Phase::Closed { pos } = self.tracks[track].phase else {
            return None;
        };
        let row = &self.tracks[track].rows[pos];
        if row.watched {
            return None;
        }
        let bit = 1u64 << track;
        self.next = if row.locks.is_empty() {
            // Only the stepping thread's own enabledness can have changed.
            let others = self.candidates & !bit;
            if self.is_enabled(track, row.needs, &[]) {
                others | bit
            } else {
                others
            }
        } else {
            (0..self.tracks.len())
                .filter(|&other| {
                    let needs = if other == track {
                        row.needs
                    } else {
                        self.tracks[other].needs
                    };
                    self.is_enabled(other, needs, &row.locks)
                })
                .fold(0, |mask, other| mask | 1 << other)
        };
        (self.next != 0).then_some(row.steps)
    }

    /// Replays the decision [`Spin::plan`] prepared for `track`; returns
    /// its thread.
    pub(crate) fn commit(&mut self, track: usize) -> ThreadId {
        let Spin {
            tracks,
            owners,
            candidates,
            next,
            steps,
            ..
        } = self;
        let track = &mut tracks[track];
        let Phase::Closed { pos } = &mut track.phase else {
            unreachable!("only a closed table is planned");
        };
        let row = &track.rows[*pos];
        for &(slot, owner) in row.locks.iter() {
            owners[slot] = owner;
        }
        track.needs = row.needs;
        track.moved = true;
        *steps += row.steps;
        *pos = (*pos + 1) % track.rows.len();
        *candidates = *next;
        #[cfg(test)]
        tests::REPLAYED.with(|count| count.set(count.get() + 1));
        track.thread
    }

    /// The decisions in one lap of `track`'s table.
    pub(crate) fn period(&self, track: usize) -> u64 {
        self.tracks[track].rows.len() as u64
    }

    /// The statements of one lap of `track`'s table from its position, if
    /// `track` is the lone candidate and stays so after every decision of
    /// the lap: none moves a monitor a postponed thread waits for, none
    /// leaves `track` disabled and none enables another participant. A lap
    /// returns the thread to its state and every monitor it moved to its
    /// owner, so it can be repeated any number of times ([`Spin::jump`]).
    pub(crate) fn solo_lap(&mut self, track: usize) -> Option<u64> {
        let Phase::Closed { pos } = self.tracks[track].phase else {
            return None;
        };
        if self.candidates != 1 << track {
            return None;
        }
        let mut overlay = std::mem::take(&mut self.overlay);
        overlay.clear();
        let rows = &self.tracks[track].rows;
        let mut steps = 0;
        let solo = rows[pos..].iter().chain(&rows[..pos]).all(|row| {
            for &(slot, owner) in row.locks.iter() {
                match overlay.iter_mut().find(|(moved, _)| *moved == slot) {
                    Some(moved) => moved.1 = owner,
                    None => overlay.push((slot, owner)),
                }
            }
            steps += row.steps;
            // Without a lock move only `track`'s own enabledness can change.
            !row.watched
                && self.is_enabled(track, row.needs, &overlay)
                && (row.locks.is_empty()
                    || (0..self.tracks.len()).all(|other| {
                        other == track
                            || !self.is_enabled(other, self.tracks[other].needs, &overlay)
                    }))
        });
        debug_assert!(
            !solo
                || overlay
                    .iter()
                    .all(|&(slot, owner)| self.owners[slot] == owner),
            "a lap did not restore the monitors it moved"
        );
        self.overlay = overlay;
        solo.then_some(steps)
    }

    /// Replays `laps` laps of `track`'s table, each of `lap_steps`
    /// statements, that [`Spin::solo_lap`] accepted: the table position,
    /// the owners and the candidates end where they started.
    pub(crate) fn jump(&mut self, track: usize, laps: u64, lap_steps: u64) {
        self.steps += laps * lap_steps;
        self.tracks[track].moved = true;
        #[cfg(test)]
        {
            let decisions = laps * self.period(track);
            tests::REPLAYED.with(|count| count.set(count.get() + decisions));
            tests::JUMPED.with(|count| count.set(count.get() + decisions));
        }
    }

    /// Writes the replayed state into `exec`: each moved participant's
    /// state, the monitors they hold, and the statement count.
    pub(crate) fn materialise(&mut self, exec: &mut Execution<'_>) {
        if self.steps != exec.steps() {
            self.install.clear();
            for track in &mut self.tracks {
                if let (true, Phase::Closed { pos }) = (track.moved, &track.phase) {
                    let last = (pos + track.rows.len() - 1) % track.rows.len();
                    self.install.push(Arc::clone(&track.rows[last].state));
                    track.moved = false;
                }
            }
            exec.install_replayed(&self.install, self.steps);
            self.install.clear();
        }
        debug_assert!(
            exec.monitors_agree_with_threads(),
            "materialised lock table disagrees with the threads' held sets"
        );
        debug_assert!(
            self.agrees_with(exec),
            "replay candidates disagree after materialising"
        );
    }

    /// The debug cross-check: the simulated candidates are `Enabled(s)`
    /// minus the postponed set.
    fn agrees_with(&self, exec: &Execution<'_>) -> bool {
        (0..exec.thread_count() as u32)
            .map(ThreadId)
            .filter(|&thread| {
                exec.is_enabled(thread) && !self.postponed.iter().any(|&(held, _)| held == thread)
            })
            .eq((0..self.bound()).map(|index| self.tracks[self.candidate(index)].thread))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::{fuzz_once, FuzzConfig};
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// Decisions replayed on this thread.
        pub(crate) static REPLAYED: Cell<u64> = const { Cell::new(0) };
        /// Of those, decisions replayed in whole laps ([`super::Spin::jump`]).
        pub(crate) static JUMPED: Cell<u64> = const { Cell::new(0) };
    }

    /// Two pollers spin while main is postponed at the write they read
    /// after the handshake; `effect` runs on every poll.
    fn handshake(effect: &str) -> cil::Program {
        polling(effect, &["a", "b"])
    }

    /// [`handshake`] with one poller per name in `pollers`.
    fn polling(effect: &str, pollers: &[&str]) -> cil::Program {
        let spawns: String = pollers
            .iter()
            .map(|name| format!("var {name} = spawn poller();\n"))
            .collect();
        let joins: String = pollers
            .iter()
            .map(|name| format!("join {name};\n"))
            .collect();
        cil::compile(&format!(
            r#"
            class Lock {{ }}
            class Cell {{ v }}
            global l;
            global cell;
            global ready = false;
            global data = 0;
            global g = 0;
            proc poller() {{
                var ok = false;
                while (!ok) {{
                    {effect}
                    sync (l) {{ ok = ready; }}
                }}
                @read var x = data;
            }}
            proc main() {{
                l = new Lock;
                cell = new Cell;
                {spawns}
                @write data = 1;
                sync (l) {{ ready = true; }}
                {joins}
            }}
            "#
        ))
        .expect("handshake compiles")
    }

    /// Decisions replayed, and of those jumped in whole laps, over seeds
    /// 1–4 targeting the handshake pair.
    fn counts(program: &cil::Program) -> (u64, u64) {
        let race_set: BTreeSet<_> = [
            program.tagged_access("read"),
            program.tagged_access("write"),
        ]
        .into_iter()
        .collect();
        let before = (REPLAYED.with(Cell::get), JUMPED.with(Cell::get));
        for seed in 1..=4 {
            fuzz_once(program, "main", &race_set, &FuzzConfig::seeded(seed))
                .expect("entry resolves");
        }
        (
            REPLAYED.with(Cell::get) - before.0,
            JUMPED.with(Cell::get) - before.1,
        )
    }

    /// Decisions replayed over seeds 1–4 targeting the handshake pair.
    fn replayed(program: &cil::Program) -> u64 {
        counts(program).0
    }

    #[test]
    fn lock_polling_windows_are_replayed() {
        // Four windows of 20,000 decisions, each interpreted only until
        // the pollers' tables are found.
        let count = replayed(&handshake(""));
        assert!(count > 4 * 19_000, "replayed {count} decisions");
    }

    #[test]
    fn windows_with_effects_are_interpreted() {
        for effect in [
            "var o = new Cell;",
            "print 1;",
            "g = 1 - g;",
            "cell.v = 1 - g;",
        ] {
            assert_eq!(replayed(&handshake(effect)), 0, "{effect}");
        }
    }

    #[test]
    fn lone_poller_windows_are_jumped() {
        // The lone poller is the only candidate for a whole window, and a
        // lap releases `l` to no one: nearly every replayed decision is
        // skipped in whole laps.
        let (replayed, jumped) = counts(&polling("", &["a"]));
        assert!(replayed > 4 * 19_000, "replayed {replayed} decisions");
        assert!(
            jumped * 100 >= replayed * 99,
            "jumped {jumped} of {replayed} replayed decisions"
        );
    }

    #[test]
    fn polling_pairs_are_not_jumped() {
        // A poller alone in the set holds `l`, and releasing it enables
        // the other poller: no lap keeps the set to one thread.
        let (replayed, jumped) = counts(&handshake(""));
        assert!(replayed > 0);
        assert_eq!(jumped, 0);
    }
}
