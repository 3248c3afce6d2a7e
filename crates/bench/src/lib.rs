//! Shared infrastructure for the benchmark harnesses.
//!
//! The binaries regenerate the paper's evaluation artifacts:
//!
//! * `table1` — Table 1 (all 14 benchmarks, paper vs measured),
//! * `fig1`  — the Figure 1 classification walkthrough,
//! * `fig2`  — the Figure 2 probability-vs-padding series,
//! * `ablation` — design-choice ablations (location check, eviction
//!   limits, prediction runs).
//!
//! `cargo bench -p rf-bench` runs the Criterion `overhead` bench comparing
//! uninstrumented execution, hybrid tracing, and the RaceFuzzer scheduler
//! (the paper's runtime columns 3–5).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A [`System`]-backed global allocator that counts heap allocations.
///
/// Install in a harness binary with
/// `#[global_allocator] static A: rf_bench::CountingAlloc = rf_bench::CountingAlloc;`
/// and read deltas of [`CountingAlloc::allocations`] around the measured
/// region. The counter is a single relaxed atomic increment per
/// allocation — negligible next to the allocation itself — and exists so
/// benches can prove that scratch/snapshot reuse actually removes
/// allocator traffic rather than merely shifting wall-clock noise.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    /// Total allocations since process start.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

// SAFETY: delegates every operation to `System`; the counter has no effect
// on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The process's peak resident set size in KiB (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Milliseconds with two decimals, for table cells.
pub fn fmt_ms(duration: Duration) -> String {
    format!("{:.2}ms", duration.as_secs_f64() * 1e3)
}

/// Times `runs` invocations of `body` and returns the mean duration.
pub fn time_mean<F: FnMut()>(runs: u32, mut body: F) -> Duration {
    assert!(runs > 0, "time_mean needs at least one run");
    let start = Instant::now();
    for _ in 0..runs {
        body();
    }
    start.elapsed() / runs
}

/// A plain-text table writer with fixed-width columns.
#[derive(Debug)]
pub struct TextTable {
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header row.
    pub fn new<const N: usize>(header: [&str; N]) -> Self {
        let mut table = TextTable {
            widths: vec![0; N],
            rows: Vec::new(),
        };
        table.row(header.map(str::to_owned));
        table
    }

    /// Appends a row (must match the header arity).
    pub fn row<const N: usize>(&mut self, cells: [String; N]) {
        assert_eq!(cells.len(), self.widths.len(), "column count mismatch");
        for (width, cell) in self.widths.iter_mut().zip(cells.iter()) {
            *width = (*width).max(cell.len());
        }
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with a separator under the header.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (index, row) in self.rows.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .zip(&self.widths)
                .map(|(cell, width)| format!("{cell:>width$}"))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
            if index == 0 {
                let sep: Vec<String> = self.widths.iter().map(|w| "-".repeat(*w)).collect();
                out.push_str(&sep.join("  "));
                out.push('\n');
            }
        }
        out
    }
}

/// Formats an optional probability like the paper's column 11 (`-` when no
/// real race exists).
pub fn fmt_prob(value: Option<f64>) -> String {
    match value {
        Some(p) => format!("{p:.2}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut table = TextTable::new(["name", "value"]);
        table.row(["alpha".into(), "1".into()]);
        table.row(["b".into(), "1000".into()]);
        let text = table.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        let widths: Vec<usize> = lines.iter().map(|line| line.len()).collect();
        assert!(widths.windows(2).all(|pair| pair[0] == pair[1]));
    }

    #[test]
    fn prob_formatting() {
        assert_eq!(fmt_prob(Some(0.5)), "0.50");
        assert_eq!(fmt_prob(None), "-");
    }

    #[test]
    fn time_mean_runs_body() {
        let mut count = 0;
        let _ = time_mean(5, || count += 1);
        assert_eq!(count, 5);
    }
}
