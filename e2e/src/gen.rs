//! The seeded program generator behind the `long-prologue` workload.
//!
//! Every program has the shape the snapshot layer exists for: a long,
//! purely thread-local warm-up in `main` (no shared-memory access, so the
//! entry-prologue snapshot covers all of it), then 2–4 spawned workers that
//! race on a global and on a heap field over a short suffix. A trial that
//! resumes from the prologue snapshot skips the warm-up; a trial that does
//! not pays for all of it.
//!
//! The generator varies what the snapshot layer depends on: the warm-up
//! and suffix lengths (with the seed), the thread count (2–4 in every set),
//! and the heap the warm-up allocates relative to
//! `SnapshotOptions::budget_bytes` (with the seed, and small or large in
//! every set). A program
//! on a "large" heap makes every trie snapshot big enough that a handful of
//! them exceed the default 32 MiB budget, so evictions appear; a "small"
//! heap never evicts.
//!
//! The draws are stratified and antithetic: programs `i` and `i + 3` run
//! the same number of workers (2, 3 or 4), on a small and on a large heap,
//! and take opposite draws — one's warm-up, suffix and hold loop are as much
//! longer than the centre as the other's are shorter. Every program differs
//! between seeds while the set's total work, peak memory and racing pairs
//! stay fixed, so run-to-run differences in the end-to-end times come from
//! the code under test, not from the seed. Evictions appear on the
//! large-heap programs whose workers leave long single-thread stretches.

use std::fmt::Write as _;

/// SplitMix64: a tiny, well-mixed generator, so the inputs depend on the
/// seed alone and not on any library's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The knobs of one generated program.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Spawned worker threads (2–4).
    pub threads: u64,
    /// Warm-up loop iterations in `main` before the first spawn.
    pub warmup: u64,
    /// Loop iterations of each worker's racy suffix.
    pub suffix: u64,
    /// Local loop iterations after each worker's racy accesses: long enough
    /// (beyond `SnapshotOptions::min_capture_gain` steps) that a trial with
    /// one worker postponed runs a stretch worth a trie snapshot.
    pub hold: u64,
    /// The warm-up allocates one two-field object every this many
    /// iterations: 1 makes each snapshot several MiB, so a handful exceed
    /// the default budget; 64 and up keeps them far below it.
    pub alloc_every: u64,
}

/// Program-set size parameters.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Programs per set: 3 (2, 3 and 4 workers on small heaps) or 6 (the
    /// same again on large heaps).
    pub programs: usize,
    /// Centre of the warm-up length; each program draws within ±10%.
    pub warmup: u64,
}

/// The shapes of one program set, drawn from `seed`.
pub fn shapes(seed: u64, sizes: Sizes) -> Vec<Shape> {
    let mut rng = Rng::new(seed);
    let spread = sizes.warmup / 10;
    // One draw per worker count, shared by its small- and large-heap
    // programs with opposite signs.
    let draws: Vec<[u64; 4]> = (0..3)
        .map(|_| {
            [
                rng.range(0, 2 * spread),
                rng.range(0, 1),
                rng.range(0, 30),
                rng.range(64, 256),
            ]
        })
        .collect();
    (0..sizes.programs)
        .map(|i| {
            let [warmup, suffix, hold, alloc_every] = draws[i % 3];
            let large = i >= 3;
            let signed = |draw: u64, width: u64| if large { width - draw } else { draw };
            Shape {
                threads: 2 + (i % 3) as u64,
                warmup: sizes.warmup - spread + signed(warmup, 2 * spread),
                suffix: 4 + signed(suffix, 1),
                hold: 170 + signed(hold, 30),
                alloc_every: if large { 1 } else { alloc_every },
            }
        })
        .collect()
}

/// CIL source text for one program of the given shape. `salt` varies the
/// warm-up's arithmetic so no two programs are textually alike.
pub fn render(shape: &Shape, salt: u64) -> String {
    let mut src = String::new();
    src.push_str("class Cell { v, w }\nclass Pad { a, b }\n");
    src.push_str("global hits = 0;\nglobal last = 0;\nglobal sink = 0;\n\n");
    for k in 1..=shape.threads {
        // Each worker is its own procedure, so its statements are distinct
        // and the racing pairs grow with the thread count.
        let _ = write!(
            src,
            "proc worker{k}(c, n) {{\n\
             \x20   var j = 0;\n\
             \x20   while (j < n) {{\n\
             \x20       hits = hits + {k};\n\
             \x20       c.v = c.v + j;\n\
             \x20       var x = 0;\n\
             \x20       while (x < {hold}) {{ x = x + 1; }}\n\
             \x20       j = j + 1;\n\
             \x20   }}\n\
             \x20   last = {k};\n\
             }}\n\n",
            hold = shape.hold,
        );
    }
    let multiplier = 3 + salt % 97;
    let _ = write!(
        src,
        "proc main() {{\n\
         \x20   var c = new Cell;\n\
         \x20   var pad = null;\n\
         \x20   var acc = {salt};\n\
         \x20   var i = 0;\n\
         \x20   while (i < {warmup}) {{\n\
         \x20       acc = (acc * {multiplier} + i) % 1000003;\n\
         \x20       if (i % {every} == 0) {{ pad = new Pad; }}\n\
         \x20       i = i + 1;\n\
         \x20   }}\n\
         \x20   c.v = 0;\n",
        salt = salt % 1000,
        warmup = shape.warmup,
        every = shape.alloc_every,
    );
    for k in 1..=shape.threads {
        let _ = writeln!(src, "    var t{k} = spawn worker{k}(c, {});", shape.suffix);
    }
    for k in 1..=shape.threads {
        let _ = writeln!(src, "    join t{k};");
    }
    src.push_str("    sink = acc;\n}\n");
    src
}
