//! A small, self-contained, splittable PRNG.
//!
//! Replay in RaceFuzzer works by re-running with the same seed (paper §2.2:
//! "we can trivially replay a concurrent execution by picking the same seed
//! for random number generation"). That guarantee must survive toolchain and
//! dependency upgrades, so the generator is implemented here —
//! xoshiro256\*\* seeded via SplitMix64 — rather than taken from an external
//! crate whose stream might change between versions.

/// Deterministic xoshiro256\*\* generator.
///
/// # Examples
///
/// ```
/// use interp::Rng;
///
/// let mut a = Rng::seeded(42);
/// let mut b = Rng::seeded(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a seed. Any seed (including 0) is fine.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "Rng::below requires a non-zero bound");
        // Widening-multiply rejection-free mapping (slightly biased for huge
        // bounds; bounds here are thread counts, so the bias is negligible
        // and the mapping is stable, which is what replay needs).
        let x = self.next_u64() as u128;
        ((x * bound as u128) >> 64) as usize
    }

    /// A fair coin flip — used to resolve detected races randomly
    /// (Algorithm 1, line 11).
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Derives an independent generator (for per-trial streams).
    pub fn split(&mut self) -> Rng {
        Rng::seeded(self.next_u64())
    }

    /// Advances the stream by `n` draws without using the outputs, in
    /// O(log n): the state afterwards is exactly the one `n` calls of
    /// [`Rng::next_u64`] would leave.
    ///
    /// Snapshot resume reconstructs a trial's generator as
    /// `Rng::seeded(seed)` fast-forwarded past the draws the skipped
    /// prefix consumed; this is that fast-forward. Below a few thousand
    /// draws it steps; above, it splits `n` into powers of two and jumps
    /// over each with a polynomial in the state transition (the module's
    /// `CHAR_POLY` notes say why that is exact).
    ///
    /// # Examples
    ///
    /// ```
    /// use interp::Rng;
    ///
    /// let mut jumped = Rng::seeded(7);
    /// jumped.discard(1 << 20);
    /// let mut stepped = Rng::seeded(7);
    /// for _ in 0..1 << 20 {
    ///     stepped.next_u64();
    /// }
    /// assert_eq!(jumped, stepped);
    /// ```
    pub fn discard(&mut self, n: u64) {
        if n < JUMP_CUTOFF {
            for _ in 0..n {
                self.next_u64();
            }
            return;
        }
        // Applying a jump polynomial costs 256 transitions, so the low
        // `STEPPED_BITS` bits (at most 255 draws) are cheaper to step.
        for _ in 0..n & ((1 << STEPPED_BITS) - 1) {
            self.next_u64();
        }
        let mut rest = n >> STEPPED_BITS;
        while rest != 0 {
            let bit = rest.trailing_zeros() as usize;
            self.apply(&POW2_MOD_P[bit + STEPPED_BITS]);
            rest &= rest - 1;
        }
    }

    /// Replaces the state `s` with `r(T)·s` = Σ r_i·Tⁱ·s, where `r` holds
    /// the coefficients of a polynomial of degree < 256 (coefficient i at
    /// bit `i % 64` of word `i / 64`). With `r = xⁿ mod P` this is the
    /// state `n` transitions ahead, because `P(T) = 0`.
    fn apply(&mut self, r: &Poly) {
        let mut acc = [0u64; 4];
        for &word in r {
            for bit in 0..64 {
                let mask = 0u64.wrapping_sub(word >> bit & 1);
                for (acc, s) in acc.iter_mut().zip(self.state) {
                    *acc ^= s & mask;
                }
                self.next_u64();
            }
        }
        self.state = acc;
    }
}

/// A polynomial over GF(2) of degree < 256: coefficient i is bit `i % 64`
/// of word `i / 64`.
type Poly = [u64; 4];

/// The characteristic polynomial P(x) = x²⁵⁶ + … of xoshiro256's state
/// transition `T` (a linear map on GF(2)²⁵⁶), without its leading term.
/// P is primitive, so it is also `T`'s minimal polynomial and
/// `Tⁿ = (xⁿ mod P)(T)` for every n. Derived by Berlekamp–Massey from one
/// state bit's sequence; the tests re-derive it and check x^(2¹²⁸) and
/// x^(2¹⁹²) mod P against the published `JUMP` and `LONG_JUMP` constants
/// (Blackman & Vigna, "Scrambled Linear Pseudorandom Number Generators",
/// ACM TOMS 2021).
const CHAR_POLY: Poly = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// Below this many draws [`Rng::discard`] steps instead of jumping: a jump
/// costs up to 255 steps plus 256 transitions per set bit above them.
const JUMP_CUTOFF: u64 = 2_048;

/// The low bits of a discard count that are stepped rather than jumped.
const STEPPED_BITS: usize = 8;

/// `POW2_MOD_P[k]` = x^(2ᵏ) mod P: the jump polynomial for 2ᵏ draws.
static POW2_MOD_P: [Poly; 64] = pow2_mod_p();

const fn pow2_mod_p() -> [Poly; 64] {
    let mut table = [[0u64; 4]; 64];
    table[0][0] = 0b10; // x
    let mut k = 1;
    while k < 64 {
        table[k] = mul_mod_p(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
}

/// `a·b mod P` by shift-and-add: `a` runs through `a·xⁱ mod P` while the
/// coefficients of `b` select which of them to add.
const fn mul_mod_p(mut a: Poly, b: Poly) -> Poly {
    let mut product = [0u64; 4];
    let mut i = 0;
    while i < 256 {
        if b[i / 64] >> (i % 64) & 1 == 1 {
            let mut w = 0;
            while w < 4 {
                product[w] ^= a[w];
                w += 1;
            }
        }
        // a ← a·x mod P: shift left one place and fold x²⁵⁶ back as P's
        // low terms.
        let carry = a[3] >> 63;
        a[3] = a[3] << 1 | a[2] >> 63;
        a[2] = a[2] << 1 | a[1] >> 63;
        a[1] = a[1] << 1 | a[0] >> 63;
        a[0] <<= 1;
        if carry == 1 {
            let mut w = 0;
            while w < 4 {
                a[w] ^= CHAR_POLY[w];
                w += 1;
            }
        }
        i += 1;
    }
    product
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seeded(7);
        let mut b = Rng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seeded(1);
        let mut b = Rng::seeded(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Rng::seeded(3);
        for bound in 1..20 {
            for _ in 0..50 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_reaches_every_value() {
        let mut rng = Rng::seeded(11);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.below(5)] = true;
        }
        assert!(seen.iter().all(|&hit| hit));
    }

    #[test]
    fn coin_is_roughly_fair() {
        let mut rng = Rng::seeded(5);
        let heads = (0..10_000).filter(|_| rng.coin()).count();
        assert!((4_000..6_000).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn choose_picks_existing_elements() {
        let mut rng = Rng::seeded(9);
        let items = ["a", "b", "c"];
        for _ in 0..20 {
            assert!(items.contains(rng.choose(&items)));
        }
    }

    #[test]
    fn split_streams_are_independent_but_deterministic() {
        let mut parent1 = Rng::seeded(42);
        let mut parent2 = Rng::seeded(42);
        let mut child1 = parent1.split();
        let mut child2 = parent2.split();
        assert_eq!(child1.next_u64(), child2.next_u64());
        assert_ne!(Rng::seeded(42).next_u64(), Rng::seeded(43).next_u64());
    }

    #[test]
    #[should_panic(expected = "non-zero bound")]
    fn below_zero_bound_panics() {
        Rng::seeded(0).below(0);
    }

    /// Seeds for the jump-ahead checks: zero, small, large and all-ones.
    const JUMP_SEEDS: [u64; 8] = [0, 1, 2, 17, 42, 0xdead_beef, 1 << 63, u64::MAX];

    /// The discard counts a jump must get right: the edges of stepping
    /// (0, 1, the stepped low bits, the cutoff ± 1), 2ᵏ ± 1 up to k = 21,
    /// and seeded-random counts up to 3M.
    fn discard_counts() -> Vec<u64> {
        let mut counts = vec![0, 1, 2, 255, 256, 257, JUMP_CUTOFF - 1, JUMP_CUTOFF];
        counts.push(JUMP_CUTOFF + 1);
        for k in 1..=21 {
            counts.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        let mut draw = Rng::seeded(2_048);
        counts.extend((0..12).map(|_| draw.below(3_000_000) as u64));
        counts.sort_unstable();
        counts.dedup();
        counts
    }

    #[test]
    fn discard_equals_stepping_on_and_above_the_cutoff() {
        let counts = discard_counts();
        for seed in JUMP_SEEDS {
            // One stepped stream per seed, compared at every count on the
            // way, keeps the check at max(counts) steps instead of their sum.
            let mut stepped = Rng::seeded(seed);
            let mut at = 0;
            for &n in &counts {
                for _ in at..n {
                    stepped.next_u64();
                }
                at = n;
                let mut jumped = Rng::seeded(seed);
                jumped.discard(n);
                assert_eq!(jumped, stepped, "seed {seed}: discard({n}) != {n} draws");
            }
        }
    }

    #[test]
    fn discards_compose() {
        let pairs: [(u64, u64); 5] = [
            (3_000_000, 5_000_000_000),
            ((1 << 40) | 12_345, (1 << 41) | 999),
            (u64::MAX / 2, u64::MAX / 3),
            (JUMP_CUTOFF + 1, (1 << 62) - 1),
            (0x0123_4567_89ab_cdef, 0x0fed_cba9_8765_4321),
        ];
        for seed in JUMP_SEEDS {
            for (a, b) in pairs {
                let mut split = Rng::seeded(seed);
                split.discard(a);
                split.discard(b);
                let mut swapped = Rng::seeded(seed);
                swapped.discard(b);
                swapped.discard(a);
                let mut whole = Rng::seeded(seed);
                whole.discard(a + b);
                assert_eq!(split, whole, "seed {seed}: discard({a}); discard({b})");
                assert_eq!(swapped, whole, "seed {seed}: discard({b}); discard({a})");
            }
        }
    }

    /// The connection polynomial of the shortest linear recurrence that
    /// generates `bits` (Berlekamp–Massey over GF(2)), as coefficient bits
    /// `c[0] = 1, c[1], …, c[len]`, and its length.
    fn berlekamp_massey(bits: &[bool]) -> (Vec<bool>, usize) {
        let mut c = vec![false; bits.len() + 1];
        let mut b = vec![false; bits.len() + 1];
        c[0] = true;
        b[0] = true;
        let (mut len, mut shift) = (0usize, 1usize);
        for n in 0..bits.len() {
            let discrepancy = (1..=len).fold(bits[n], |d, i| d ^ (c[i] & bits[n - i]));
            if !discrepancy {
                shift += 1;
                continue;
            }
            let previous = c.clone();
            for i in 0..=bits.len() - shift {
                c[i + shift] ^= b[i];
            }
            if 2 * len <= n {
                len = n + 1 - len;
                b = previous;
                shift = 1;
            } else {
                shift += 1;
            }
        }
        (c, len)
    }

    #[test]
    fn char_poly_is_the_minimal_polynomial_of_every_state_bit() {
        // Each sequence of one state bit obeys the recurrence of T's
        // minimal polynomial; for a primitive P the shortest recurrence is
        // P itself, from any nonzero state and any bit.
        for (seed, word, bit) in [(0, 0, 0), (1, 1, 17), (42, 2, 63), (u64::MAX, 3, 5)] {
            let mut rng = Rng::seeded(seed);
            let bits: Vec<bool> = (0..512)
                .map(|_| {
                    let b = rng.state[word] >> bit & 1 == 1;
                    rng.next_u64();
                    b
                })
                .collect();
            let (connection, len) = berlekamp_massey(&bits);
            assert_eq!(len, 256, "seed {seed}: recurrence length");
            // P is the connection polynomial reversed: coefficient i of P
            // is c[256 - i], and c[0] = 1 is P's leading x²⁵⁶.
            let mut derived = [0u64; 4];
            for i in 0..256 {
                if connection[256 - i] {
                    derived[i / 64] |= 1 << (i % 64);
                }
            }
            assert_eq!(
                derived, CHAR_POLY,
                "seed {seed}, state word {word} bit {bit}"
            );
        }
    }

    #[test]
    fn char_poly_annihilates_the_transition() {
        // P(T)·s = Σ pᵢ·Tⁱ·s + T²⁵⁶·s must vanish for every state s.
        for seed in JUMP_SEEDS {
            let mut low_terms = Rng::seeded(seed);
            low_terms.apply(&CHAR_POLY);
            let mut leading = Rng::seeded(seed);
            for _ in 0..256 {
                leading.next_u64();
            }
            assert_eq!(low_terms, leading, "seed {seed}");
        }
    }

    #[test]
    fn power_table_starts_at_the_unreduced_monomials() {
        // x^(2ᵏ) needs no reduction while 2ᵏ < 256.
        for (k, row) in POW2_MOD_P.iter().enumerate().take(STEPPED_BITS) {
            let mut monomial = [0u64; 4];
            monomial[(1 << k) / 64] = 1 << ((1 << k) % 64);
            assert_eq!(*row, monomial, "x^(2^{k})");
        }
    }

    #[test]
    fn squaring_the_table_reaches_the_published_jump_constants() {
        // xoshiro256's reference `jump()` and `long_jump()` apply these
        // polynomials to advance 2¹²⁸ and 2¹⁹² draws.
        const JUMP: Poly = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        const LONG_JUMP: Poly = [
            0x76e1_5d3e_fefd_cbbf,
            0xc500_4e44_1c52_2fb3,
            0x7771_0069_854e_e241,
            0x3910_9bb0_2acb_e635,
        ];
        let mut power = POW2_MOD_P[63];
        for _ in 63..128 {
            power = mul_mod_p(power, power);
        }
        assert_eq!(power, JUMP, "x^(2^128) mod P");
        for _ in 128..192 {
            power = mul_mod_p(power, power);
        }
        assert_eq!(power, LONG_JUMP, "x^(2^192) mod P");
    }

    #[test]
    fn discard_matches_manual_draws() {
        let mut skipped = Rng::seeded(17);
        let mut drawn = Rng::seeded(17);
        skipped.discard(23);
        for _ in 0..23 {
            drawn.next_u64();
        }
        assert_eq!(skipped, drawn);
        assert_eq!(skipped.next_u64(), drawn.next_u64());
    }

    #[test]
    fn known_vector_is_stable() {
        // Pin the stream so accidental algorithm changes (which would break
        // seed-replay compatibility) fail loudly.
        let mut rng = Rng::seeded(0);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                11091344671253066420,
                13793997310169335082,
                1900383378846508768
            ]
        );
    }
}
