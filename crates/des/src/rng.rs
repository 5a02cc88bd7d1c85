//! The simulator's one random stream.
//!
//! Every stochastic input — the ring's bit errors, a workload's arrivals
//! and service times, the randomized protocol tests — draws from a
//! [`SimRng`] seeded explicitly, so experiment tables are reproducible
//! run-to-run and the determinism tests can compare whole event traces.
//! The generator is xoshiro256** seeded by splitmix64: deterministic per
//! seed, not cryptographically secure.

/// A seeded xoshiro256** generator.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Construct from an explicit 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 uniformly random bits; every draw below is one or more.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`, by a widening multiply (its bias is
    /// below 2^-64 a draw). Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below: empty range");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform f64 in `[0, 1)`, from the top 53 bits of a draw.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!(!p.is_nan(), "chance: p is NaN");
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// A payload of `len` random bytes: each draw gives eight, little
    /// end first, and a short tail takes the first bytes of one more.
    pub fn payload(&mut self, len: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(len);
        while v.len() < len {
            let word = self.next_u64().to_le_bytes();
            v.extend_from_slice(&word[..(len - v.len()).min(8)]);
        }
        v
    }

    /// Choose an element index for a slice of length `len`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot index an empty slice");
        self.below(len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first 16 draws of each kind, and a 13-byte payload, from seeds
    /// 0, 1 and 1999, as recorded from the stream before its generator
    /// moved into this file: every golden, pin and fingerprint rests on it.
    #[test]
    fn the_stream_is_pinned() {
        const SEEDS: [u64; 3] = [0, 1, 1999];
        #[rustfmt::skip]
        const BELOW_1E6: [[u64; 16]; 3] = [
            [601262, 747774, 103019, 416589, 732996, 999748, 422211, 535654,
             855517, 918858, 114297, 67231, 106674, 654833, 496058, 296365],
            [702921, 520436, 574105, 391328, 697178, 143572, 71045, 381184,
             867152, 551709, 932572, 957218, 932772, 669096, 599933, 890542],
            [935182, 847882, 690414, 560575, 531589, 907272, 947286, 486192,
             957620, 828470, 157201, 15241, 500200, 46094, 283750, 939],
        ];
        #[rustfmt::skip]
        const UNIT_BITS: [[u64; 16]; 3] = [
            [4603590915185536702, 4604910569794382536, 4592087793236784096,
             4601176221580626762, 4604777467587326085, 4607180152915049849,
             4601277506563390802, 4602999969657518177, 4605881032996350578,
             4606451556752543379, 4592900420952932136, 4589508988972212552,
             4592351139297181064, 4604073432364953819, 4602607808957388670,
             4599010461569639338],
            [4604506576557045986, 4602862895880529609, 4603346303978636616,
             4600721169303247272, 4604454844459336806, 4594340748059999952,
             4589783768001017104, 4600538428446207098, 4605985834759830953,
             4603144580215821494, 4606575085350489668, 4606797074304662269,
             4606576889123587961, 4604201907583883468, 4603578939318398993,
             4606196511261369394],
            [4606598593516763091, 4605812270317001595, 4604393922388167557,
             4603224438423146035, 4602963355711899344, 4606347200164902164,
             4606707618192913525, 4602430079807027910, 4606800698357102077,
             4605637420711048021, 4594831794463893196, 4579939968294711616,
             4602680620714772872, 4586803747766694960, 4598783205879528484,
             4561807617254917120],
        ];
        #[rustfmt::skip]
        const BELOW_100: [[u64; 16]; 3] = [
            [60, 74, 10, 41, 73, 99, 42, 53, 85, 91, 11, 6, 10, 65, 49, 29],
            [70, 52, 57, 39, 69, 14, 7, 38, 86, 55, 93, 95, 93, 66, 59, 89],
            [93, 84, 69, 56, 53, 90, 94, 48, 95, 82, 15, 1, 50, 4, 28, 0],
        ];
        #[rustfmt::skip]
        const PAYLOAD_13: [[u8; 13]; 3] = [
            [180, 242, 117, 203, 54, 95, 236, 153, 42, 69, 86, 73, 120],
            [197, 16, 199, 15, 109, 175, 242, 179, 234, 76, 54, 71, 150],
            [45, 155, 190, 11, 171, 28, 104, 239, 105, 221, 219, 10, 147],
        ];
        for (k, seed) in SEEDS.into_iter().enumerate() {
            let draws = |draw: fn(&mut SimRng) -> u64| {
                let mut r = SimRng::seeded(seed);
                [(); 16].map(|_| draw(&mut r))
            };
            assert_eq!(draws(|r| r.below(1_000_000)), BELOW_1E6[k], "{seed}");
            assert_eq!(draws(|r| r.unit().to_bits()), UNIT_BITS[k], "{seed}");
            assert_eq!(draws(|r| r.below(100)), BELOW_100[k], "{seed}");
            let payload = SimRng::seeded(seed).payload(13);
            assert_eq!(payload, PAYLOAD_13[k], "{seed}");
        }
    }

    #[test]
    fn seeded_streams_repeat() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        for _ in 0..64 {
            assert_eq!(a.below(1_000_000), b.below(1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seeded(1);
        let mut b = SimRng::seeded(2);
        let same = (0..32)
            .filter(|_| a.below(1 << 30) == b.below(1 << 30))
            .count();
        assert!(same < 4, "streams should diverge");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::seeded(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn unit_interval() {
        let mut r = SimRng::seeded(7);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&r.unit()));
        }
    }

    #[test]
    fn chance_is_sane() {
        let mut r = SimRng::seeded(1);
        let heads = (0..10_000).filter(|_| r.chance(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "heads={heads}");
        assert!(!r.chance(0.0) && !r.chance(-1.0));
        assert!(r.chance(1.0) && r.chance(2.0));
    }

    #[test]
    fn payload_has_requested_length() {
        let mut r = SimRng::seeded(3);
        assert_eq!(r.payload(0).len(), 0);
        assert_eq!(r.payload(1024).len(), 1024);
    }

    #[test]
    fn fill_covers_tail_bytes() {
        let buf = SimRng::seeded(2).payload(13);
        // A 13-byte payload of all zeros would be a 2^-104 event.
        assert!(buf.iter().any(|&b| b != 0));
    }
}
