//! Seeded operation sequences. Everything a run does that depends on
//! `--seed` is derived here, so the same seed always yields the same
//! operations in the same order.

use safara_core::SplitMix64;

/// Requests each `serve_mix` client sends per round.
pub const SERVE_ROUND: usize = 16;
/// Requests per client round that carry a never-seen content key.
pub const SERVE_FRESH_PER_ROUND: usize = 2;

/// An independent stream for one purpose (`tag`) and index, so that
/// adding a stream never shifts another one.
pub fn stream(seed: u64, tag: u64, index: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let base = mix.next_u64();
    SplitMix64::new(base ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9))
}

/// Fisher–Yates permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_index(i + 1));
    }
    v
}

/// The order of one pass over a `rows × cols` matrix of operations:
/// every cell exactly once, as `(row, col)`.
pub fn pass_order(seed: u64, tag: u64, pass: u64, rows: usize, cols: usize) -> Vec<(usize, usize)> {
    shuffled(rows * cols, &mut stream(seed, tag, pass))
        .into_iter()
        .map(|flat| (flat / cols, flat % cols))
        .collect()
}

/// One `serve_mix` request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeOp {
    /// Repeat warm key `k` (an index into the warm key list).
    Warm(usize),
    /// A fresh content key: the saxpy kernel with this `alpha`.
    Fresh(f32),
}

/// Client `client`'s `round`-th round: [`SERVE_ROUND`] requests, of
/// which [`SERVE_FRESH_PER_ROUND`] are fresh, at seeded positions, and
/// the rest seeded warm keys out of `warm_keys`.
///
/// Fresh `alpha`s are distinct across clients and rounds for up to 2^20
/// rounds per client: `1 + m·2⁻²²` with `m` a seeded offset plus a
/// per-request counter, all exactly representable in `f32`.
pub fn serve_round(seed: u64, client: usize, round: u64, warm_keys: usize) -> Vec<ServeOp> {
    let mut rng = stream(seed, 3 + client as u64, round);
    let fresh_slots: Vec<usize> = shuffled(SERVE_ROUND, &mut rng)[..SERVE_FRESH_PER_ROUND].to_vec();
    let offset = stream(seed, 2, 0).next_u64() & 0x3f_ffff;
    let mut fresh_seen = 0u64;
    (0..SERVE_ROUND)
        .map(|slot| {
            if fresh_slots.contains(&slot) {
                let counter =
                    (round * SERVE_FRESH_PER_ROUND as u64 + fresh_seen) * 2 + client as u64;
                fresh_seen += 1;
                let m = (offset + counter) & 0x3f_ffff;
                ServeOp::Fresh(1.0 + m as f32 / (1u32 << 22) as f32)
            } else {
                ServeOp::Warm(rng.gen_index(warm_keys))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pass_order() {
        let a = pass_order(7, 1, 3, 16, 7);
        assert_eq!(a, pass_order(7, 1, 3, 16, 7));
        assert_ne!(a, pass_order(8, 1, 3, 16, 7));
        assert_ne!(a, pass_order(7, 1, 4, 16, 7));
        let mut cells = a.clone();
        cells.sort();
        let all: Vec<(usize, usize)> = (0..16).flat_map(|r| (0..7).map(move |c| (r, c))).collect();
        assert_eq!(cells, all, "a pass visits every cell once");
    }

    #[test]
    fn same_seed_same_requests() {
        for client in 0..2 {
            for round in 0..5 {
                assert_eq!(
                    serve_round(11, client, round, 30),
                    serve_round(11, client, round, 30)
                );
            }
        }
        assert_ne!(serve_round(11, 0, 0, 30), serve_round(12, 0, 0, 30));
    }

    #[test]
    fn rounds_have_a_fixed_make_up_and_fresh_keys_never_repeat() {
        let mut alphas = Vec::new();
        for client in 0..2 {
            for round in 0..200 {
                let ops = serve_round(5, client, round, 30);
                assert_eq!(ops.len(), SERVE_ROUND);
                for op in ops {
                    match op {
                        ServeOp::Fresh(a) => alphas.push(a.to_bits()),
                        ServeOp::Warm(k) => assert!(k < 30),
                    }
                }
            }
        }
        assert_eq!(alphas.len(), 2 * 200 * SERVE_FRESH_PER_ROUND);
        alphas.sort();
        alphas.dedup();
        assert_eq!(
            alphas.len(),
            2 * 200 * SERVE_FRESH_PER_ROUND,
            "a fresh alpha repeated"
        );
    }
}
