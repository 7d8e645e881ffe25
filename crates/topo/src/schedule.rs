//! Explicit per-step transfer schedules for the discrete-event simulator.
//!
//! While the analytical model only needs aggregate factors, the simulator in
//! `amped-sim` executes collectives as sequences of point-to-point transfers
//! over contended links. A [`Schedule`] is that sequence: transfers with the
//! same `step` may proceed in parallel, consecutive steps are serialized by a
//! dependency barrier.

use serde::{Deserialize, Serialize};

/// One point-to-point transfer inside a collective schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TransferStep {
    /// Phase index; transfers sharing a step run concurrently.
    pub step: usize,
    /// Sending rank (group-local, `0..n`).
    pub src: usize,
    /// Receiving rank (group-local, `0..n`).
    pub dst: usize,
    /// Payload of this transfer in bytes.
    pub bytes: u64,
}

/// A collective lowered to point-to-point transfers.
///
/// Invariant: transfers are stored in non-decreasing `step` order, so
/// [`Schedule::steps`] groups them in one pass. Every constructor emits
/// them that way; a deserialized schedule that does not is reported by
/// [`crate::verify::check_schedule`].
///
/// # Example
///
/// ```
/// use amped_topo::Schedule;
/// let s = Schedule::ring_all_reduce(4, 4096);
/// assert_eq!(s.num_steps(), 6); // 2 * (4 - 1)
/// assert_eq!(s.total_bytes(), 4 * 6 * 1024); // each rank sends 1 KiB shard per step
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schedule {
    transfers: Vec<TransferStep>,
    num_ranks: usize,
}

impl Schedule {
    /// An empty schedule over `num_ranks` ranks (what collectives over a
    /// single rank lower to).
    pub fn empty(num_ranks: usize) -> Self {
        Schedule {
            transfers: Vec::new(),
            num_ranks,
        }
    }

    /// Bandwidth-optimal ring all-reduce of a `bytes`-sized buffer over `n`
    /// ranks: `n−1` reduce-scatter steps followed by `n−1` all-gather steps,
    /// each rank exchanging a `bytes/n` shard with its ring neighbour.
    ///
    /// Shards are rounded up to whole bytes so the schedule never moves less
    /// than the logical payload.
    pub fn ring_all_reduce(n: usize, bytes: u64) -> Self {
        if n <= 1 {
            return Schedule::empty(n.max(1));
        }
        let shard = bytes.div_ceil(n as u64);
        let mut transfers = Vec::with_capacity(2 * (n - 1) * n);
        for step in 0..2 * (n - 1) {
            for src in 0..n {
                transfers.push(TransferStep {
                    step,
                    src,
                    dst: (src + 1) % n,
                    bytes: shard,
                });
            }
        }
        Schedule {
            transfers,
            num_ranks: n,
        }
    }

    /// Ring reduce-scatter: `n−1` neighbour-exchange steps of `bytes/n`
    /// shards; each rank ends with one fully reduced shard.
    pub fn ring_reduce_scatter(n: usize, bytes: u64) -> Self {
        Self::ring_half(n, bytes)
    }

    /// Ring all-gather: `n−1` neighbour-exchange steps of `bytes/n` shards;
    /// each rank ends with the full concatenated buffer.
    pub fn ring_all_gather(n: usize, bytes: u64) -> Self {
        Self::ring_half(n, bytes)
    }

    fn ring_half(n: usize, bytes: u64) -> Self {
        if n <= 1 {
            return Schedule::empty(n.max(1));
        }
        let shard = bytes.div_ceil(n as u64);
        let mut transfers = Vec::with_capacity((n - 1) * n);
        for step in 0..(n - 1) {
            for src in 0..n {
                transfers.push(TransferStep {
                    step,
                    src,
                    dst: (src + 1) % n,
                    bytes: shard,
                });
            }
        }
        Schedule {
            transfers,
            num_ranks: n,
        }
    }

    /// Pairwise-exchange all-to-all: `n−1` steps; at step `k` every rank `r`
    /// exchanges its `bytes/n` slice with rank `r ⊕-style partner (r+k+1) mod n`.
    ///
    /// This is the default all-to-all the paper assumes for MoE routing
    /// (topology factor `(N−1)/N`).
    pub fn pairwise_all_to_all(n: usize, bytes: u64) -> Self {
        if n <= 1 {
            return Schedule::empty(n.max(1));
        }
        let slice = bytes.div_ceil(n as u64);
        let mut transfers = Vec::with_capacity((n - 1) * n);
        for step in 0..(n - 1) {
            for src in 0..n {
                let dst = (src + step + 1) % n;
                transfers.push(TransferStep {
                    step,
                    src,
                    dst,
                    bytes: slice,
                });
            }
        }
        Schedule {
            transfers,
            num_ranks: n,
        }
    }

    /// Recursive halving–doubling all-reduce for power-of-two groups:
    /// `2·log2(n)` steps (reduce-scatter by recursive halving, all-gather by
    /// recursive doubling). Latency-optimal for small payloads; the
    /// per-rank volume matches the ring's `2(n−1)/n · bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two (use
    /// [`Schedule::ring_all_reduce`] otherwise).
    pub fn halving_doubling_all_reduce(n: usize, bytes: u64) -> Self {
        if n <= 1 {
            return Schedule::empty(n.max(1));
        }
        assert!(n.is_power_of_two(), "halving-doubling requires a power-of-two group, got {n}");
        let stages = n.trailing_zeros() as usize;
        let mut transfers = Vec::new();
        // Reduce-scatter: at stage k, partners are distance n/2^(k+1) apart
        // and exchange half of the data they still own.
        let mut step = 0usize;
        for k in 0..stages {
            let chunk = bytes.div_ceil(2u64 << k);
            let dist = n >> (k + 1);
            for src in 0..n {
                let dst = src ^ dist;
                transfers.push(TransferStep {
                    step,
                    src,
                    dst,
                    bytes: chunk,
                });
            }
            step += 1;
        }
        // All-gather mirrors the pattern in reverse.
        for k in (0..stages).rev() {
            let chunk = bytes.div_ceil(2u64 << k);
            let dist = n >> (k + 1);
            for src in 0..n {
                let dst = src ^ dist;
                transfers.push(TransferStep {
                    step,
                    src,
                    dst,
                    bytes: chunk,
                });
            }
            step += 1;
        }
        Schedule {
            transfers,
            num_ranks: n,
        }
    }

    /// Binomial-tree broadcast from rank 0: `ceil(log2 n)` doubling steps.
    pub fn tree_broadcast(n: usize, bytes: u64) -> Self {
        if n <= 1 {
            return Schedule::empty(n.max(1));
        }
        let mut transfers = Vec::new();
        let mut have = 1usize; // ranks 0..have already hold the payload
        let mut step = 0usize;
        while have < n {
            let senders = have.min(n - have);
            for s in 0..senders {
                transfers.push(TransferStep {
                    step,
                    src: s,
                    dst: have + s,
                    bytes,
                });
            }
            have += senders;
            step += 1;
        }
        Schedule {
            transfers,
            num_ranks: n,
        }
    }

    /// A single point-to-point transfer (pipeline boundary).
    pub fn point_to_point(src: usize, dst: usize, bytes: u64) -> Self {
        Schedule {
            transfers: vec![TransferStep {
                step: 0,
                src,
                dst,
                bytes,
            }],
            num_ranks: src.max(dst) + 1,
        }
    }

    /// The transfers in schedule order.
    pub fn transfers(&self) -> &[TransferStep] {
        &self.transfers
    }

    /// Number of group-local ranks this schedule spans.
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// Number of serialized steps (0 for an empty schedule).
    pub fn num_steps(&self) -> usize {
        self.transfers.iter().map(|t| t.step + 1).max().unwrap_or(0)
    }

    /// Total bytes crossing links over the whole schedule.
    pub fn total_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// Bytes sent by the busiest single rank (the per-participant volume the
    /// analytical topology factor describes).
    pub fn max_bytes_per_rank(&self) -> u64 {
        let mut per_rank = vec![0u64; self.num_ranks];
        for t in &self.transfers {
            per_rank[t.src] += t.bytes;
        }
        per_rank.into_iter().max().unwrap_or(0)
    }

    /// Iterate over transfers grouped by step, in ascending step order.
    ///
    /// One linear pass, relying on the [`Schedule`] step-order invariant.
    /// A step with no transfers yields an empty slice.
    pub fn steps(&self) -> impl Iterator<Item = (usize, &[TransferStep])> + '_ {
        debug_assert!(
            self.transfers.windows(2).all(|w| w[0].step <= w[1].step),
            "schedule transfers must be in ascending step order"
        );
        let mut rest = self.transfers.as_slice();
        (0..self.num_steps()).map(move |s| {
            let len = rest.iter().position(|t| t.step != s).unwrap_or(rest.len());
            let (group, tail) = rest.split_at(len);
            rest = tail;
            (s, group)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_all_reduce_volume_matches_factor() {
        // Per-rank volume must equal 2(n-1)/n * bytes (up to shard rounding).
        for n in [2usize, 4, 8, 16] {
            let bytes = 1 << 20;
            let s = Schedule::ring_all_reduce(n, bytes);
            let expect = 2.0 * (n as f64 - 1.0) / n as f64 * bytes as f64;
            let got = s.max_bytes_per_rank() as f64;
            assert!(
                (got - expect).abs() / expect < 0.01,
                "n={n} got={got} expect={expect}"
            );
            assert_eq!(s.num_steps(), 2 * (n - 1));
        }
    }

    #[test]
    fn alltoall_every_pair_communicates() {
        let n = 6;
        let s = Schedule::pairwise_all_to_all(n, 6000);
        let mut pairs = std::collections::HashSet::new();
        for t in s.transfers() {
            assert_ne!(t.src, t.dst);
            pairs.insert((t.src, t.dst));
        }
        assert_eq!(pairs.len(), n * (n - 1));
        assert_eq!(s.num_steps(), n - 1);
    }

    #[test]
    fn broadcast_reaches_everyone() {
        for n in [2usize, 3, 5, 8, 13] {
            let s = Schedule::tree_broadcast(n, 100);
            let mut have = vec![false; n];
            have[0] = true;
            for (_, batch) in s.steps() {
                for t in batch {
                    assert!(have[t.src], "sender {} has no data yet", t.src);
                    have[t.dst] = true;
                }
            }
            assert!(have.iter().all(|&h| h), "n={n}");
            assert_eq!(s.num_steps(), (n as f64).log2().ceil() as usize);
        }
    }

    #[test]
    fn halving_doubling_matches_ring_volume_with_fewer_steps() {
        for n in [2usize, 4, 8, 16, 32] {
            let bytes = 1 << 20;
            let hd = Schedule::halving_doubling_all_reduce(n, bytes);
            let ring = Schedule::ring_all_reduce(n, bytes);
            assert_eq!(hd.num_steps(), 2 * n.trailing_zeros() as usize);
            assert!(hd.num_steps() <= ring.num_steps());
            // Per-rank volume: sum over stages of bytes/2^(k+1), twice
            // = 2 * bytes * (1 - 1/n) = ring volume.
            let v_hd = hd.max_bytes_per_rank() as f64;
            let v_ring = ring.max_bytes_per_rank() as f64;
            assert!(
                (v_hd - v_ring).abs() / v_ring < 0.01,
                "n={n}: hd={v_hd} ring={v_ring}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn halving_doubling_rejects_non_power_of_two() {
        Schedule::halving_doubling_all_reduce(6, 1024);
    }

    #[test]
    fn halving_doubling_partners_are_symmetric() {
        let s = Schedule::halving_doubling_all_reduce(8, 8192);
        for (_, batch) in s.steps() {
            for t in batch {
                assert!(
                    batch.iter().any(|u| u.src == t.dst && u.dst == t.src),
                    "every exchange must be mutual"
                );
            }
        }
    }

    #[test]
    fn trivial_groups_are_empty() {
        assert!(Schedule::ring_all_reduce(1, 1 << 30).transfers().is_empty());
        assert!(Schedule::pairwise_all_to_all(0, 42).transfers().is_empty());
        assert_eq!(Schedule::ring_all_reduce(1, 1).num_steps(), 0);
    }

    #[test]
    fn point_to_point_is_single_transfer() {
        let s = Schedule::point_to_point(2, 5, 999);
        assert_eq!(s.transfers().len(), 1);
        assert_eq!(s.total_bytes(), 999);
        assert_eq!(s.num_ranks(), 6);
    }

    #[test]
    fn ring_each_rank_sends_once_per_step() {
        let s = Schedule::ring_all_reduce(8, 1 << 16);
        for (_, batch) in s.steps() {
            let mut senders = std::collections::HashSet::new();
            let mut receivers = std::collections::HashSet::new();
            for t in batch {
                assert!(senders.insert(t.src), "duplicate sender in step");
                assert!(receivers.insert(t.dst), "duplicate receiver in step");
            }
        }
    }
}
