//! Distributed gather-scatter over the real transport, bitwise-equal to
//! the serial `GsHandle`.
//!
//! The subtlety is floating-point combine order. `GsHandle::gs` folds
//! every copy of a dof in ascending serial position. A distributed form
//! that exchanged per-rank *partials* would reassociate those sums and
//! drift from the serial bits, which `sem-net` cannot afford: its
//! per-step validation hinges on bitwise equality with `GsHandle`.
//! `NetGs` therefore exchanges the *individual copy values* of each
//! shared dof and folds **all** copies — local and remote alike — in
//! ascending canonical position (the copy's flat index in the serial
//! layout). That is exactly the order `GsHandle::gs` folds its CSR
//! groups in, so the two produce identical bits for every op, every
//! partition, every rank count.
//!
//! The neighbor exchange is the paper's (§6): one aggregated message per
//! neighbor rank per call, neighbors in ascending rank order, message
//! contents in a canonical order both sides derive independently
//! (shared dofs ascending by global id, copies ascending by canonical
//! position within a dof). Every rank builds the full pattern from the
//! same replicated layout, so no negotiation traffic is needed.

use crate::comm::NetComm;
use crate::layout::RankLayout;
use crate::transport::NetError;
use sem_gs::GsOp;
use sem_obs::counters::{self, Counter};
use std::collections::BTreeMap;

/// One operand of a fold, in canonical-position order.
#[derive(Clone, Copy, Debug)]
enum Src {
    /// A copy this rank holds (local slot).
    Local(u32),
    /// A copy received from neighbor `nbr` (index into [`NetGs::nbrs`])
    /// at word offset `off` of its message.
    Remote { nbr: u32, off: u32 },
}

/// A shared dof with copies on more than one rank.
#[derive(Clone, Debug)]
struct ExtGroup {
    /// All copies of the dof, ascending canonical position.
    fold: Vec<Src>,
    /// This rank's copies (local slots) to write the result back to.
    write: Vec<u32>,
}

/// The preprocessed distributed exchange pattern for one rank.
#[derive(Clone, Debug)]
pub struct NetGs {
    rank: usize,
    n_local: usize,
    /// Dofs shared only within this rank: slots per group, canon order.
    local_groups: Vec<Vec<u32>>,
    /// Neighbor ranks, ascending.
    nbrs: Vec<usize>,
    /// Per neighbor: this rank's slots in outgoing-message word order.
    send_slots: Vec<Vec<u32>>,
    /// Cross-rank shared dofs this rank holds, ascending global id.
    ext_groups: Vec<ExtGroup>,
}

impl NetGs {
    /// Build `rank`'s pattern from a [`RankLayout`].
    pub fn new(layout: &RankLayout, rank: usize) -> Self {
        Self::from_ids(&layout.ids_per_rank, &layout.canon_per_rank, rank)
    }

    /// Build from explicit per-rank id maps and canonical positions.
    /// Canonical positions must be strictly increasing within each rank
    /// and globally unique (each serial slot lives on exactly one rank).
    pub fn from_ids(ids_per_rank: &[Vec<usize>], canon_per_rank: &[Vec<u64>], rank: usize) -> Self {
        let p = ids_per_rank.len();
        assert_eq!(canon_per_rank.len(), p, "one canon map per rank");
        assert!(rank < p, "rank out of range");
        for r in 0..p {
            assert_eq!(ids_per_rank[r].len(), canon_per_rank[r].len());
            assert!(
                canon_per_rank[r].windows(2).all(|w| w[0] < w[1]),
                "canonical positions must be strictly increasing per rank"
            );
        }
        // gid -> all copies (canon, rank, slot); BTreeMap gives ascending
        // gid iteration, and per-rank canon lists are already sorted so a
        // merge by canon is a sort of ≤ p runs — just sort, sizes are tiny.
        let mut copies: BTreeMap<usize, Vec<(u64, usize, u32)>> = BTreeMap::new();
        for (r, ids) in ids_per_rank.iter().enumerate() {
            for (slot, &g) in ids.iter().enumerate() {
                copies
                    .entry(g)
                    .or_default()
                    .push((canon_per_rank[r][slot], r, slot as u32));
            }
        }
        let mut local_groups = Vec::new();
        let mut ext_gids: Vec<usize> = Vec::new();
        for (&g, list) in copies.iter_mut() {
            list.sort_unstable_by_key(|&(c, _, _)| c);
            debug_assert!(
                list.windows(2).all(|w| w[0].0 < w[1].0),
                "canonical positions must be globally unique"
            );
            if list.len() < 2 {
                continue;
            }
            let holders_me = list.iter().filter(|&&(_, r, _)| r == rank).count();
            let all_mine = holders_me == list.len();
            if all_mine {
                local_groups.push(list.iter().map(|&(_, _, s)| s).collect());
            } else if holders_me > 0 {
                ext_gids.push(g);
            }
        }
        // Neighbor set: ranks sharing at least one ext dof with us.
        let mut nbrs: Vec<usize> = Vec::new();
        for &g in &ext_gids {
            for &(_, r, _) in &copies[&g] {
                if r != rank && !nbrs.contains(&r) {
                    nbrs.push(r);
                }
            }
        }
        nbrs.sort_unstable();
        // Message layout for the pair (rank, nbr): dofs shared by both,
        // ascending gid; within a dof the sender's copies in canon order.
        // Both sides derive this independently from the replicated map.
        let mut send_slots: Vec<Vec<u32>> = vec![Vec::new(); nbrs.len()];
        // (nbr index, gid, copy index within nbr's copies) -> word offset
        // in the message nbr sends us.
        let mut recv_off: BTreeMap<(usize, usize, usize), u32> = BTreeMap::new();
        for (ni, &nbr) in nbrs.iter().enumerate() {
            let mut off = 0u32;
            for &g in &ext_gids {
                let list = &copies[&g];
                if !list.iter().any(|&(_, r, _)| r == nbr) {
                    continue;
                }
                // Our copies go into our message to nbr...
                for &(_, r, s) in list.iter() {
                    if r == rank {
                        send_slots[ni].push(s);
                    }
                }
                // ...and nbr's copies occupy its message to us, in the
                // same canonical order.
                for (ci, _) in list.iter().filter(|&&(_, r, _)| r == nbr).enumerate() {
                    recv_off.insert((ni, g, ci), off);
                    off += 1;
                }
            }
        }
        // Fold programs: all copies in canonical order, local slots read
        // directly, remote copies read out of the neighbor's message.
        let nbr_index: BTreeMap<usize, u32> = nbrs
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, i as u32))
            .collect();
        let ext_groups = ext_gids
            .iter()
            .map(|&g| {
                let list = &copies[&g];
                let mut per_nbr_seen: BTreeMap<usize, usize> = BTreeMap::new();
                let mut fold = Vec::with_capacity(list.len());
                let mut write = Vec::new();
                for &(_, r, s) in list.iter() {
                    if r == rank {
                        fold.push(Src::Local(s));
                        write.push(s);
                    } else {
                        let ci = per_nbr_seen.entry(r).or_insert(0);
                        let ni = nbr_index[&r] as usize;
                        let off = recv_off[&(ni, g, *ci)];
                        *ci += 1;
                        fold.push(Src::Remote {
                            nbr: ni as u32,
                            off,
                        });
                    }
                }
                ExtGroup { fold, write }
            })
            .collect();
        NetGs {
            rank,
            n_local: ids_per_rank[rank].len(),
            local_groups,
            nbrs,
            send_slots,
            ext_groups,
        }
    }

    /// Local vector length this pattern serves.
    pub fn n_local(&self) -> usize {
        self.n_local
    }

    /// Neighbor ranks, ascending.
    pub fn neighbors(&self) -> &[usize] {
        &self.nbrs
    }

    /// `(messages, words)` this rank sends per `gs` call — the traffic
    /// RSB partitioning minimizes, reported by the launcher banner.
    pub fn traffic_per_call(&self) -> (u64, u64) {
        (
            self.nbrs.len() as u64,
            self.send_slots.iter().map(|s| s.len() as u64).sum(),
        )
    }

    /// Distributed `gs_op`: combine all copies of every shared dof with
    /// `op` over the real transport and write the result back to every
    /// local copy. Bitwise-identical to `GsHandle::gs` on the serial
    /// layout.
    pub fn gs(&self, u: &mut [f64], op: GsOp, comm: &mut NetComm) -> Result<(), NetError> {
        assert_eq!(u.len(), self.n_local, "NetGs: vector length mismatch");
        assert_eq!(comm.rank(), self.rank, "NetGs built for a different rank");
        let outbox: Vec<(usize, Vec<f64>)> = self
            .nbrs
            .iter()
            .zip(self.send_slots.iter())
            .map(|(&nbr, slots)| (nbr, slots.iter().map(|&s| u[s as usize]).collect()))
            .collect();
        let inbox = comm.exchange(&outbox)?;
        let mut words = 0u64;
        for group in &self.local_groups {
            let mut acc = op.identity();
            for &s in group {
                acc = op.combine(acc, u[s as usize]);
            }
            for &s in group {
                u[s as usize] = acc;
            }
            words += group.len() as u64;
        }
        for group in &self.ext_groups {
            let mut acc = op.identity();
            for src in &group.fold {
                let v = match *src {
                    Src::Local(s) => u[s as usize],
                    Src::Remote { nbr, off } => inbox[nbr as usize][off as usize],
                };
                acc = op.combine(acc, v);
            }
            for &s in &group.write {
                u[s as usize] = acc;
            }
            words += group.fold.len() as u64;
        }
        counters::add(Counter::GsWords, words);
        counters::add(Counter::GsCalls, 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pattern construction on a hand-checkable map: two ranks share
    /// gid 2; gid 5 is shared within rank 1 only.
    #[test]
    fn pattern_shapes_are_canonical() {
        let ids = vec![vec![0, 1, 2], vec![2, 5, 5]];
        let canon = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let g0 = NetGs::from_ids(&ids, &canon, 0);
        let g1 = NetGs::from_ids(&ids, &canon, 1);
        assert_eq!(g0.neighbors(), &[1]);
        assert_eq!(g1.neighbors(), &[0]);
        assert_eq!(g0.traffic_per_call(), (1, 1)); // one copy of gid 2
        assert_eq!(g1.traffic_per_call(), (1, 1));
        assert_eq!(g0.local_groups.len(), 0);
        assert_eq!(g1.local_groups, vec![vec![1, 2]]); // gid 5 copies
        assert_eq!(g0.ext_groups.len(), 1);
        assert_eq!(g1.ext_groups.len(), 1);
        // Rank 0's fold for gid 2: its own slot 2 (canon 2) before rank
        // 1's copy (canon 3).
        match g0.ext_groups[0].fold.as_slice() {
            [Src::Local(2), Src::Remote { nbr: 0, off: 0 }] => {}
            other => panic!("unexpected fold {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_canonical_positions_are_rejected() {
        let ids = vec![vec![0, 1]];
        let canon = vec![vec![1, 0]];
        NetGs::from_ids(&ids, &canon, 0);
    }
}
