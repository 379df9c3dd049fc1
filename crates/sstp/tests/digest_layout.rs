//! Golden test of the namespace digest byte layout. Random trees are
//! built with publishes, updates and removals, and every node's digest
//! is checked, under both hash algorithms, against a reference computed
//! here from the layout written out byte by byte:
//!
//! * leaf: `h(key ‖ version ‖ right_edge)`, each a big-endian `u64`;
//! * interior: `h` over the child slots in order, each slot a big-endian
//!   `u16` index followed by the child's digest, or by `0xff` when the
//!   slot is tombstoned.
//!
//! Reads are interleaved with the mutations (whole tree, single node,
//! or none), so digests are recomputed from partly dirty trees too.

use proptest::prelude::*;
use softstate::Key;
use sstp::digest::{Digest, HashAlgorithm};
use sstp::namespace::{MetaTag, Namespace, NodeId};

/// The test's own copy of the tree.
enum Shadow {
    Interior { children: Vec<Option<usize>> },
    Leaf { key: u64, version: u64, edge: u64 },
}

struct Model {
    nodes: Vec<(NodeId, Shadow)>,
    /// Live leaves: `(key, shadow index, parent index, slot)`.
    leaves: Vec<(u64, usize, usize, usize)>,
    next_key: u64,
}

impl Model {
    fn reference(&self, algo: HashAlgorithm, idx: usize) -> Digest {
        match &self.nodes[idx].1 {
            Shadow::Leaf { key, version, edge } => {
                let mut bytes = Vec::new();
                bytes.extend_from_slice(&key.to_be_bytes());
                bytes.extend_from_slice(&version.to_be_bytes());
                bytes.extend_from_slice(&edge.to_be_bytes());
                algo.digest(&bytes)
            }
            Shadow::Interior { children } => {
                let mut bytes = Vec::new();
                for (slot, child) in children.iter().enumerate() {
                    bytes.extend_from_slice(&(slot as u16).to_be_bytes());
                    match child {
                        Some(c) => {
                            bytes.extend_from_slice(self.reference(algo, *c).as_bytes());
                        }
                        None => bytes.push(0xff),
                    }
                }
                algo.digest(&bytes)
            }
        }
    }

    /// Shadow indices of the nodes still reachable from the root.
    fn reachable(&self) -> Vec<usize> {
        let mut out = vec![0];
        let mut i = 0;
        while i < out.len() {
            if let Shadow::Interior { children } = &self.nodes[out[i]].1 {
                out.extend(children.iter().flatten());
            }
            i += 1;
        }
        out
    }

    fn interiors(&self) -> Vec<usize> {
        self.reachable()
            .into_iter()
            .filter(|&i| matches!(self.nodes[i].1, Shadow::Interior { .. }))
            .collect()
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Add an interior under the `pick`-th reachable interior.
    Branch { pick: usize },
    /// Publish a fresh key under the `pick`-th reachable interior.
    Publish { pick: usize },
    /// Update the `pick`-th live leaf.
    Update {
        pick: usize,
        version: u64,
        edge: u64,
    },
    /// Remove the `pick`-th live leaf.
    Remove { pick: usize },
    /// Read every reachable node's digest.
    CheckAll,
    /// Read the `pick`-th reachable node's digest only.
    CheckOne { pick: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<usize>().prop_map(|pick| Op::Branch { pick }),
        any::<usize>().prop_map(|pick| Op::Publish { pick }),
        (any::<usize>(), 1u64..6, 0u64..5000).prop_map(|(pick, version, edge)| Op::Update {
            pick,
            version,
            edge
        }),
        any::<usize>().prop_map(|pick| Op::Remove { pick }),
        Just(Op::CheckAll),
        any::<usize>().prop_map(|pick| Op::CheckOne { pick }),
    ]
}

fn check(ns: &mut Namespace, m: &Model, idx: usize) -> Result<(), TestCaseError> {
    let id = m.nodes[idx].0;
    prop_assert_eq!(
        ns.digest(id),
        m.reference(ns.algorithm(), idx),
        "node {}",
        idx
    );
    Ok(())
}

fn run(algo: HashAlgorithm, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut ns = Namespace::new(algo);
    let mut m = Model {
        nodes: vec![(ns.root(), Shadow::Interior { children: vec![] })],
        leaves: vec![],
        next_key: 0,
    };
    for op in ops {
        match *op {
            Op::Branch { pick } | Op::Publish { pick } => {
                let interiors = m.interiors();
                let parent = interiors[pick % interiors.len()];
                let tag = MetaTag(parent as u32);
                let idx = m.nodes.len();
                let (id, shadow) = if matches!(op, Op::Branch { .. }) {
                    let id = ns.add_interior(m.nodes[parent].0, tag);
                    (id, Shadow::Interior { children: vec![] })
                } else {
                    let key = m.next_key;
                    m.next_key += 1;
                    let id = ns.add_adu(m.nodes[parent].0, Key(key), tag);
                    (
                        id,
                        Shadow::Leaf {
                            key,
                            version: 1,
                            edge: 0,
                        },
                    )
                };
                let Shadow::Interior { children } = &mut m.nodes[parent].1 else {
                    unreachable!()
                };
                let slot = children.len();
                children.push(Some(idx));
                if let Shadow::Leaf { key, .. } = shadow {
                    m.leaves.push((key, idx, parent, slot));
                }
                m.nodes.push((id, shadow));
            }
            Op::Update {
                pick,
                version,
                edge,
            } => {
                if m.leaves.is_empty() {
                    continue;
                }
                let (key, idx, _, _) = m.leaves[pick % m.leaves.len()];
                ns.update_adu(Key(key), version, edge);
                m.nodes[idx].1 = Shadow::Leaf { key, version, edge };
            }
            Op::Remove { pick } => {
                if m.leaves.is_empty() {
                    continue;
                }
                let (key, _, parent, slot) = m.leaves.swap_remove(pick % m.leaves.len());
                prop_assert!(ns.remove_adu(Key(key)));
                let Shadow::Interior { children } = &mut m.nodes[parent].1 else {
                    unreachable!()
                };
                children[slot] = None;
            }
            Op::CheckAll => {
                for idx in m.reachable() {
                    check(&mut ns, &m, idx)?;
                }
            }
            Op::CheckOne { pick } => {
                let reachable = m.reachable();
                check(&mut ns, &m, reachable[pick % reachable.len()])?;
            }
        }
    }
    for idx in m.reachable() {
        check(&mut ns, &m, idx)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn every_node_digest_matches_the_byte_layout(
        ops in prop::collection::vec(arb_op(), 1..80)
    ) {
        run(HashAlgorithm::Fnv64, &ops)?;
        run(HashAlgorithm::Md5, &ops)?;
    }
}

/// One fixed tree under both algorithms, so a layout change fails even
/// without the random search.
#[test]
fn fixed_tree_matches_the_byte_layout() {
    let ops = [
        Op::Branch { pick: 0 },
        Op::Publish { pick: 0 },
        Op::Publish { pick: 1 },
        Op::Publish { pick: 1 },
        Op::CheckAll,
        Op::Update {
            pick: 0,
            version: 3,
            edge: 1200,
        },
        Op::Remove { pick: 1 },
        Op::Branch { pick: 1 },
        Op::Publish { pick: 2 },
    ];
    for algo in [HashAlgorithm::Fnv64, HashAlgorithm::Md5] {
        run(algo, &ops).unwrap();
    }
}
