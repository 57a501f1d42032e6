//! Stable tree hierarchy (Definition 4.1) and its construction.
//!
//! A stable tree hierarchy is a binary tree of **vertex separators**: each
//! tree node holds a cut whose removal disconnects its left and right
//! subtrees. Unlike HC2L's balanced tree hierarchy, *no shortcut edges are
//! ever inserted* (Remark 1), which is what makes the structure independent
//! of edge weights ("structural stability") and therefore maintainable.
//!
//! Key derived quantities:
//! * `τ(v)` — label index (Definition 4.4): the number of strict ancestors
//!   of `v` in the vertex partial order (Definition 4.3).
//! * per-vertex partition **bitstrings** — the left/right path from the root
//!   to `ℓ(v)`, giving O(1) lowest-common-ancestor *levels* for queries.
//! * per-node `anc_end` prefix counts — how many label entries are shared by
//!   all vertices below a node; used to find the comparable label prefix.

use std::sync::atomic::{AtomicUsize, Ordering};

use stl_graph::components::connected_components;
use stl_graph::subgraph::induced_subgraph;
use stl_graph::{CsrGraph, VertexId};
use stl_partition::find_separator;

use crate::types::StlConfig;

const NO_NODE: u32 = u32::MAX;

/// Tree depth at which the hierarchy is cut into **stable trees** (repair
/// shards): every subtree rooted at this depth (or a leaf above it) becomes
/// one shard, and the nodes above form the shared *spine* (shard
/// [`SPINE_SHARD`]). A shard is the unit a shard worker owns and the batch
/// counters count (`UpdateStats::trees_touched`). Depth 6 yields up to 64
/// subtree shards while keeping the spine a tiny fraction of the cut
/// vertices on balanced hierarchies.
pub(crate) const SHARD_DEPTH: u32 = 6;

/// Shard id of the spine (cut vertices above `SHARD_DEPTH`). Every root
/// path crosses the spine, so every shard worker repairs its entries.
pub const SPINE_SHARD: u32 = 0;

/// An immutable stable tree hierarchy over a graph's vertices.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct Hierarchy {
    // ---- per tree node (parents precede children in id order) ----
    pub(crate) node_parent: Box<[u32]>,
    pub(crate) node_depth: Box<[u32]>,
    pub(crate) node_anc_offset: Box<[u32]>,
    pub(crate) node_cut_start: Box<[u32]>, // len nodes+1, into cut_vertices
    pub(crate) cut_vertices: Box<[VertexId]>,
    pub(crate) node_path_start: Box<[u32]>, // len nodes+1, into path_anc_end
    pub(crate) path_anc_end: Box<[u32]>, // anc_end of each node on the root path (level 0..=depth)
    /// Repair shard of each tree node ([`SPINE_SHARD`] for spine nodes);
    /// derived from the tree shape, never persisted.
    pub(crate) node_shard: Box<[u32]>,
    pub(crate) num_shards: u32,
    pub(crate) spine_has_cuts: bool,
    pub(crate) shard_anc_start: Box<[u32]>,
    // ---- per vertex ----
    pub(crate) node_of: Box<[u32]>,
    pub(crate) tau: Box<[u32]>,
    pub(crate) bits: Box<[u128]>,
    pub(crate) depth: Box<[u32]>,
}

/// The subtree-ownership map derived from the tree shape (never persisted):
/// per-node shard ids, the shard count, whether any spine node owns cut
/// vertices, and per-shard ancestor-index boundaries.
pub(crate) struct ShardMap {
    pub node_shard: Box<[u32]>,
    pub num_shards: u32,
    pub spine_has_cuts: bool,
    /// First ancestor index owned by each shard (index = shard id): the
    /// `anc_offset` of the shard's root node, i.e. how many label entries on
    /// any root path into the shard are owned by spine nodes above it. The
    /// [`SPINE_SHARD`] slot is 0 — the spine owns the prefix `[0, start)` of
    /// every subtree shard's index range.
    pub shard_anc_start: Box<[u32]>,
}

/// Derive the subtree-ownership map from the tree shape: nodes at exactly
/// [`SHARD_DEPTH`], and leaves above it, root one shard each; nodes above
/// with children are spine; nodes below inherit their parent's shard.
pub(crate) fn derive_shards(
    node_parent: &[u32],
    node_depth: &[u32],
    node_cut_start: &[u32],
    node_anc_offset: &[u32],
) -> ShardMap {
    let nodes = node_parent.len();
    let mut has_child = vec![false; nodes];
    for &p in node_parent {
        if p != NO_NODE {
            has_child[p as usize] = true;
        }
    }
    let mut node_shard = vec![SPINE_SHARD; nodes];
    let mut shard_anc_start = vec![0u32];
    let mut next = SPINE_SHARD + 1;
    let mut spine_has_cuts = false;
    for id in 0..nodes {
        let d = node_depth[id];
        node_shard[id] = if d == SHARD_DEPTH || (d < SHARD_DEPTH && !has_child[id]) {
            let s = next;
            next += 1;
            shard_anc_start.push(node_anc_offset[id]);
            s
        } else if d < SHARD_DEPTH {
            if node_cut_start[id + 1] > node_cut_start[id] {
                spine_has_cuts = true;
            }
            SPINE_SHARD
        } else {
            node_shard[node_parent[id] as usize]
        };
    }
    ShardMap {
        node_shard: node_shard.into_boxed_slice(),
        num_shards: next,
        spine_has_cuts,
        shard_anc_start: shard_anc_start.into_boxed_slice(),
    }
}

/// A tree node described externally: parent id (`u32::MAX` for the root),
/// which side of the parent it hangs off, and its cut vertices in rank
/// order. Input to [`Hierarchy::from_raw`] for custom hierarchy builders
/// (HC2L's shortcut-densified cuts use this).
#[derive(Debug, Clone)]
pub struct RawNode {
    /// Parent node id; `u32::MAX` marks the root. Parents must precede
    /// children in the node list.
    pub parent: u32,
    /// 0 = left child, 1 = right child (ignored for the root).
    pub side: u8,
    /// Separator vertices of this node, in rank order. May be empty for
    /// internal nodes created from disconnected subgraphs.
    pub cut: Vec<VertexId>,
}

impl Hierarchy {
    /// Build the hierarchy by recursive balanced bi-partitioning (Remark 1),
    /// on every core ([`std::thread::available_parallelism`]).
    ///
    /// # Schedule
    /// The build is **level-synchronous**. Tree level `d` is a list of
    /// frames (vertex sets still to split, in the order a breadth-first
    /// queue would hold them). The frames of one level are independent, so
    /// workers claim them one at a time from a shared counter and split
    /// them. Node ids are then handed out in frame order, and the next level
    /// lists each frame's side A before its side B. That is exactly the
    /// order of a sequential FIFO build, so the hierarchy — node ids, cuts,
    /// parents and τ — is **identical at any thread count**.
    ///
    /// A level whose frames to split hold fewer than
    /// `INLINE_LEVEL_VERTICES` vertices in total (or that has only one such
    /// frame, like the root) runs inline: a thread spawn would cost more
    /// than the splits, and tests build thousands of tiny hierarchies.
    ///
    /// The calling thread is one of the workers: a level spawns
    /// `threads − 1` helpers. Memory a helper frees stays in its own malloc
    /// arena, so every extra thread adds resident memory. On 2 vCPUs, two
    /// helpers with the caller waiting left 1.4 MB more resident after the
    /// build at 16k vertices (4.5–5.5 MB at 64k) and raised the 16k serving
    /// benchmark's peak RSS by 6–20 %; with the caller as the second worker
    /// the peak stayed within run-to-run noise.
    pub fn build(g: &CsrGraph, cfg: &StlConfig) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
        Self::build_on(g, cfg, threads)
    }

    /// [`Hierarchy::build`] on at most `threads` threads (the caller
    /// included). The result does not depend on `threads`.
    pub(crate) fn build_on(g: &CsrGraph, cfg: &StlConfig, threads: usize) -> Self {
        let n = g.num_vertices();
        assert!(n > 0, "hierarchy over empty graph");
        let mut level =
            vec![Frame { members: (0..n as VertexId).collect(), parent: NO_NODE, side: 0 }];
        let mut raw: Vec<RawNode> = Vec::new();
        let mut depth = 0u32;
        while !level.is_empty() {
            let leaf = |f: &Frame| f.members.len() <= cfg.leaf_size || depth >= cfg.max_depth;
            let inner: Vec<&[VertexId]> =
                level.iter().filter(|f| !leaf(f)).map(|f| &f.members[..]).collect();
            let mut splits = split_level(g, cfg, &inner, threads).into_iter();
            let mut next = Vec::with_capacity(2 * level.len());
            for frame in level {
                let id = raw.len() as u32;
                let (cut, side_a, side_b) = if leaf(&frame) {
                    (frame.members, Vec::new(), Vec::new())
                } else {
                    splits.next().expect("one split per inner frame")
                };
                raw.push(RawNode { parent: frame.parent, side: frame.side, cut });
                if !side_a.is_empty() {
                    next.push(Frame { members: side_a, parent: id, side: 0 });
                }
                if !side_b.is_empty() {
                    next.push(Frame { members: side_b, parent: id, side: 1 });
                }
            }
            level = next;
            depth += 1;
        }
        Self::from_raw(n, raw)
    }

    /// Assemble a hierarchy from an externally built separator tree.
    ///
    /// Requirements (checked by assertions): parents precede children;
    /// every vertex appears in exactly one cut; cut vertices are in-range.
    pub fn from_raw(n: usize, raw: Vec<RawNode>) -> Self {
        let mut node_parent: Vec<u32> = Vec::with_capacity(raw.len());
        let mut node_depth: Vec<u32> = Vec::with_capacity(raw.len());
        let mut node_bits: Vec<u128> = Vec::with_capacity(raw.len());
        let mut node_cut: Vec<Vec<VertexId>> = Vec::with_capacity(raw.len());
        let mut node_of = vec![NO_NODE; n];
        let mut rank = vec![0u32; n];
        for (id, node) in raw.into_iter().enumerate() {
            let (depth, bits) = if node.parent == NO_NODE {
                (0, 0)
            } else {
                assert!((node.parent as usize) < id, "parents must precede children");
                let pd = node_depth[node.parent as usize];
                let pb = node_bits[node.parent as usize];
                let bit_pos = 127 - pd.min(126);
                (pd + 1, pb | ((node.side as u128 & 1) << bit_pos))
            };
            node_depth.push(depth);
            node_bits.push(bits);
            node_parent.push(node.parent);
            for (i, &v) in node.cut.iter().enumerate() {
                assert!((v as usize) < n, "cut vertex {v} out of range");
                assert_eq!(node_of[v as usize], NO_NODE, "vertex {v} in two cuts");
                node_of[v as usize] = id as u32;
                rank[v as usize] = i as u32;
            }
            node_cut.push(node.cut);
        }

        // Accumulate ancestor offsets and per-node path prefix counts.
        let nodes = node_parent.len();
        let mut node_anc_offset = vec![0u32; nodes];
        let mut node_cut_start = vec![0u32; nodes + 1];
        let mut node_path_start = vec![0u32; nodes + 1];
        let mut path_anc_end: Vec<u32> = Vec::new();
        let mut cut_vertices: Vec<VertexId> = Vec::new();
        for id in 0..nodes {
            let parent = node_parent[id];
            let anc_offset = if parent == NO_NODE {
                0
            } else {
                node_anc_offset[parent as usize] + node_cut_len(&node_cut, parent)
            };
            node_anc_offset[id] = anc_offset;
            node_cut_start[id] = cut_vertices.len() as u32;
            cut_vertices.extend_from_slice(&node_cut[id]);
            // Path prefix: parent's path plus own anc_end.
            node_path_start[id] = path_anc_end.len() as u32;
            if parent != NO_NODE {
                let ps = node_path_start[parent as usize] as usize;
                let pe = node_path_start[parent as usize + 1] as usize;
                path_anc_end.extend_from_within(ps..pe);
            }
            path_anc_end.push(anc_offset + node_cut[id].len() as u32);
            node_path_start[id + 1] = path_anc_end.len() as u32;
        }
        node_cut_start[nodes] = cut_vertices.len() as u32;

        // Per-vertex arrays.
        let mut tau = vec![0u32; n];
        let mut bits = vec![0u128; n];
        let mut depth = vec![0u32; n];
        for v in 0..n {
            let nd = node_of[v];
            assert_ne!(nd, NO_NODE, "vertex {v} unassigned");
            tau[v] = node_anc_offset[nd as usize] + rank[v];
            bits[v] = node_bits[nd as usize];
            depth[v] = node_depth[nd as usize];
        }

        let shards = derive_shards(&node_parent, &node_depth, &node_cut_start, &node_anc_offset);
        Hierarchy {
            node_parent: node_parent.into_boxed_slice(),
            node_depth: node_depth.into_boxed_slice(),
            node_anc_offset: node_anc_offset.into_boxed_slice(),
            node_cut_start: node_cut_start.into_boxed_slice(),
            cut_vertices: cut_vertices.into_boxed_slice(),
            node_path_start: node_path_start.into_boxed_slice(),
            path_anc_end: path_anc_end.into_boxed_slice(),
            node_shard: shards.node_shard,
            num_shards: shards.num_shards,
            spine_has_cuts: shards.spine_has_cuts,
            shard_anc_start: shards.shard_anc_start,
            node_of: node_of.into_boxed_slice(),
            tau: tau.into_boxed_slice(),
            bits: bits.into_boxed_slice(),
            depth: depth.into_boxed_slice(),
        }
    }

    /// Split one subgraph into (cut, side A, side B) with global vertex ids.
    fn split(g: &CsrGraph, members: &[VertexId], cfg: &StlConfig) -> Split {
        let (sub, map) = induced_subgraph(g, members);
        let (comp, k) = connected_components(&sub);
        if k > 1 {
            // Disconnected: empty cut; greedily balance whole components.
            let mut sizes = vec![0usize; k];
            for &c in &comp {
                sizes[c as usize] += 1;
            }
            let mut order: Vec<usize> = (0..k).collect();
            order.sort_unstable_by_key(|&c| std::cmp::Reverse(sizes[c]));
            let mut group = vec![0u8; k];
            let (mut ga, mut gb) = (0usize, 0usize);
            for &c in &order {
                if ga <= gb {
                    group[c] = 0;
                    ga += sizes[c];
                } else {
                    group[c] = 1;
                    gb += sizes[c];
                }
            }
            let mut side_a = Vec::with_capacity(ga);
            let mut side_b = Vec::with_capacity(gb);
            for (local, &c) in comp.iter().enumerate() {
                if group[c as usize] == 0 {
                    side_a.push(map[local]);
                } else {
                    side_b.push(map[local]);
                }
            }
            return (Vec::new(), side_a, side_b);
        }
        let sep = find_separator(&sub, &cfg.partition);
        let to_global = |list: Vec<VertexId>| -> Vec<VertexId> {
            list.into_iter().map(|l| map[l as usize]).collect()
        };
        (to_global(sep.separator), to_global(sep.side_a), to_global(sep.side_b))
    }

    // ---- accessors ----

    /// Number of vertices covered by the hierarchy.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.node_of.len()
    }

    /// Number of tree nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_parent.len()
    }

    /// Label index `τ(v)` (Definition 4.4): count of strict ancestors.
    #[inline(always)]
    pub fn tau(&self, v: VertexId) -> u32 {
        self.tau[v as usize]
    }

    /// Number of label entries of `v` (`τ(v) + 1`, including `v` itself).
    #[inline(always)]
    pub fn anc_count(&self, v: VertexId) -> u32 {
        self.tau[v as usize] + 1
    }

    /// Tree node holding `v`.
    #[inline(always)]
    pub fn node_of(&self, v: VertexId) -> u32 {
        self.node_of[v as usize]
    }

    /// Parent of a tree node (`u32::MAX` for the root).
    #[inline]
    pub fn node_parent(&self, node: u32) -> u32 {
        self.node_parent[node as usize]
    }

    /// Depth of a tree node (root = 0).
    #[inline]
    pub fn node_depth(&self, node: u32) -> u32 {
        self.node_depth[node as usize]
    }

    /// The cut (separator vertices) of a tree node, in rank order.
    #[inline]
    pub fn cut(&self, node: u32) -> &[VertexId] {
        let lo = self.node_cut_start[node as usize] as usize;
        let hi = self.node_cut_start[node as usize + 1] as usize;
        &self.cut_vertices[lo..hi]
    }

    /// Size of the root separator's cut — the label-prefix window shared by
    /// **every** root path. Zero for an empty hierarchy.
    pub fn root_cut_len(&self) -> usize {
        if self.num_nodes() == 0 {
            0
        } else {
            self.cut(0).len()
        }
    }

    /// Maximum number of label entries over all vertices (tree height of
    /// Table 4).
    pub fn height(&self) -> u32 {
        self.tau.iter().map(|&t| t + 1).max().unwrap_or(0)
    }

    /// Total label entries `Σ_v (τ(v)+1)`.
    pub fn total_label_entries(&self) -> u64 {
        self.tau.iter().map(|&t| t as u64 + 1).sum()
    }

    /// Number of **comparable label-prefix entries** shared by `s` and `t`:
    /// the `K` of the query formula (Eq. 3 via the bitstring LCA of §4).
    ///
    /// Returns 0 when the two vertices share no ancestors (different
    /// components).
    #[inline]
    pub fn common_anc_count(&self, s: VertexId, t: VertexId) -> u32 {
        let (bs, bt) = (self.bits[s as usize], self.bits[t as usize]);
        let (ds, dt) = (self.depth[s as usize], self.depth[t as usize]);
        let lz = (bs ^ bt).leading_zeros(); // 128 when identical
        let level = ds.min(dt).min(lz);
        let limit = self.path_anc_end
            [(self.node_path_start[self.node_of[s as usize] as usize] + level) as usize];
        limit.min(self.tau[s as usize] + 1).min(self.tau[t as usize] + 1)
    }

    /// Vertex `v`'s label length, `τ(v) + 1` — the truncation bound of
    /// [`Hierarchy::common_anc_count`]. One array load; the tiled
    /// one-to-many scan uses it to finish a per-tile hoisted prefix limit.
    #[inline]
    pub fn label_len(&self, v: VertexId) -> u32 {
        self.tau[v as usize] + 1
    }

    /// [`Hierarchy::common_anc_count`] *before* truncation by `t`'s own
    /// label length: `min(limit(level), τ(s)+1)`.
    ///
    /// The divergence level of `ℓ(s)` from `ℓ(t)`'s root path — and hence
    /// this value — is the same for **every** `t` in one repair shard that
    /// is not the spine and does not contain `s`: the shard is a connected
    /// subtree, so `ℓ(s)` meets all of its root paths at the same node.
    /// Tiled one-to-many exploits this: one call per tile, then
    /// `min(limit, label_len(t))` per target replaces the full bitstring
    /// LCA. For any `s`, `t`: `common_anc_count(s, t) ==
    /// min(shard_anc_limit(s, t), label_len(t))`.
    #[inline]
    pub fn shard_anc_limit(&self, s: VertexId, t: VertexId) -> u32 {
        let (bs, bt) = (self.bits[s as usize], self.bits[t as usize]);
        let (ds, dt) = (self.depth[s as usize], self.depth[t as usize]);
        let lz = (bs ^ bt).leading_zeros(); // 128 when identical
        let level = ds.min(dt).min(lz);
        let limit = self.path_anc_end
            [(self.node_path_start[self.node_of[s as usize] as usize] + level) as usize];
        limit.min(self.tau[s as usize] + 1)
    }

    /// Whether `r ⪯ x` in the vertex partial order (Definition 4.3),
    /// i.e. `x ∈ Desc(r)`. Reflexive.
    #[inline]
    pub fn precedes(&self, r: VertexId, x: VertexId) -> bool {
        let dr = self.depth[r as usize];
        if dr > self.depth[x as usize] {
            return false;
        }
        let lz = (self.bits[r as usize] ^ self.bits[x as usize]).leading_zeros();
        if lz < dr {
            return false; // ℓ(r) not an ancestor of ℓ(x)
        }
        // Same root path; within the same node order by τ (ranks).
        self.tau[r as usize] <= self.tau[x as usize]
    }

    /// Visit every ancestor of `v` **including `v` itself** in `τ` order,
    /// as `(ancestor_vertex, τ(ancestor))`.
    #[inline]
    pub fn for_each_ancestor_inclusive(&self, v: VertexId, f: impl FnMut(VertexId, u32)) {
        self.for_each_ancestor_below(v, u32::MAX, f)
    }

    /// [`Hierarchy::for_each_ancestor_inclusive`] cut to the ancestors with
    /// `τ < limit`: the ones a repair bounded by `limit` seeds.
    pub(crate) fn for_each_ancestor_below(
        &self,
        v: VertexId,
        limit: u32,
        mut f: impl FnMut(VertexId, u32),
    ) {
        // Collect root path of ℓ(v).
        let mut path = [0u32; 128];
        let mut len = 0usize;
        let mut node = self.node_of[v as usize];
        loop {
            path[len] = node;
            len += 1;
            let p = self.node_parent[node as usize];
            if p == NO_NODE {
                break;
            }
            node = p;
        }
        let end = limit.min(self.tau[v as usize] + 1);
        for &nd in path[..len].iter().rev() {
            let t0 = self.node_anc_offset[nd as usize];
            for (t, &r) in (t0..).zip(self.cut(nd)) {
                if t >= end {
                    return;
                }
                f(r, t);
            }
        }
    }

    // ---- repair shards (subtree-ownership map) ----

    /// Number of repair shards, **including** the spine slot
    /// ([`SPINE_SHARD`], which may own no cut vertices on shallow trees).
    #[inline]
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// Repair shard owning a tree node.
    #[cfg(test)]
    pub(crate) fn shard_of_node(&self, node: u32) -> u32 {
        self.node_shard[node as usize]
    }

    /// Repair shard owning vertex `v` — the stable (sub)tree whose labels a
    /// weight change at `v` can reach below the spine.
    #[inline]
    pub fn tree_of(&self, v: VertexId) -> u32 {
        self.node_shard[self.node_of[v as usize] as usize]
    }

    /// Repair shard owning the edge `{a, b}`: the shard of the endpoint
    /// with the smaller label index — the one whose ancestor set the
    /// maintenance algorithms seed (Algorithm 1 line 2).
    #[inline]
    pub fn tree_of_edge(&self, a: VertexId, b: VertexId) -> u32 {
        let anchor = if self.tau[a as usize] < self.tau[b as usize] { a } else { b };
        self.tree_of(anchor)
    }

    /// Whether any spine node owns cut vertices — iff false, no vertex and
    /// no edge is owned by the spine.
    #[inline]
    pub(crate) fn spine_has_cuts(&self) -> bool {
        self.spine_has_cuts
    }

    /// First ancestor index owned by `shard`: for every vertex `v` with
    /// `tree_of(v) == shard`, the inclusive-ancestor indices of `v` split
    /// exactly into the spine-owned prefix `[0, start)` and the shard-owned
    /// suffix `[start, τ(v)]` — shards are connected subtrees, so the spine
    /// nodes on `v`'s root path are precisely the path from the root to the
    /// shard's root node. A repair of an update whose tree a shard worker
    /// does not own stops at this index. Returns 0 for [`SPINE_SHARD`].
    #[inline]
    pub(crate) fn shard_anc_start(&self, shard: u32) -> u32 {
        self.shard_anc_start[shard as usize]
    }

    /// Repair shard owning label entry `L(v)[i]` — the shard of the `i`-th
    /// inclusive ancestor of `v`. Walks the root path.
    #[cfg(test)]
    pub(crate) fn shard_of_entry(&self, v: VertexId, i: u32) -> u32 {
        debug_assert!(i <= self.tau[v as usize], "entry {i} out of range for vertex {v}");
        let mut node = self.node_of[v as usize];
        loop {
            let off = self.node_anc_offset[node as usize];
            if i >= off {
                debug_assert!(
                    (i - off)
                        < self.node_cut_start[node as usize + 1]
                            - self.node_cut_start[node as usize],
                    "label index {i} does not fall in node {node}'s cut"
                );
                return self.node_shard[node as usize];
            }
            node = self.node_parent[node as usize];
            debug_assert_ne!(node, NO_NODE, "index {i} below the root offset");
        }
    }

    /// Vertices owned per shard (index = shard id; `[SPINE_SHARD]` counts
    /// spine cut vertices).
    #[cfg(test)]
    pub fn shard_vertex_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_shards as usize];
        for &nd in self.node_of.iter() {
            counts[self.node_shard[nd as usize] as usize] += 1;
        }
        counts
    }

    /// Approximate resident bytes of hierarchy metadata.
    pub fn memory_bytes(&self) -> usize {
        self.node_parent.len() * (4 + 4 + 4 + 4)
            + self.node_cut_start.len() * 4
            + self.cut_vertices.len() * 4
            + self.node_path_start.len() * 4
            + self.path_anc_end.len() * 4
            + self.node_of.len() * (4 + 4 + 16 + 4)
    }
}

/// A level in `Hierarchy::build` holding fewer vertices than this (over its
/// frames to split) is split on the calling thread alone.
const INLINE_LEVEL_VERTICES: usize = 1024;

/// A vertex set waiting to become a tree node under `parent` (side 0 = A).
struct Frame {
    members: Vec<VertexId>,
    parent: u32,
    side: u8,
}

/// A node's cut and its two sides, in global vertex ids.
type Split = (Vec<VertexId>, Vec<VertexId>, Vec<VertexId>);

/// Split the frames of one level, on up to `threads` threads (the caller
/// included); the splits come back in frame order.
fn split_level(
    g: &CsrGraph,
    cfg: &StlConfig,
    frames: &[&[VertexId]],
    threads: usize,
) -> Vec<Split> {
    let work: usize = frames.iter().map(|f| f.len()).sum();
    let workers = threads.min(frames.len());
    if workers <= 1 || work < INLINE_LEVEL_VERTICES {
        return frames.iter().map(|f| Hierarchy::split(g, f, cfg)).collect();
    }
    let claim = AtomicUsize::new(0);
    let run = || {
        let mut done = Vec::new();
        loop {
            let i = claim.fetch_add(1, Ordering::Relaxed);
            let Some(f) = frames.get(i) else { return done };
            done.push((i, Hierarchy::split(g, f, cfg)));
        }
    };
    let mut out: Vec<Option<Split>> = (0..frames.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(run)).collect();
        let mine = run();
        let theirs = helpers.into_iter().flat_map(|h| h.join().expect("hierarchy worker panicked"));
        for (i, sp) in mine.into_iter().chain(theirs) {
            out[i] = Some(sp);
        }
    });
    out.into_iter().map(|sp| sp.expect("every frame claimed")).collect()
}

fn node_cut_len(node_cut: &[Vec<VertexId>], node: u32) -> u32 {
    node_cut[node as usize].len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use stl_graph::builder::from_edges;
    use stl_workloads::roadnet::{generate, RoadNetConfig};

    fn grid(side: u32) -> CsrGraph {
        let idx = |x: u32, y: u32| y * side + x;
        let mut edges = Vec::new();
        for y in 0..side {
            for x in 0..side {
                if x + 1 < side {
                    edges.push((idx(x, y), idx(x + 1, y), 1));
                }
                if y + 1 < side {
                    edges.push((idx(x, y), idx(x, y + 1), 1));
                }
            }
        }
        from_edges((side * side) as usize, edges)
    }

    #[test]
    fn every_vertex_assigned_exactly_once() {
        let g = grid(8);
        let h = Hierarchy::build(&g, &StlConfig::default());
        assert_eq!(h.num_vertices(), 64);
        let mut seen = [false; 64];
        for node in 0..h.num_nodes() as u32 {
            for &v in h.cut(node) {
                assert!(!seen[v as usize], "vertex {v} in two cuts");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn edge_endpoints_are_comparable() {
        // Lemma 5.3: for every edge, one endpoint's node is an ancestor of
        // the other's (equivalently τ-comparable along the same root path).
        let g = grid(10);
        let h = Hierarchy::build(&g, &StlConfig::default());
        for (u, v, _) in g.edges() {
            let (nu, nv) = (h.node_of(u), h.node_of(v));
            // Ancestorship check by walking up from the deeper node.
            let (mut hi, lo) =
                if h.node_depth(nu) >= h.node_depth(nv) { (nu, nv) } else { (nv, nu) };
            while h.node_depth(hi) > h.node_depth(lo) {
                hi = h.node_parent(hi);
            }
            assert_eq!(hi, lo, "edge ({u},{v}) endpoints in unrelated subtrees");
        }
    }

    #[test]
    fn tau_is_consecutive_along_ancestor_chains() {
        let g = grid(7);
        let h = Hierarchy::build(&g, &StlConfig::default());
        for v in 0..h.num_vertices() as VertexId {
            let mut expected = 0u32;
            h.for_each_ancestor_inclusive(v, |_, t| {
                assert_eq!(t, expected);
                expected += 1;
            });
            assert_eq!(expected, h.anc_count(v), "vertex {v}");
        }
    }

    #[test]
    fn common_anc_count_symmetric_and_bounded() {
        let g = grid(6);
        let h = Hierarchy::build(&g, &StlConfig::default());
        for s in 0..36u32 {
            for t in 0..36u32 {
                let k = h.common_anc_count(s, t);
                assert_eq!(k, h.common_anc_count(t, s));
                assert!(k <= h.anc_count(s) && k <= h.anc_count(t));
                assert!(k >= 1, "connected graph must share the root cut");
            }
        }
    }

    #[test]
    fn common_anc_matches_bruteforce() {
        // Brute force: |Anc(s) ∩ Anc(t)| via ancestor enumeration.
        let g = grid(5);
        let h = Hierarchy::build(&g, &StlConfig::default());
        for s in 0..25u32 {
            for t in 0..25u32 {
                let mut anc_s = Vec::new();
                h.for_each_ancestor_inclusive(s, |r, _| anc_s.push(r));
                let mut anc_t = Vec::new();
                h.for_each_ancestor_inclusive(t, |r, _| anc_t.push(r));
                let common = anc_s.iter().filter(|r| anc_t.contains(r)).count() as u32;
                assert_eq!(h.common_anc_count(s, t), common, "s={s} t={t}");
            }
        }
    }

    #[test]
    fn shard_anc_limit_decomposes_common_anc_count() {
        // The algebraic identity the tiled one-to-many scan rests on:
        // common_anc_count(s, t) == min(shard_anc_limit(s, t), label_len(t))
        // for *every* pair — and the hoisted limit is constant across all
        // targets in one non-spine repair shard that does not contain `s`.
        let g = grid(8);
        let h = Hierarchy::build(&g, &StlConfig::default());
        let n = h.num_vertices() as u32;
        for s in 0..n {
            // limit per shard, first-seen; None until a target in that
            // shard is visited.
            let mut hoisted = vec![None; h.num_shards() as usize];
            for t in 0..n {
                let limit = h.shard_anc_limit(s, t);
                assert_eq!(h.common_anc_count(s, t), limit.min(h.label_len(t)), "s={s} t={t}");
                let sh = h.tree_of(t);
                if sh == SPINE_SHARD || sh == h.tree_of(s) {
                    continue; // constancy is only claimed across other shards
                }
                match hoisted[sh as usize] {
                    None => hoisted[sh as usize] = Some(limit),
                    Some(l) => assert_eq!(l, limit, "s={s} t={t} shard={sh}"),
                }
            }
        }
    }

    #[test]
    fn disconnected_graph_supported() {
        let g = from_edges(6, vec![(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)]);
        let h = Hierarchy::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        assert_eq!(h.num_vertices(), 6);
        // Vertices in different components share no ancestors.
        assert_eq!(h.common_anc_count(0, 3), 0);
        assert!(h.common_anc_count(0, 2) >= 1);
    }

    #[test]
    fn height_and_entry_totals_consistent() {
        let g = grid(9);
        let h = Hierarchy::build(&g, &StlConfig::default());
        let max = (0..81u32).map(|v| h.anc_count(v)).max().unwrap();
        assert_eq!(h.height(), max);
        let total: u64 = (0..81u32).map(|v| h.anc_count(v) as u64).sum();
        assert_eq!(h.total_label_entries(), total);
    }

    #[test]
    fn from_raw_accepts_custom_tree() {
        // Path 0-1-2-3-4 with a hand-built separator tree: root cut {2},
        // left {0,1}, right {3,4}.
        let raw = vec![
            RawNode { parent: u32::MAX, side: 0, cut: vec![2] },
            RawNode { parent: 0, side: 0, cut: vec![1, 0] },
            RawNode { parent: 0, side: 1, cut: vec![3, 4] },
        ];
        let h = Hierarchy::from_raw(5, raw);
        assert_eq!(h.tau(2), 0);
        assert_eq!(h.tau(1), 1);
        assert_eq!(h.tau(0), 2);
        assert_eq!(h.common_anc_count(0, 4), 1, "only the root cut is shared");
        assert!(h.precedes(2, 0) && h.precedes(2, 4));
        assert!(!h.precedes(0, 4));
    }

    #[test]
    #[should_panic(expected = "two cuts")]
    fn from_raw_rejects_duplicate_vertex() {
        let raw = vec![
            RawNode { parent: u32::MAX, side: 0, cut: vec![0, 1] },
            RawNode { parent: 0, side: 0, cut: vec![1] },
        ];
        let _ = Hierarchy::from_raw(2, raw);
    }

    #[test]
    #[should_panic(expected = "parents must precede children")]
    fn from_raw_rejects_forward_parent() {
        let raw = vec![
            RawNode { parent: 1, side: 0, cut: vec![0] },
            RawNode { parent: u32::MAX, side: 0, cut: vec![1] },
        ];
        let _ = Hierarchy::from_raw(2, raw);
    }

    #[test]
    #[should_panic(expected = "unassigned")]
    fn from_raw_rejects_missing_vertex() {
        let raw = vec![RawNode { parent: u32::MAX, side: 0, cut: vec![0] }];
        let _ = Hierarchy::from_raw(2, raw);
    }

    #[test]
    fn single_vertex_graph() {
        let g = from_edges(1, Vec::new());
        let h = Hierarchy::build(&g, &StlConfig::default());
        assert_eq!(h.num_nodes(), 1);
        assert_eq!(h.tau(0), 0);
        assert_eq!(h.common_anc_count(0, 0), 1);
    }

    #[test]
    fn ancestor_walk_below_a_limit_is_a_prefix() {
        // The walk cut at `limit` visits exactly the inclusive ancestors
        // with τ < limit, in τ order; at the vertex's own tree boundary
        // those are its spine-owned ancestors.
        let g = grid(10);
        let h = Hierarchy::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        assert!(h.num_shards() >= 2, "tree must split into several shards");
        for v in 0..h.num_vertices() as VertexId {
            let mut full = Vec::new();
            h.for_each_ancestor_inclusive(v, |r, t| full.push((r, t)));
            let k = h.shard_anc_start(h.tree_of(v));
            for limit in [0, 1, k, h.tau(v), u32::MAX] {
                let mut cut = Vec::new();
                h.for_each_ancestor_below(v, limit, |r, t| cut.push((r, t)));
                let want: Vec<_> = full.iter().copied().filter(|&(_, t)| t < limit).collect();
                assert_eq!(cut, want, "vertex {v} limit {limit}");
            }
            h.for_each_ancestor_below(v, k, |r, _| {
                assert_eq!(h.shard_of_node(h.node_of(r)), SPINE_SHARD, "vertex {v}");
            });
        }
    }

    #[test]
    fn shard_of_entry_matches_ancestor_shards() {
        let g = grid(9);
        let h = Hierarchy::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        for v in 0..h.num_vertices() as VertexId {
            h.for_each_ancestor_inclusive(v, |r, t| {
                assert_eq!(
                    h.shard_of_entry(v, t),
                    h.shard_of_node(h.node_of(r)),
                    "vertex {v} entry {t}"
                );
            });
        }
    }

    #[test]
    fn spine_nodes_are_shallow_and_shard_subtrees_disjoint() {
        let g = grid(12);
        let h = Hierarchy::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        for node in 0..h.num_nodes() as u32 {
            let s = h.shard_of_node(node);
            if s == SPINE_SHARD {
                assert!(h.node_depth(node) < SHARD_DEPTH, "spine node {node} too deep");
            } else {
                // A non-spine node's parent is either spine or in the same
                // shard — shards are connected subtrees.
                let p = h.node_parent(node);
                if p != u32::MAX {
                    let ps = h.shard_of_node(p);
                    assert!(ps == SPINE_SHARD || ps == s, "shard {s} not a subtree");
                }
            }
        }
        let counts = h.shard_vertex_counts();
        assert_eq!(counts.iter().map(|&c| c as usize).sum::<usize>(), h.num_vertices());
    }

    #[test]
    fn shard_anc_start_splits_index_range_at_spine_boundary() {
        // For every vertex, ancestor indices below its tree's
        // shard_anc_start are spine-owned and the rest belong to its tree —
        // the contiguous split the Pareto interval clamping relies on.
        let g = grid(11);
        let h = Hierarchy::build(&g, &StlConfig { leaf_size: 2, ..Default::default() });
        assert_eq!(h.shard_anc_start(SPINE_SHARD), 0);
        for v in 0..h.num_vertices() as VertexId {
            let s = h.tree_of(v);
            if s == SPINE_SHARD {
                // Spine vertices own their whole (spine-only) chain.
                h.for_each_ancestor_inclusive(v, |_, t| {
                    assert_eq!(h.shard_of_entry(v, t), SPINE_SHARD, "vertex {v} entry {t}");
                });
                continue;
            }
            let k = h.shard_anc_start(s);
            assert!(k <= h.tau(v), "boundary above τ for vertex {v}");
            h.for_each_ancestor_inclusive(v, |_, t| {
                let owner = h.shard_of_entry(v, t);
                if t < k {
                    assert_eq!(owner, SPINE_SHARD, "vertex {v} entry {t} below boundary {k}");
                } else {
                    assert_eq!(owner, s, "vertex {v} entry {t} at/above boundary {k}");
                }
            });
        }
    }

    #[test]
    fn tree_of_edge_picks_smaller_tau_endpoint() {
        let g = grid(8);
        let h = Hierarchy::build(&g, &StlConfig::default());
        for (u, v, _) in g.edges() {
            let anchor = if h.tau(u) < h.tau(v) { u } else { v };
            assert_eq!(h.tree_of_edge(u, v), h.tree_of(anchor));
            assert_eq!(h.tree_of_edge(u, v), h.tree_of_edge(v, u));
        }
    }

    #[test]
    fn single_node_tree_has_one_shard_and_no_spine() {
        let g = from_edges(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let h = Hierarchy::build(&g, &StlConfig { leaf_size: 8, ..Default::default() });
        assert_eq!(h.num_nodes(), 1);
        assert_eq!(h.num_shards(), 2, "spine slot + the single leaf shard");
        assert!(!h.spine_has_cuts());
        assert_eq!(h.tree_of(0), 1);
    }

    #[test]
    fn balanced_depth_logarithmic() {
        let g = grid(16); // 256 vertices
        let h = Hierarchy::build(&g, &StlConfig::default());
        let maxd = (0..256u32).map(|v| h.depth[v as usize]).max().unwrap();
        // log_{1.25}(256/8) ≈ 15.5; allow generous slack for separator bulk.
        assert!(maxd <= 30, "depth {maxd} suspiciously large");
    }

    fn road(n: usize) -> CsrGraph {
        generate(&RoadNetConfig::sized(n, 0x0057_AB1E))
    }

    /// Disjoint union of two road networks (side by side) and three
    /// isolated vertices: the root and some inner frames split by
    /// components with an empty cut.
    fn disconnected() -> CsrGraph {
        let (a, b) = (road(600), road(300));
        let off = a.num_vertices() as VertexId;
        let n = a.num_vertices() + b.num_vertices() + 3;
        let edges = a.edges().chain(b.edges().map(|(u, v, w)| (u + off, v + off, w)));
        let mut g = from_edges(n, edges.collect::<Vec<_>>());
        let coords = a.coords().unwrap().iter().copied();
        let shifted = b.coords().unwrap().iter().map(|&(x, y)| (x + 1e4, y));
        g.set_coords(coords.chain(shifted).chain([(-1.0, -1.0); 3]).collect());
        g
    }

    #[test]
    fn hierarchy_identical_at_every_thread_count() {
        let with_coords = road(3000);
        let no_coords =
            from_edges(with_coords.num_vertices(), with_coords.edges().collect::<Vec<_>>());
        assert!(no_coords.coords().is_none());
        let split = disconnected();
        assert_eq!(Hierarchy::build_on(&split, &StlConfig::default(), 1).root_cut_len(), 0);
        let deep = StlConfig { leaf_size: 1, ..StlConfig::with_beta(0.4) };
        let cases = [
            ("road graph (inertial)", &with_coords, StlConfig::default()),
            ("road graph without coordinates (BFS)", &no_coords, StlConfig::default()),
            ("disconnected graph", &split, StlConfig::default()),
            ("β 0.4, leaf size 1", &with_coords, deep),
        ];
        for (name, g, cfg) in cases {
            let one = Hierarchy::build_on(g, &cfg, 1);
            for threads in [2, 3] {
                assert!(one == Hierarchy::build_on(g, &cfg, threads), "{name}: {threads} threads");
            }
            assert!(one == Hierarchy::build(g, &cfg), "{name}: available_parallelism");
        }
    }

    /// Nodes, label entries, height and root cut of the pinned road
    /// networks, as built by the sequential FIFO queue with the single-heap
    /// FM this schedule replaced.
    #[test]
    fn pinned_road_network_shapes() {
        for (n, shape) in [(2048, (465, 217_755, 129, 42)), (16_384, (3654, 5_299_205, 401, 111))] {
            let h = Hierarchy::build(&road(n), &StlConfig::default());
            let got = (h.num_nodes(), h.total_label_entries(), h.height(), h.root_cut_len());
            assert_eq!(got, shape, "sized({n})");
        }
    }
}
