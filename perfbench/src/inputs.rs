//! Seeded inputs and the reference rankings every answer is checked
//! against.
//!
//! Documents come from `tasm-data`, are written as XML files, and are
//! parsed back with `tasm_xml::parse_tree`: the reference side sees
//! exactly the bytes the program reads. Queries are random subtrees
//! (`random_query`) or right combs, serialized with `tree_to_xml`; the
//! reference parses that same text into the document's dictionary.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tasm_core::{tasm_postorder, Match, TasmOptions};
use tasm_data::{dblp_tree, random_query, xmark_tree, DblpConfig, XMarkConfig};
use tasm_ted::UnitCost;
use tasm_tree::{LabelDict, LabelId, Tree, TreeBuilder, TreeQueue};
use tasm_xml::{parse_tree, parse_tree_str, tree_to_xml};

/// Document shape, after the paper's two main data sets.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Xmark,
    Dblp,
}

/// A generated document: its XML file and the tree the program sees.
pub struct Doc {
    pub name: String,
    pub path: PathBuf,
    pub xml: Vec<u8>,
    pub tree: Tree,
    pub dict: LabelDict,
}

impl Doc {
    /// Generates a document of about `nodes` nodes, writes it to
    /// `dir/<name>.xml` and parses it back.
    pub fn generate(dir: &Path, name: &str, shape: Shape, seed: u64, nodes: usize) -> Doc {
        let mut gen_dict = LabelDict::new();
        let generated = match shape {
            Shape::Xmark => xmark_tree(&mut gen_dict, &XMarkConfig::new(seed, nodes)),
            Shape::Dblp => dblp_tree(&mut gen_dict, &DblpConfig::new(seed, nodes)),
        };
        let xml = tree_to_xml(&generated, &gen_dict).into_bytes();
        let path = dir.join(format!("{name}.xml"));
        fs::write(&path, &xml).expect("write generated document");
        let mut dict = LabelDict::new();
        let tree = parse_tree(&xml[..], &mut dict).expect("generated XML parses");
        Doc {
            name: name.to_string(),
            path,
            xml,
            tree,
            dict,
        }
    }

    pub fn nodes(&self) -> usize {
        self.tree.len()
    }

    /// The text of a random subtree query of about `size` nodes. Seeds
    /// whose subtree text would not fit on one protocol line are skipped.
    pub fn random_query_text(&self, size: u32, seed: u64) -> String {
        (0..)
            .map(|i| {
                let (query, _) = random_query(&self.tree, size, seed.wrapping_add(i * 7919));
                tree_to_xml(&query, &self.dict)
            })
            .find(|text| !text.contains(['\n', '\r']))
            .expect("some subtree serializes to one line")
    }

    /// The text of a right-comb query of `2·depth + 1` element nodes over
    /// the document's own element names: every internal node has a leaf
    /// left child and carries the rest of the comb on its right. This is
    /// the query shape that favours the strategy TED kernel.
    pub fn comb_query_text(&self, depth: usize, seed: u64) -> String {
        let mut names: Vec<LabelId> = self
            .tree
            .nodes()
            .filter(|&n| !self.tree.is_leaf(n))
            .map(|n| self.tree.label(n))
            .filter(|&l| !self.dict.resolve(l).starts_with('@'))
            .collect();
        names.sort_unstable_by_key(|l| l.index());
        names.dedup();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pick = || names[rng.gen_range(0..names.len())];
        let mut b = TreeBuilder::new();
        for _ in 0..depth {
            b.start(pick());
            b.start(pick());
            b.end().expect("balanced");
        }
        b.start(pick());
        for _ in 0..=depth {
            b.end().expect("balanced");
        }
        tree_to_xml(&b.finish().expect("single root"), &self.dict)
    }

    /// Parses query text into a copy of this document's dictionary, as
    /// the program does before it ranks.
    pub fn parse_query(&self, text: &str) -> Tree {
        let mut dict = self.dict.clone();
        parse_tree_str(text, &mut dict).expect("query text parses")
    }

    /// The reference top-k: `tasm_postorder` over the whole document.
    pub fn reference(&self, query: &Tree, k: usize) -> Vec<Match> {
        let mut queue = TreeQueue::new(&self.tree);
        tasm_postorder(
            query,
            &mut queue,
            k,
            &UnitCost,
            1,
            TasmOptions::default(),
            None,
        )
    }
}

/// One ranked row as the program prints it: source document (empty for
/// single-document answers), postorder node id and distance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub doc: String,
    pub node: u32,
    pub distance: String,
}

pub fn rows(matches: &[Match], doc: &str) -> Vec<Row> {
    matches
        .iter()
        .map(|m| Row {
            doc: doc.to_string(),
            node: m.root.post(),
            distance: m.distance.to_string(),
        })
        .collect()
}

/// Merges per-shard rankings on the corpus rank key
/// `(distance, shard, postorder, size)` and keeps the best `k`.
pub fn merge_shards(per_shard: &[(String, Vec<Match>)], k: usize) -> Vec<Row> {
    let mut all: Vec<(usize, &Match)> = per_shard
        .iter()
        .enumerate()
        .flat_map(|(s, (_, ms))| ms.iter().map(move |m| (s, m)))
        .collect();
    all.sort_by_key(|&(s, m)| (m.distance, s, m.root.post(), m.size));
    all.truncate(k);
    all.into_iter()
        .map(|(s, m)| Row {
            doc: per_shard[s].0.clone(),
            node: m.root.post(),
            distance: m.distance.to_string(),
        })
        .collect()
}

/// Splits `tasm query` / `tasm corpus query` output into one row list per
/// query table. Comment lines (`#`) open a new table when they announce a
/// query; the column header is skipped.
pub fn parse_cli_tables(stdout: &str) -> Vec<Vec<Row>> {
    let mut tables: Vec<Vec<Row>> = Vec::new();
    for line in stdout.lines() {
        if line.starts_with("# query") {
            tables.push(Vec::new());
            continue;
        }
        if line.starts_with('#') || line.starts_with("rank") || line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let row = match f.len() {
            4 => Row {
                doc: String::new(),
                node: f[1].parse().unwrap_or(u32::MAX),
                distance: f[2].to_string(),
            },
            5 => Row {
                doc: f[1].to_string(),
                node: f[2].parse().unwrap_or(u32::MAX),
                distance: f[3].to_string(),
            },
            _ => continue,
        };
        if let Some(t) = tables.last_mut() {
            t.push(row);
        }
    }
    tables
}

/// Spoils the first expected row, so the check that follows must fail:
/// the self-test of the correctness gate.
pub fn corrupt(expected: &mut [Vec<Row>]) {
    if let Some(row) = expected.iter_mut().flat_map(|t| t.iter_mut()).next() {
        row.distance.push_str("-corrupted");
    }
}

/// A seeded permutation of `0..n`, reshuffled per cycle, `len` entries
/// long: every pool entry is used equally often.
pub fn schedule(n: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F0B5);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        out.extend(perm);
    }
    out.truncate(len);
    out
}

/// Total size in bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
